"""Tunables of the group communication prototype.

Defaults are calibrated for the paper's LAN scenarios (§4.1, §5): a
100 Mbit/s switched Ethernet, packets restricted to a safe size below
the Ethernet MTU (§4.2), NACK timers in the tens of milliseconds, and a
stability-gossip period long enough that its traffic is negligible in
steady state yet short enough to keep buffers small.  The calibration
no experiment varies is fixed: the module constants below.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["GcsConfig"]

#: Retransmission request ceiling per NACK message.
NACK_BATCH = 32
#: CPU charged for processing one NACK (buffer lookups, resend path)
#: plus per requested message.  Calibrated so protocol CPU under 5 %
#: random loss lands near the paper's Figure 7(c) (~1.5x fault-free).
NACK_PROCESSING_COST = 250e-6
NACK_PER_MESSAGE_COST = 60e-6
#: CPU charged on receiving a retransmitted message (out-of-order
#: reordering path of the prototype).
RETRANSMIT_PROCESSING_COST = 150e-6
#: Rate-based flow control: initial transmissions per second.
SEND_RATE = 4000.0
#: Token-bucket burst allowance (messages).
SEND_BURST = 64
#: State-transfer request retry period (seconds): how long a joiner
#: waits for a complete snapshot before re-requesting (rotating to the
#: next donor candidate, which survives a donor crash).
STATE_RETRY = 0.250

#: Each fixed value's slot in the stored encoding: after the field it followed.
_STORED_AFTER = {
    "nack_timeout": {"nack_batch": NACK_BATCH},
    "stability_interval": {
        "nack_processing_cost": NACK_PROCESSING_COST,
        "nack_per_message_cost": NACK_PER_MESSAGE_COST,
        "retransmit_processing_cost": RETRANSMIT_PROCESSING_COST,
        "send_rate": SEND_RATE,
        "send_burst": SEND_BURST,
    },
    "max_packet": {"state_retry": STATE_RETRY},
}


@dataclass
class GcsConfig:
    """Knobs for the reliable/total-order/membership stack."""

    #: Per-origin share of the unstable-message buffer pool (§5.3).  When
    #: a sender's share is exhausted its new multicasts wait for garbage
    #: collection — increasing this mitigates sequencer blocking.
    buffer_share: int = 64
    #: Receiver-initiated retransmission timer (seconds): how long a gap
    #: may stand before a NACK is sent to the origin.
    nack_timeout: float = 0.080
    #: Stability gossip period (seconds).
    stability_interval: float = 0.120
    #: Sequencer batching window (seconds): assignments accumulated for
    #: this long ship in one SEQUENCE message.
    sequence_batch_interval: float = 0.002
    #: Failure-detector heartbeat period (seconds).
    heartbeat_interval: float = 0.200
    #: Silence threshold before a member is suspected (seconds).  Keep
    #: well above any injected scheduling latency or drift to avoid
    #: false suspicions (see ARCHITECTURE.md).
    suspect_after: float = 2.0
    #: View-change message retransmission period (seconds).
    view_retransmit: float = 0.100
    #: Largest DATA payload shipped in one packet; larger application
    #: messages are fragmented by the session layer.  The prototype uses
    #: a safe value below the Ethernet MTU (§4.2).
    max_packet: int = 1400

    def to_dict(self) -> dict:
        data = {}
        for name, value in dataclasses.asdict(self).items():
            data[name] = value
            data.update(_STORED_AFTER.get(name, ()))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GcsConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
