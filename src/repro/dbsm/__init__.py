"""The Database State Machine replication layer (paper §3.3).

Certification-based replication: transactions execute locally under the
site's own concurrency control, then their read/write sets are atomically
multicast and certified deterministically at every replica.

**Contract.** Implement the ``"dbsm"`` entry of the protocol table:
update transactions terminate through atomic multicast + deterministic
certification; remote write sets are applied in commit order; a
rejoining replica is seeded from a donor's certification log and commit
log (the state-transfer hook).

**Invariants.**

* *Deterministic certification* — the verdict is a pure function of
  (request, committed-write-set log), and total order makes the log
  identical at every replica, so no coordination is needed;
* *1-copy serializability* — commit sequence numbers are consecutive
  over commits and every operational replica commits the same sequence
  (§5.3);
* *Whole log* — the committed write-set log is never pruned, so every
  ``start_seq`` still in flight is decidable.
"""

from .certification import Certifier, sets_conflict
from .marshal import CommitRequest, marshal_request, unmarshal_request
from .replica import Replica

__all__ = [
    "Certifier",
    "sets_conflict",
    "CommitRequest",
    "marshal_request",
    "unmarshal_request",
    "Replica",
]
