"""The built-in campaigns, as declarative specs.

These reproduce — cell for cell, label for label — the grids the runner
CLI has always shipped (``smoke``, ``fig5``, ``fig7``, ``recovery``;
previously hard-coded builder functions), plus ``safety``, the §5.3
fault matrix the fault-injection example runs.  A legacy-parity unit
test (``tests/unit/test_campaign_spec.py``) pins each spec's expansion
against the removed builders' output, label for label, so a directory
written under an older result format has its cells re-run under the
same file names.

Every spec leaves ``transactions`` at ``None`` (the ``REPRO_SCALE``-\
scaled paper count) and sweeps only the default protocol; the CLI's
``--protocol`` / ``--set`` and :meth:`CampaignSpec.with_axis` widen them.

:data:`CAMPAIGNS` is the name table every campaign lookup resolves
through; a new campaign is one more entry there.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from ..core.scenarios import CLIENT_LEVELS, SAFETY_FAULT_LOADS, SYSTEM_CONFIGS
from .spec import DEFAULT_PROTOCOL, CampaignSpec


def _smoke_spec() -> CampaignSpec:
    return CampaignSpec(
        name="smoke",
        description=(
            "tiny CI grid: centralized and replicated cells plus one "
            "crash->recover rejoin cell per protocol"
        ),
        axes=[("transactions", (None,)), ("seed", (42,))],
        children=(
            CampaignSpec(
                name="smoke-centralized",
                kind="performance",
                label="1x1cpu c{clients}",
                template={"sites": 1, "cpus_per_site": 1},
                axes=[("clients", (40, 80))],
            ),
            CampaignSpec(
                name="smoke-replicated",
                axes=[("protocol", (DEFAULT_PROTOCOL,))],
                children=(
                    CampaignSpec(
                        name="smoke-replicated-cells",
                        kind="performance",
                        label="{protocol_prefix}3x1cpu c{clients}",
                        template={"sites": 3, "cpus_per_site": 1},
                        axes=[("clients", (40, 80))],
                    ),
                    CampaignSpec(
                        name="smoke-recovery",
                        kind="fault",
                        label="{protocol_prefix}recovery c{clients}",
                        template={"fault_at": 5.0, "repair_after": 3.0},
                        axes=[
                            ("fault", ("crash-recover",)),
                            ("clients", (40,)),
                        ],
                    ),
                ),
            ),
        ),
    )


def _fig5_spec() -> CampaignSpec:
    centralized = tuple(sc for sc in SYSTEM_CONFIGS if sc[1] == 1)
    replicated = tuple(sc for sc in SYSTEM_CONFIGS if sc[1] > 1)
    return CampaignSpec(
        name="fig5",
        description=(
            "the Figure 5/6 performance sweep: centralized 1/3/6-CPU "
            "baselines and replicated 3/6-site systems, 100-2000 clients"
        ),
        axes=[("transactions", (None,)), ("seed", (42,))],
        children=(
            CampaignSpec(
                name="fig5-centralized",
                kind="performance",
                label="{system} c{clients}",
                axes=[("system", centralized), ("clients", CLIENT_LEVELS)],
            ),
            CampaignSpec(
                name="fig5-replicated",
                kind="performance",
                label="{protocol_prefix}{system} c{clients}",
                axes=[
                    ("system", replicated),
                    ("protocol", (DEFAULT_PROTOCOL,)),
                    ("clients", CLIENT_LEVELS),
                ],
            ),
        ),
    )


def _fig7_spec() -> CampaignSpec:
    return CampaignSpec(
        name="fig7",
        description=(
            "the Figure 7 / Table 2 fault grid: no faults vs 5% random "
            "vs 5% bursty loss under the prototype GCS configuration"
        ),
        kind="fault",
        label="{protocol_prefix}{fault}",
        axes=[
            ("transactions", (None,)),
            ("seed", (42,)),
            ("protocol", (DEFAULT_PROTOCOL,)),
            ("fault", ("none", "random", "bursty")),
        ],
    )


def _recovery_spec() -> CampaignSpec:
    # Early fault times + a moderate population keep the leave/rejoin
    # cycle inside the run even at small transaction counts.
    return CampaignSpec(
        name="recovery",
        description=(
            "recovery fault-loads: a member leaves (crash or partition) "
            "and rejoins via view-synchronous state transfer mid-campaign"
        ),
        kind="fault",
        label="{protocol_prefix}{fault}",
        template={"clients": 100, "fault_at": 5.0, "repair_after": 5.0},
        axes=[
            ("transactions", (None,)),
            ("seed", (42,)),
            ("protocol", (DEFAULT_PROTOCOL,)),
            ("fault", ("crash-recover", "partition-heal")),
        ],
    )


def _scale_out_spec() -> CampaignSpec:
    # 3000 clients drive the 6-site system past its full-replication
    # saturation point (the one total-order stream is the bottleneck),
    # which is where splitting into per-fragment groups pays off; 300
    # warehouses divide evenly by every swept fragment count, so both
    # placements balance exactly.  fragments=1 is the full-replication
    # baseline the scale-out curve is read against; no faults, so
    # 2-site groups (fragments=3) are fine.
    return CampaignSpec(
        name="scale-out",
        description=(
            "partial-replication scale-out: the 6-site system driven "
            "past full-replication saturation under the partial "
            "protocol with 1/2/3 per-fragment groups and both data "
            "placements, against the fully replicated baseline"
        ),
        kind="performance",
        label="{protocol_prefix}f{fragments} {placement} c{clients}",
        template={"sites": 6, "cpus_per_site": 1, "clients": 3000},
        axes=[
            ("transactions", (None,)),
            ("seed", (42,)),
            ("protocol", ("partial",)),
            ("fragments", (1, 2, 3)),
            ("placement", ("range", "round-robin")),
        ],
    )


def _safety_spec() -> CampaignSpec:
    return CampaignSpec(
        name="safety",
        description=(
            "the full §5.3 safety matrix: five paper fault types plus "
            "the recovery fault-loads, member and sequencer variants"
        ),
        kind="safety",
        label="{protocol_prefix}{fault}",
        template={
            "sites": 3,
            "clients": 90,
            "seed": 123,
            "plan_seed": 7,
            "max_sim_time": 600.0,
        },
        axes=[
            ("transactions", (None,)),
            ("protocol", (DEFAULT_PROTOCOL,)),
            ("fault", tuple(sorted(SAFETY_FAULT_LOADS))),
        ],
    )


def _safety_monitored_spec() -> CampaignSpec:
    # The safety matrix, re-run with every runtime invariant monitor
    # wired into the event path (a ``monitors`` axis on top of the
    # ``safety`` spec, which keeps its labels for legacy parity).
    # Clean protocol code must earn the ``ok`` verdict on every cell;
    # CI runs it and ``run``'s exit code is the check.
    return replace(
        _safety_spec().with_axis("monitors", ("all",)),
        name="safety-monitored",
        description=(
            "the §5.3 safety matrix with all runtime invariant monitors "
            "enabled: online 1SR, view synchrony, primary component and "
            "GCS ordering checks over every fault-load"
        ),
    )


#: campaign name -> spec; ``run``/``list``/``describe``/``export`` and
#: the figure suite resolve campaigns here.
CAMPAIGNS: Dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        _smoke_spec(),
        _fig5_spec(),
        _fig7_spec(),
        _recovery_spec(),
        _scale_out_spec(),
        _safety_spec(),
        _safety_monitored_spec(),
    )
}


def get_campaign(name: str) -> CampaignSpec:
    """The spec for ``name``; ValueError names the options."""
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r} "
            f"(available: {', '.join(available_campaigns())})"
        ) from None


def available_campaigns() -> Tuple[str, ...]:
    """Campaign names, sorted."""
    return tuple(sorted(CAMPAIGNS))
