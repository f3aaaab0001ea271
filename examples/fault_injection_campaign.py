#!/usr/bin/env python
"""Fault-injection campaign: the §5.3 experiment end to end.

Runs the registered ``safety`` campaign — the paper's five fault types
(clock drift, scheduling latency, random loss, bursty loss, crash of a
member / of the sequencer) plus the recovery fault-loads
(crash→recover and partition→heal, for an ordinary member and for the
sequencer) — and for each cell verifies the safety condition (all
operational sites committed exactly the same transaction sequence, with
rejoined replicas bit-identical to the survivors) and reports the
performance impact and recovery metrics through :mod:`repro.analysis`
(one metrics table over the ``fault`` axis; recovery numbers are the
``time_to_rejoin`` / ``snapshot_bytes`` / ``backlog_replayed`` /
``orphaned_commits`` registered metrics, NaN — rendered ``–`` — for
cells without a completed rejoin).

The whole matrix is one named campaign spec, so the identical run is
also available as ``python -m repro.runner run safety --set
transactions=600`` — and this script only *slices* the registered spec;
with ``REPRO_ARTIFACT_DIR`` set, ``python -m repro.runner report
faults`` re-renders the stored results any time.  It runs the DBSM;
the matrix under another protocol is ``python -m repro.runner run
safety --protocol primary-copy``.  Knobs (the same ones every entry
point honours — see README "Fault model & recovery"):
``REPRO_WORKERS=N`` spreads cells across N worker processes, and
``REPRO_ARTIFACT_DIR`` makes the campaign resumable (a second
invocation loads completed cells from ``$REPRO_ARTIFACT_DIR/faults/``,
where the spec hash is also recorded for provenance).

Run:  python examples/fault_injection_campaign.py
"""

from repro import get_campaign
from repro.analysis import ResultSet, render_text
from repro.runner import resolve_workers, run_campaign

IMPACT_METRICS = ("records", "throughput_tpm", "cert_p50_ms", "cert_p99_ms")
RECOVERY_METRICS = (
    "time_to_rejoin",
    "snapshot_bytes",
    "backlog_replayed",
    "orphaned_commits",
)


def main() -> None:
    spec = get_campaign("safety").with_axis("transactions", (600,))
    workers = resolve_workers()
    campaign = run_campaign(
        spec.expand(),
        workers=workers,
        campaign="faults",
        progress=workers > 1,
        manifest=spec.manifest(),
    )
    print(f"protocol: dbsm  (spec hash {spec.spec_hash()})")
    commit_counts = {}
    for name, result in campaign.pairs():
        commit_counts[name] = result.check_safety()  # raises on divergence
    rs = ResultSet.from_campaign(campaign, spec=spec)
    print(render_text(rs.table(IMPACT_METRICS), title="fault impact"))
    print("\ncommits per operational site (identical sequences, §5.3):")
    for name, counts in commit_counts.items():
        sites_col = " ".join(str(v) for v in counts.values())
        print(f"  {name:<30s} {sites_col}")
    print(
        render_text(
            rs.table(RECOVERY_METRICS),
            title="recovery fault-loads (leave → state transfer → live)",
        )
    )
    print("\nall campaigns passed the safety check: operational sites "
          "committed identical sequences; crashed sites hold a prefix; "
          "rejoined sites are bit-identical to the survivors")


if __name__ == "__main__":
    main()
