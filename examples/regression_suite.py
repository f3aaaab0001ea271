#!/usr/bin/env python
"""Automated regression testing (paper §7).

"The resulting system has also been put to use for automated regression
tests ... the ability to autonomously run a set of realistic load and
fault scenarios and automatically check for performance or reliability
regressions has proved invaluable."

This demo declares its scenario matrix as a campaign spec — a fault-free
replicated cluster and a loss-injected one, i.e. one ``fault`` axis —
builds a ``RegressionSuite`` straight from it with
``RegressionSuite.from_campaign``, records baselines, then re-checks
them — clean by construction, since the cost-model clock makes runs
deterministic — and finally shows a doctored baseline being caught as a
regression.

The suite sweeps its scenarios through the campaign runner: set
``REPRO_WORKERS=2`` to record and check both scenarios in parallel
worker processes; determinism makes the comparison identical.

Run:  python examples/regression_suite.py
"""

import json
import tempfile
from pathlib import Path

from repro import CampaignSpec
from repro.analysis import format_table
from repro.core.regression import RegressionSuite
from repro.runner import resolve_workers

SPEC = CampaignSpec(
    name="regression-demo",
    description="a replicated cluster, fault-free and under 5% random loss",
    kind="fault",
    label="loss={fault}",
    axes=[("fault", ("none", "random"))],
    template={"sites": 3, "clients": 60, "transactions": 300, "seed": 11},
)


def main() -> None:
    suite = RegressionSuite.from_campaign(SPEC, workers=resolve_workers())

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "baselines.json"

        print("recording baselines ...")
        baselines = suite.record(path)
        metric_names = sorted(next(iter(baselines.values())))
        print(format_table(
            "recorded baselines",
            ("scenario",) + tuple(metric_names),
            [
                (name,)
                + tuple(
                    "null" if values[m] is None else f"{values[m]:.4g}"
                    for m in metric_names
                )
                for name, values in sorted(baselines.items())
            ],
        ))

        print("\nre-checking the unchanged tree ...")
        findings = suite.check(path)
        print(f"  findings: {findings or 'none — deterministic replay'}")

        print("\ninjecting a fake 2x-throughput baseline (simulating a "
              "code change that halved throughput) ...")
        data = json.loads(path.read_text())
        data["loss=none"]["throughput_tpm"] *= 2.0
        path.write_text(json.dumps(data))
        findings = suite.check(path)
        for finding in findings:
            print(f"  {finding}")
        assert findings, "regression not detected?"
        print("\nregression caught — this is the §7 workflow")


if __name__ == "__main__":
    main()
