"""Integration: determinism and the measured-clock mode.

Determinism under the cost-model clock is what the regression harness
(§7) builds on; the wall-clock (measured) mode is the paper's actual
profiling mechanism and must produce statistically similar results,
just not bit-identical ones.
"""

import pytest

from repro.analysis import metric_value
from repro.core.csrt import MEASURED
from repro.core.experiment import Scenario, ScenarioConfig
from repro.runner import run_campaign


def config_for(seed=3, clock_mode="modeled", transactions=250):
    return ScenarioConfig(
        sites=3,
        cpus_per_site=1,
        clients=45,
        transactions=transactions,
        seed=seed,
        clock_mode=clock_mode,
    )


def run(seed=3, clock_mode="modeled", transactions=250):
    return Scenario(config_for(seed, clock_mode, transactions)).run()


class TestDeterminism:
    def test_identical_runs_bit_for_bit(self):
        # transaction ids come from a process-global counter, so two runs
        # in one process use different id ranges; everything observable —
        # timings, outcomes, commit order — must be identical.
        a = run(seed=3)
        b = run(seed=3)
        records_a = [(r.tx_class, r.submit_time, r.end_time, r.outcome)
                     for r in a.metrics.records]
        records_b = [(r.tx_class, r.submit_time, r.end_time, r.outcome)
                     for r in b.metrics.records]
        assert records_a == records_b
        logs_a = [[seq for seq, _ in log.sequence()] for log in a.commit_logs()]
        logs_b = [[seq for seq, _ in log.sequence()] for log in b.commit_logs()]
        assert logs_a == logs_b
        assert a.sim_time == b.sim_time

    def test_different_seeds_differ(self):
        a = run(seed=3)
        b = run(seed=4)
        assert metric_value(a, "throughput_tpm") != metric_value(
            b, "throughput_tpm"
        )

    def test_sequential_workers1_and_pool_identical(self, tmp_path):
        """The same config + seed yields identical metrics whether run
        directly, through the runner in-process (workers=1), in a
        worker process pool, or resumed from an artifact — the property
        every parallel campaign rests on."""
        config = config_for(seed=3, transactions=150)
        grid = [("cell", config)]
        direct = Scenario(config).run()
        in_process, = run_campaign(grid, workers=1, artifact_dir=tmp_path).cells
        pooled, = run_campaign(grid, workers=2).cells
        resumed, = run_campaign(grid, workers=1, artifact_dir=tmp_path).cells
        expect = self._observables(direct)
        for cell, source in (
            (in_process, "in-process"),
            (pooled, "worker"),
            (resumed, "artifact"),
        ):
            assert cell.source == source
            assert self._observables(cell.result) == expect, source

    @staticmethod
    def _observables(result):
        return {
            "records": [
                (r.tx_class, r.site, r.submit_time, r.end_time, r.outcome,
                 r.certification_latency)
                for r in result.metrics.records
            ],
            "commit_seqs": [
                [seq for seq, _ in log.sequence()]
                for log in result.commit_logs()
            ],
            "sim_time": result.sim_time,
            **{
                name: metric_value(result, name)
                for name in (
                    "throughput_tpm", "abort_rate", "cpu_total",
                    "cpu_protocol", "net_kbps",
                )
            },
            "safety": result.check_safety(),
        }


class TestMeasuredClock:
    def test_measured_mode_runs_and_stays_safe(self):
        """The paper's actual mechanism: real protocol code timed with
        the host's monotonic clock.  Nondeterministic, so assertions are
        behavioural only."""
        scenario = Scenario(
            config_for(seed=5, clock_mode=MEASURED, transactions=150)
        )
        result = scenario.run()
        assert len(result.metrics.records) >= 150
        result.check_safety()
        # real jobs consumed *measured* CPU time
        assert metric_value(result, "cpu_protocol") >= 0.0
        total_real = sum(
            cpu.busy_time["real"]
            for site in scenario.sites
            for cpu in site.cpus.cpus
        )
        assert total_real > 0.0

    def test_measured_mode_metrics_in_same_ballpark(self):
        modeled = run(seed=6, transactions=150)
        measured = run(seed=6, clock_mode=MEASURED, transactions=150)
        # throughput is think-time-dominated: the two clock modes agree
        assert metric_value(measured, "throughput_tpm") == pytest.approx(
            metric_value(modeled, "throughput_tpm"), rel=0.25
        )
