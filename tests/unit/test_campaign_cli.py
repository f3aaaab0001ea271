"""Unit tests for the subcommand CLI (``python -m repro.runner``).

``run`` invocations here are shrunk hard (--set clients=8,
--transactions 60) so the real execution path — expansion, pool,
artifact store, manifest provenance — stays fast.
"""

import json

import pytest

from repro.campaigns import CampaignSpec, get_campaign
from repro.runner.__main__ import main


class TestList:
    def test_lists_every_registered_campaign(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "fig5", "fig7", "recovery", "safety"):
            assert name in out


class TestDescribe:
    def test_shows_axes_and_cells(self, capsys):
        assert main(["describe", "recovery"]) == 0
        out = capsys.readouterr().out
        assert "crash-recover" in out and "partition-heal" in out
        assert "spec hash" in out
        assert get_campaign("recovery").spec_hash() in out

    def test_overrides_apply(self, capsys):
        assert main(["describe", "fig7", "--set", "fault=random"]) == 0
        out = capsys.readouterr().out
        assert "cells (1):" in out
        cells_section = out.split("cells (1):", 1)[1]
        assert "random" in cells_section and "bursty" not in cells_section

    def test_fixed_calibration_is_not_settable(self, capsys):
        """The §4.1 storage calibration is a constant, so setting it
        fails like any unknown field."""
        assert main(["describe", "fig7", "--set", "storage_concurrency=8"]) == 2
        assert "storage_concurrency" in capsys.readouterr().err

    def test_unknown_campaign_fails_cleanly(self, capsys):
        assert main(["describe", "no-such"]) == 2
        err = capsys.readouterr().err
        assert "unknown campaign" in err and "smoke" in err


class TestExport:
    def test_round_trips_through_from_dict(self, capsys):
        assert main(["export", "fig7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec_hash"] == get_campaign("fig7").spec_hash()
        assert CampaignSpec.from_dict(payload) == get_campaign("fig7")

    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        assert main(["export", "smoke", "-o", str(path)]) == 0
        assert CampaignSpec.from_dict(json.loads(path.read_text())) == (
            get_campaign("smoke")
        )


class TestRun:
    TINY = ["--set", "clients=8", "--transactions", "60", "--quiet"]

    def test_run_records_manifest_and_cell_hashes(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            ["run", "fig7", "--set", "fault=none", "--artifact-dir", str(store)]
            + self.TINY
        )
        assert code == 0
        assert "none" in capsys.readouterr().out
        manifest = json.loads((store / "campaign.json").read_text())
        spec = (
            get_campaign("fig7")
            .with_axis("fault", ("none",))
            .with_axis("clients", (8,))
            .with_axis("transactions", (60,))
        )
        assert manifest["campaign"] == "fig7"
        assert manifest["spec_hash"] == spec.spec_hash()
        assert CampaignSpec.from_dict(manifest["spec"]) == spec
        cells = [
            json.loads(p.read_text())
            for p in store.glob("*.json")
            if p.name != "campaign.json"
        ]
        assert cells
        assert all(c["spec_hash"] == spec.spec_hash() for c in cells)

    def test_run_from_spec_file_resumes_same_artifacts(self, tmp_path, capsys):
        """export -> run --spec is the file-driven path; an identical
        effective spec loads every cell from the store."""
        store = tmp_path / "store"
        spec_file = tmp_path / "fig7.json"
        args = ["--set", "fault=none", "--artifact-dir", str(store)] + self.TINY
        assert main(["export", "fig7", "-o", str(spec_file)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(spec_file)] + args) == 0
        first = capsys.readouterr().out
        assert "in-process" in first or "worker" in first
        assert main(["run", "--spec", str(spec_file)] + args) == 0
        second = capsys.readouterr().out
        assert "artifact" in second

    def test_zero_transactions_errors_instead_of_silent_default(self, capsys):
        """The falsy-zero regression: ``--transactions 0`` used to be
        swallowed by ``args.transactions or scaled_transactions()``."""
        code = main(["run", "fig7", "--transactions", "0", "--quiet"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_workers_below_one_is_a_usage_error(self, workers, capsys):
        """``--workers 0`` used to run sequentially without a word;
        ``REPRO_WORKERS=0`` warns and clamps, the flag is refused."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "smoke", "--workers", workers, "--quiet"])
        assert exc.value.code == 2
        assert f"argument --workers: '{workers}' is not a positive integer" in (
            capsys.readouterr().err
        )

    def test_name_and_spec_are_mutually_exclusive(self, tmp_path, capsys):
        spec_file = tmp_path / "s.json"
        spec_file.write_text(json.dumps(get_campaign("fig7").to_dict()))
        assert main(["run", "fig7", "--spec", str(spec_file), "--quiet"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_without_name_or_spec_fails_cleanly(self, capsys):
        assert main(["run", "--quiet"]) == 2
        assert "campaign name" in capsys.readouterr().err

    def test_bad_set_fails_cleanly(self, capsys):
        assert main(["run", "fig7", "--set", "clients", "--quiet"]) == 2
        assert "axis=value" in capsys.readouterr().err

    def test_run_breaking_interval_is_a_usage_error(self, capsys):
        """``probe_interval=0`` used to make the run loop forever."""
        assert main(["run", "smoke", "--set", "probe_interval=0", "--quiet"]) == 2
        assert "probe_interval must be positive" in capsys.readouterr().err


class TestReport:
    """The artifact -> report path (see also tests/unit/test_analysis.py)."""

    TINY = ["--set", "clients=8", "--transactions", "60", "--quiet"]

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("report-cli") / "store"
        args = ["run", "fig7", "--artifact-dir", str(store)] + self.TINY
        assert main(args) == 0
        return store

    def test_summary_bit_identical_to_resumed_run(self, store, capsys):
        """Acceptance: `report` reproduces the runner summary table
        bit-identically from the same artifact dir (a resumed --quiet
        run prints exactly the summary, every cell src=artifact)."""
        args = ["run", "fig7", "--artifact-dir", str(store)] + self.TINY
        assert main(args) == 0
        resumed = capsys.readouterr().out
        assert "artifact" in resumed
        assert main(["report", str(store)]) == 0
        assert capsys.readouterr().out == resumed

    def test_figure_fig5a_matches_legacy_series_format(
        self, tmp_path, capsys
    ):
        """Acceptance: --figure fig5a reproduces the pre-PR
        _series/_print_series output from the same artifact dir."""
        store = tmp_path / "fig5-store"
        spec = CampaignSpec(
            name="fig5-slice",
            description="two systems x two client levels",
            kind="performance",
            label="{system} c{clients}",
            axes=[
                ("system", (("1 CPU", 1, 1), ("3 Sites", 3, 1))),
                ("clients", (8, 12)),
            ],
            template={"transactions": 60, "seed": 3},
        )
        spec_file = tmp_path / "fig5-slice.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        assert main(
            ["run", "--spec", str(spec_file),
             "--artifact-dir", str(store), "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(store), "--figure", "fig5a"]) == 0
        out = capsys.readouterr().out

        # the legacy formatter, verbatim from the pre-PR benchmark helpers
        from repro.analysis import ResultSet

        rs = ResultSet.from_artifacts(store)
        systems, clients_levels = ("1 CPU", "3 Sites"), (8, 12)
        series = {
            system: [
                rs.select(system=system, clients=c).cells[0].value("throughput_tpm")
                for c in clients_levels
            ]
            for system in systems
        }
        headers = ("clients",) + systems
        rows = [
            (c,) + tuple("{:.1f}".format(series[s][i]) for s in systems)
            for i, c in enumerate(clients_levels)
        ]
        widths = [
            max(len(str(h)), max(len(str(r[i])) for r in rows))
            for i, h in enumerate(headers)
        ]
        legacy = ["", "=== Figure 5(a): throughput (committed tpm) ==="]
        legacy.append(
            "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
        )
        for row in rows:
            legacy.append(
                "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
            )
        assert out == "\n".join(legacy) + "\n"

    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("report-smoke") / "store"
        args = ["run", "smoke", "--transactions", "120", "--quiet"]
        assert main(args + ["--artifact-dir", str(store)]) == 0
        return store

    def test_json_payload_schema(self, store, smoke, capsys):
        assert main(["report", str(store), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "fig7"
        assert payload["spec_hash"]
        assert payload["missing"] == []
        for expected in ("throughput_tpm", "mean_latency_ms", "abort_rate",
                         "cpu_total", "net_kbps", "time_to_rejoin"):
            assert expected in payload["metrics"]
        assert len(payload["cells"]) == 3  # none / random / bursty
        for cell in payload["cells"]:
            assert set(cell["metrics"]) == set(payload["metrics"])
            assert cell["axes"]["fault"] in cell["label"]
            assert cell["axes"]["clients"] == 8
            assert (cell["status"], cell["source"]) == ("ok", "artifact")
        # a rejoin survives the artifact -> report path
        assert main(["report", str(smoke), "--format", "json"]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        recovery = [c for c in cells if "recovery" in c["label"]]
        assert recovery
        assert all(c["metrics"]["time_to_rejoin"] is not None for c in recovery)

    def test_compare_and_by_views(self, store, capsys):
        assert main(
            ["report", str(store), "--metric", "throughput_tpm",
             "--by", "fault"]
        ) == 0
        out = capsys.readouterr().out
        assert "fault" in out and "throughput_tpm" in out
        assert main(
            ["report", str(store), "--metric", "abort_rate",
             "--compare", "fault=none,random"]
        ) == 0
        out = capsys.readouterr().out
        assert "abort_rate base" in out

    def test_unknown_target_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        assert main(["report", "no-such-place"]) == 2
        assert "cannot locate" in capsys.readouterr().err

    def test_campaign_name_resolves_under_artifact_dir(
        self, store, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(store.parent))
        assert main(["report", store.name, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["campaign"] == "fig7"


class TestRemovedForms:
    """The pre-subcommand flag CLI, the bare-invocation ``smoke`` default
    and the ``perf`` subcommand are gone: argparse's usage error, not a
    silent translation."""

    @pytest.mark.parametrize(
        "argv", [[], ["--grid", "smoke"], ["perf"]], ids=["bare", "grid", "perf"]
    )
    def test_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: python -m repro.runner" in capsys.readouterr().err


class TestProtocolSugar:
    def test_protocol_all_widens_the_axis(self, capsys):
        from repro.protocols import available_protocols

        assert main(["describe", "fig7", "--protocol", "all"]) == 0
        out = capsys.readouterr().out
        for protocol in available_protocols():
            assert f"{protocol} none" in out

    def test_bad_protocol_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig7", "--protocol", "meteor"])
