"""Docs-consistency check: README.md and ARCHITECTURE.md must keep up
with the code.  Fails when a registered replication protocol, a
registered campaign, a registered metric, a fault action, a cell
verdict, or a ``REPRO_*`` environment knob is missing from the docs —
the drift this PR-sized repo accumulates fastest.  It also guards the
protocol runtime interface: both runtimes implement all of it, and the
names of the deleted second simulated runtime stay gone; and the call
forms of deleted result statistics and CPU-profile objects stay gone.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.analysis import available_metric_families, available_metrics
from repro.campaigns import available_campaigns
from repro.core.csrt import SiteRuntime
from repro.core.faults import FAULT_ACTIONS
from repro.core.runtime_api import NativeProtocolRuntime, ProtocolRuntime
from repro.core.safety import VERDICTS
from repro.dashboard.server import ENDPOINTS as DASHBOARD_ENDPOINTS
from repro.monitors import available_monitors
from repro.protocols import available_protocols

#: Every documented metric name: plain metrics plus the ``base[class]``
#: spelling the parameterized families are documented under.
DOCUMENTED_METRICS = available_metrics() + tuple(
    f"{base}[class]" for base in available_metric_families()
)

REPO = Path(__file__).resolve().parent.parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")
ARCHITECTURE = (REPO / "ARCHITECTURE.md").read_text(encoding="utf-8")


def used_env_knobs():
    """Every REPRO_* knob referenced anywhere in the code that may read
    one: the package, the tests and the examples."""
    knobs = set()
    for tree in ("src", "tests", "examples"):
        for path in (REPO / tree).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            knobs.update(re.findall(r"REPRO_[A-Z_]+", text))
    return sorted(knobs)


def documented_env_knobs():
    """The knob column of the README's consolidated knob table."""
    return re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", README, re.MULTILINE)


class TestReadme:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_registered_protocols_documented(self, protocol):
        assert f"`{protocol}`" in README, (
            f"protocol {protocol!r} is registered but missing from README.md"
        )

    @pytest.mark.parametrize("action", FAULT_ACTIONS)
    def test_fault_actions_in_taxonomy_table(self, action):
        assert f"| `{action}` |" in README, (
            f"fault action {action!r} missing from the README fault-model table"
        )

    def test_all_env_knobs_in_consolidated_table(self):
        for knob in used_env_knobs():
            assert f"| `{knob}` |" in README, (
                f"{knob} is used in the code but missing from the README knob table"
            )

    def test_every_documented_knob_is_read(self):
        """The reverse check: a deleted knob's row cannot linger."""
        documented = documented_env_knobs()
        assert documented, "README knob table not found"
        used = used_env_knobs()
        for knob in documented:
            assert knob in used, (
                f"{knob} is in the README knob table but no code reads it"
            )

    def test_architecture_doc_referenced(self):
        assert "ARCHITECTURE.md" in README

    @pytest.mark.parametrize("campaign", available_campaigns())
    def test_registered_campaigns_in_table(self, campaign):
        """The README "Running campaigns" table must not drift from the
        campaign registry."""
        assert f"| `{campaign}` |" in README, (
            f"campaign {campaign!r} is registered but missing from the "
            "README campaign table"
        )

    def test_subcommand_cli_documented(self):
        for subcommand in ("run", "list", "describe", "export", "report",
                           "serve"):
            assert f"repro.runner {subcommand}" in README, (
                f"CLI subcommand {subcommand!r} missing from README.md"
            )

    @pytest.mark.parametrize("endpoint", sorted(DASHBOARD_ENDPOINTS))
    def test_dashboard_endpoints_in_table(self, endpoint):
        """The README "Watching campaigns live" endpoint table must not
        drift from the server's routing table."""
        assert f"`{endpoint}`" in README, (
            f"dashboard endpoint {endpoint!r} missing from README.md"
        )

    @pytest.mark.parametrize("metric", DOCUMENTED_METRICS)
    def test_registered_metrics_in_table(self, metric):
        """The README "Analyzing results" metric table must not drift
        from the metric registry."""
        assert f"| `{metric}` |" in README, (
            f"metric {metric!r} is registered but missing from the "
            "README metric table"
        )

    @pytest.mark.parametrize("monitor", available_monitors())
    def test_registered_monitors_in_table(self, monitor):
        """The README "Runtime invariant checking" table must not
        drift from the monitor registry."""
        assert f"| `{monitor}` |" in README, (
            f"monitor {monitor!r} is registered but missing from the "
            "README monitor table"
        )

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_verdicts_in_table(self, verdict):
        """The README "Verdicts and exit codes" table must not drift
        from the verdicts a cell can get."""
        assert f"| `{verdict}` |" in README, (
            f"verdict {verdict!r} missing from the README verdict table"
        )


class TestArchitecture:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_registered_protocols_in_table(self, protocol):
        assert f"| `{protocol}` |" in ARCHITECTURE, (
            f"protocol {protocol!r} missing from the ARCHITECTURE protocol table"
        )

    @pytest.mark.parametrize("action", FAULT_ACTIONS)
    def test_fault_actions_in_table(self, action):
        assert f"| `{action}` |" in ARCHITECTURE, (
            f"fault action {action!r} missing from the ARCHITECTURE action table"
        )

    @pytest.mark.parametrize("campaign", available_campaigns())
    def test_registered_campaigns_in_table(self, campaign):
        assert f"| `{campaign}` |" in ARCHITECTURE, (
            f"campaign {campaign!r} missing from the ARCHITECTURE "
            "campaign table"
        )

    @pytest.mark.parametrize("metric", DOCUMENTED_METRICS)
    def test_registered_metrics_in_table(self, metric):
        assert f"| `{metric}` |" in ARCHITECTURE, (
            f"metric {metric!r} missing from the ARCHITECTURE metric table"
        )

    @pytest.mark.parametrize("monitor", available_monitors())
    def test_registered_monitors_in_table(self, monitor):
        assert f"| `{monitor}` |" in ARCHITECTURE, (
            f"monitor {monitor!r} missing from the ARCHITECTURE "
            "monitor table"
        )

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_verdicts_in_table(self, verdict):
        assert f"| `{verdict}` |" in ARCHITECTURE, (
            f"verdict {verdict!r} missing from the ARCHITECTURE verdict table"
        )

    @pytest.mark.parametrize("endpoint", sorted(DASHBOARD_ENDPOINTS))
    def test_dashboard_endpoints_in_table(self, endpoint):
        """The ARCHITECTURE dashboard endpoint table must not drift
        from the server's routing table."""
        assert f"`{endpoint}`" in ARCHITECTURE, (
            f"dashboard endpoint {endpoint!r} missing from ARCHITECTURE.md"
        )

    def test_lifecycle_walkthrough_present(self):
        for phase in ("crash", "partition", "heal", "state transfer", "live"):
            assert phase in ARCHITECTURE.lower()

    def test_every_package_in_layer_map(self):
        packages = sorted(
            p.name
            for p in (REPO / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        )
        for package in packages:
            assert f"{package}/" in ARCHITECTURE, (
                f"package {package!r} missing from the ARCHITECTURE layer map"
            )


#: Public methods of the protocol runtime interface.
RUNTIME_METHODS = sorted(
    name
    for name, member in vars(ProtocolRuntime).items()
    if not name.startswith("_") and inspect.isfunction(member)
)

#: Names of the simulated runtime's old second face: the forwarding
#: class, its ``rt_``-prefixed services and the hand-installed send hook.
RETIRED_RUNTIME_NAMES = (
    "rt_now",
    "rt_schedule",
    "rt_send",
    "rt_charge",
    "SimulatedProtocolRuntime",
    "network_send",
)


class TestProtocolRuntime:
    @pytest.mark.parametrize("runtime", [SiteRuntime, NativeProtocolRuntime])
    @pytest.mark.parametrize("method", RUNTIME_METHODS)
    def test_runtime_defines_each_interface_method(self, runtime, method):
        """Defined on the class itself, or inherited only where the base
        is not a ``NotImplementedError`` stub (``charge``'s no-op)."""
        if method in vars(runtime):
            return
        inherited = inspect.getsource(getattr(ProtocolRuntime, method))
        assert "NotImplementedError" not in inherited, (
            f"{runtime.__name__} inherits the stub of ProtocolRuntime.{method}"
        )

    @pytest.mark.parametrize("name", RETIRED_RUNTIME_NAMES)
    def test_retired_runtime_names_are_gone(self, name):
        found = places_matching(rf"\b{name}\b")
        assert found == [], f"{name!r} still appears in {found}"


#: Call forms of deleted APIs: the statistics results and the collector
#: used to compute beside the metric table (every reported number is a
#: metric of ``repro.analysis.metrics``), the CPU-profile objects the
#: §4.1 constants replaced, the protocol runtime's unused RNG, and the
#: slots ``repro.scenario_result/1`` kept in every stored config.
RETIRED_CALL_FORMS = (
    r"\.throughput_tpm\(",
    r"\.mean_latency\(",
    r"\.abort_rate\(",
    r"\.cpu_usage\(",
    r"\.disk_usage\(",
    r"\.network_kbps\(",
    r"\.latencies\(",
    r"\.classes\(",
    r"\babort_rate_table\b",
    r"\bcertification_latencies\b",
    r"\bdefault_profiles\b",
    r"\bProfileSet\b",
    r"\bLogNormalProfile\b",
    r"\.rng\(\)",
    r"\b_CALIBRATION\b",
    r"\b_STORED_AFTER\b",
    r"\"profiles\"",
    r"\b(crash|recover|partition|heal)_at\b",
    r"\bfragment_aware\b",
    r"\bcache_hit_ratio\b",
    r"\bendpoint_ids\b",
)


def places_matching(pattern):
    """README.md, ARCHITECTURE.md and the ``src/`` files ``pattern``
    occurs in, sorted."""
    pattern = re.compile(pattern)
    texts = {"README.md": README, "ARCHITECTURE.md": ARCHITECTURE}
    for path in (REPO / "src").rglob("*.py"):
        texts[str(path.relative_to(REPO))] = path.read_text(encoding="utf-8")
    return sorted(where for where, text in texts.items() if pattern.search(text))


@pytest.mark.parametrize("form", RETIRED_CALL_FORMS)
def test_retired_call_forms_are_gone(form):
    found = places_matching(form)
    assert found == [], f"{form!r} still appears in {found}"
