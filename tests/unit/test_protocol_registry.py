"""Unit: the replication-protocol table and its scenario threading."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import make_stub_site

from repro.core.experiment import Scenario, ScenarioConfig
from repro.protocols import base as protocol_base
from repro.protocols import (
    PROTOCOLS,
    ProtocolContext,
    ProtocolGroup,
    available_protocols,
    build_protocol,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_protocols()
        assert "dbsm" in names
        assert "primary-copy" in names
        assert names == tuple(sorted(names))

    def test_builders_resolve(self):
        for name in available_protocols():
            assert callable(PROTOCOLS[name])

    def test_unknown_protocol_is_a_value_error_naming_the_options(self):
        # The name is looked up before the context is touched.
        with pytest.raises(ValueError, match="dbsm"):
            build_protocol("three-phase-commit", None)

    def test_table_names_are_cli_names(self):
        """Every key is a usable ``--protocol`` value: a non-empty,
        lower-case word, and never ``"all"``, the sentinel that expands
        to every protocol."""
        for name in PROTOCOLS:
            assert isinstance(name, str) and name, name
            assert name == name.lower() and not any(c.isspace() for c in name)
            assert name != "all"

    def test_run_protocol_choices_are_the_table_plus_all(self):
        from repro.runner.__main__ import _build_parser

        parser = _build_parser()
        for name in available_protocols() + ("all",):
            args = parser.parse_args(["run", "smoke", "--protocol", name])
            assert args.protocol == name
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "smoke", "--protocol", "no-such-protocol"])

    def test_table_entry_is_listed_built_and_group_registered(self, monkeypatch):
        """Adding a protocol is one ``PROTOCOLS`` entry: the name is then
        offered by ``available_protocols`` and ``build_protocol`` builds
        it and registers the instance in the site's protocol group."""
        instance = object()
        monkeypatch.setitem(PROTOCOLS, "test-noop", lambda ctx: instance)
        assert "test-noop" in available_protocols()
        ctx = ProtocolContext(
            site_id=1,
            server=None,
            gcs=None,
            config=None,
            group=ProtocolGroup(),
        )
        assert build_protocol("test-noop", ctx) is instance
        assert ctx.group.instance(1) is instance

    @pytest.mark.parametrize("name", available_protocols())
    def test_termination_core_is_inherited_not_reforked(self, name):
        """The plumbing lives once, in ``ReplicationProtocol``; a
        protocol class that defines its own copy has forked it (extend
        ``_on_applied`` / ``reset_protocol_state`` via ``super()``)."""
        cls = type(make_stub_site(name))
        assert issubclass(cls, protocol_base.ReplicationProtocol)
        forked = {
            "_resolve_local",
            "_apply_remote",
            "_apply_backup",
            "applied_watermark",
        } & set(vars(cls))
        assert not forked, f"{cls.__name__} re-implements {sorted(forked)}"

    def test_group_directory(self):
        group = ProtocolGroup()
        sentinel = object()
        group.register(2, sentinel)
        group.register(0, object())
        assert group.instance(2) is sentinel
        assert group.site_ids() == (0, 2)


class TestConfigThreading:
    def test_default_protocol_is_dbsm(self):
        assert ScenarioConfig().protocol == "dbsm"

    def test_round_trip(self):
        config = ScenarioConfig(sites=3, protocol="primary-copy")
        data = config.to_dict()
        assert data["protocol"] == "primary-copy"
        assert ScenarioConfig.from_dict(data) == config

    def test_from_dict_without_protocol_defaults_to_dbsm(self):
        data = ScenarioConfig(sites=3).to_dict()
        del data["protocol"]
        assert ScenarioConfig.from_dict(data).protocol == "dbsm"

    def test_protocol_changes_artifact_match_key(self):
        a = ScenarioConfig(sites=3, protocol="dbsm").to_dict()
        b = ScenarioConfig(sites=3, protocol="primary-copy").to_dict()
        assert a != b

    def test_empty_protocol_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(protocol="")
        with pytest.raises(ValueError):
            ScenarioConfig(protocol=None)

    def test_unknown_protocol_fails_at_scenario_build(self):
        config = ScenarioConfig(sites=3, protocol="no-such-protocol")
        with pytest.raises(ValueError, match="no-such-protocol"):
            Scenario(config)

    def test_centralized_config_ignores_protocol(self):
        # sites=1 builds no replication at all, whatever the name says
        scenario = Scenario(
            ScenarioConfig(sites=1, clients=5, protocol="no-such-protocol")
        )
        assert scenario.sites[0].replica is None


def _smoke_cells():
    """The smoke campaign as CI runs it (``run smoke --protocol all``)."""
    from repro.campaigns import get_campaign

    return (
        get_campaign("smoke")
        .with_axis("protocol", available_protocols())
        .with_axis("transactions", (120,))
        .expand()
    )


class TestSmokeCoverage:
    def test_every_registered_protocol_has_a_smoke_cell(self):
        """CI's smoke campaign runs ``run smoke --protocol all``; a
        protocol registered without a smoke cell is a wiring bug.  The
        campaign's protocol axis enumerates the registry via
        ``--protocol all``, so this guards against the spec regressing
        to a hard-coded protocol list."""
        covered = {
            config.protocol for _, config in _smoke_cells() if config.sites > 1
        }
        missing = set(available_protocols()) - covered
        assert not missing, f"protocols without a smoke cell: {missing}"

    def test_ci_smoke_campaign_covers_all_protocols(self):
        """…and this guards the other half of the chain: the CI smoke
        steps must actually ask for every protocol (``--protocol all``),
        or a newly registered protocol silently loses its pool-path
        smoke coverage even though the campaign could provide it."""
        from pathlib import Path

        workflow = (
            Path(__file__).resolve().parents[2]
            / ".github"
            / "workflows"
            / "ci.yml"
        )
        smoke_lines = [
            line
            for line in workflow.read_text().splitlines()
            if "repro.runner" in line and ("run smoke" in line or "--spec" in line)
        ]
        assert smoke_lines, "CI no longer runs a smoke campaign"
        for line in smoke_lines:
            assert "--protocol all" in line, f"smoke step not 'all': {line}"
        assert any("--spec" in line for line in smoke_lines), (
            "CI no longer exercises the file-driven run --spec path"
        )

    def test_smoke_labels_are_unique(self):
        labels = [label for label, _ in _smoke_cells()]
        assert len(labels) == len(set(labels))

    def test_smoke_grid_includes_a_recovery_cell_per_protocol(self):
        """The CI smoke campaign must exercise the crash→recover rejoin
        path for every registered protocol (state transfer is protocol
        code; a protocol without the hook would only fail here)."""
        recovering = {
            config.protocol
            for _, config in _smoke_cells()
            if any(
                action == "recover"
                for plan in config.faults.values()
                for _, action in plan.actions
            )
        }
        missing = set(available_protocols()) - recovering
        assert not missing, f"protocols without a smoke recovery cell: {missing}"
