"""Unit tests for the declarative campaign-spec layer.

Covers the satellite checklist: expansion determinism (same spec →
same labels/configs, including across processes), JSON round-trip
equality, axis-override parsing, composition helpers, and — most
importantly — **legacy parity**: each registered built-in campaign must
expand to exactly the cells the removed hard-coded ``_*_grid`` builder
functions produced, labels and config encodings alike, for every
protocol selection the old ``--protocol`` flag allowed.  The builders
themselves are gone; ``tests/golden/spec_hashes.json`` holds what they
produced, recorded while they still ran beside the registered specs
(``expansion_sha256`` re-baselined when the stored config encoding
changed; labels, cell counts and spec hashes never were).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns import (
    CAMPAIGNS,
    Axis,
    CampaignSpec,
    CampaignSpecError,
    available_campaigns,
    get_campaign,
    parse_axis_override,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``"<built-in> <protocol>+<protocol>"`` -> the sliced spec's
#: ``spec_hash``, its cell count and the sha256 of the canonical JSON of
#: its expansion ``[[label, config.to_dict()], ...]``.
SPEC_HASHES = json.loads(
    (Path(__file__).resolve().parents[1] / "golden" / "spec_hashes.json").read_text()
)
LEGACY_CAMPAIGNS = ("fig5", "fig7", "recovery", "smoke")

PROTOCOL_SELECTIONS = (
    ("dbsm",),  # the historical default: protocol-free labels
    ("dbsm", "primary-copy"),  # --protocol all
    ("primary-copy",),  # a single non-default protocol names itself
)


class TestLegacyParity:
    @pytest.mark.parametrize("name", LEGACY_CAMPAIGNS)
    @pytest.mark.parametrize("protocols", PROTOCOL_SELECTIONS)
    def test_registered_spec_matches_legacy_builder(self, name, protocols):
        """Cell-for-cell identity: labels AND config encodings, in
        order — so a directory's cells keep their file names."""
        pinned = SPEC_HASHES[f"{name} {'+'.join(protocols)}"]
        spec = (
            get_campaign(name)
            .with_axis("protocol", protocols)
            .with_axis("transactions", (120,))
        )
        cells = [[label, config.to_dict()] for label, config in spec.expand()]
        canonical = json.dumps(cells, sort_keys=True, separators=(",", ":"))
        assert spec.spec_hash() == pinned["spec_hash"]
        assert len(cells) == pinned["cells"]
        assert (
            hashlib.sha256(canonical.encode()).hexdigest()
            == pinned["expansion_sha256"]
        ), f"{name} {protocols}: a label or a config encoding changed"

    def test_all_legacy_grids_are_registered(self):
        assert set(LEGACY_CAMPAIGNS) <= set(available_campaigns())
        assert {key.split()[0] for key in SPEC_HASHES} == set(LEGACY_CAMPAIGNS)
        assert len(SPEC_HASHES) == len(LEGACY_CAMPAIGNS) * len(PROTOCOL_SELECTIONS)



class TestDeterminism:
    def test_expansion_is_stable_in_process(self):
        for name in available_campaigns():
            spec = get_campaign(name)
            first = [(l, c.to_dict()) for l, c in spec.expand()]
            second = [(l, c.to_dict()) for l, c in spec.expand()]
            assert first == second

    def test_expansion_identical_across_processes(self, monkeypatch):
        """Same spec → same labels, configs and hash in a fresh
        interpreter (no ordering or hashing process-dependence)."""
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        script = (
            "import json\n"
            "from repro.campaigns import available_campaigns, get_campaign\n"
            "out = {}\n"
            "for name in available_campaigns():\n"
            "    spec = get_campaign(name)\n"
            "    out[name] = {\n"
            "        'hash': spec.spec_hash(),\n"
            "        'cells': [[l, c.to_dict()] for l, c in spec.expand()],\n"
            "    }\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": str(SRC),
                    "PYTHONHASHSEED": "random",
                    # the child writes bytecode into the checkout only
                    # where this process would
                    **{k: v for k, v in os.environ.items()
                       if k == "PYTHONDONTWRITEBYTECODE"},
                },
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]
        here = {
            name: {
                "hash": get_campaign(name).spec_hash(),
                "cells": json.loads(
                    json.dumps(
                        [[l, c.to_dict()] for l, c in get_campaign(name).expand()]
                    )
                ),
            }
            for name in available_campaigns()
        }
        assert here == runs[0]


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(set(("smoke", "fig5", "fig7", "recovery", "safety"))))
    def test_registered_specs_round_trip(self, name):
        spec = get_campaign(name)
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()
        assert [
            (l, c.to_dict()) for l, c in again.expand()
        ] == [(l, c.to_dict()) for l, c in spec.expand()]

    def test_round_trip_survives_json_text(self):
        spec = get_campaign("smoke").with_axis("clients", (10, 20))
        text = json.dumps(spec.to_dict())
        assert CampaignSpec.from_dict(json.loads(text)) == spec

    def test_unknown_format_rejected(self):
        data = get_campaign("fig7").to_dict()
        data["format"] = "repro.campaign_spec/99"
        with pytest.raises(CampaignSpecError, match="unsupported"):
            CampaignSpec.from_dict(data)

    def test_unknown_key_rejected(self):
        """A typo is refused, not ignored: ``"axis"`` for ``"axes"``
        would otherwise expand to one cell."""
        data = {"name": "typo", "kind": "performance", "label": "x"}
        data["axis"] = [["seed", [1, 2]]]
        with pytest.raises(CampaignSpecError, match=r"spec keys \['axis'\]"):
            CampaignSpec.from_dict(data)
        parent = get_campaign("smoke").to_dict()
        parent["children"][0]["lable"] = "x"
        with pytest.raises(CampaignSpecError, match="lable"):
            CampaignSpec.from_dict(parent)

    def test_optional_keys_stay_optional(self):
        spec = CampaignSpec.from_dict({"name": "bare", "kind": "performance", "label": "x"})
        assert [label for label, _ in spec.expand()] == ["x"]

    @pytest.mark.parametrize(
        "path",
        sorted((SRC.parent / "bench" / "workloads").glob("*.json")),
        ids=lambda path: path.stem,
    )
    def test_benchmark_workloads_load(self, path):
        data = json.loads(path.read_text())
        assert CampaignSpec.from_dict(data).to_dict() == data

    def test_hash_tracks_content(self):
        spec = get_campaign("fig7")
        widened = spec.with_axis("seed", (42, 43))
        assert widened.spec_hash() != spec.spec_hash()


class TestComposition:
    def test_with_axis_replaces_everywhere(self):
        spec = get_campaign("smoke").with_axis("clients", (10,))
        clients = {c.clients for _, c in spec.expand()}
        assert clients == {10}

    def test_with_axis_adds_new_root_sweep_with_label_suffix(self):
        spec = get_campaign("fig7").with_axis("rate", (0.02, 0.05))
        cells = spec.expand()
        assert len(cells) == 6  # 3 fault kinds x 2 rates
        assert any(label.endswith("rate=0.02") for label, _ in cells)
        rates = {
            plan.random_loss_rate
            for _, config in cells
            for plan in config.faults.values()
            if plan.random_loss_rate
        }
        assert rates == {0.02, 0.05}

    def test_with_axis_supersedes_template_binding(self):
        spec = get_campaign("recovery").with_axis("clients", (30, 60))
        assert {c.clients for _, c in spec.expand()} == {30, 60}

    def test_with_axis_covers_every_cell_of_a_merged_grid(self):
        """An override must never apply to only part of a composed
        grid: smoke declares clients as an axis while recovery binds it
        via template — both must end up at the override value."""
        merged = CampaignSpec(
            name="smoke+recovery",
            children=(get_campaign("smoke"), get_campaign("recovery")),
        )
        sliced = merged.with_axis("clients", (8,))
        assert {c.clients for _, c in sliced.expand()} == {8}

    def test_with_axis_leaves_unrelated_cells_alone(self):
        """A protocol override must not cross the protocol-free
        centralized baselines (the legacy --protocol semantics)."""
        spec = get_campaign("fig5").with_axis(
            "protocol", ("dbsm", "primary-copy")
        )
        centralized = [l for l, c in spec.expand() if c.sites == 1]
        # one cell per (system, clients) — not duplicated per protocol
        assert len(centralized) == len(set(centralized)) == 15

    def test_with_axis_slices_values_in_order(self):
        """Sweeping an axis over a subset of its values is the slice of
        the full grid: the same cells, labels and configs, in order."""
        fig5 = get_campaign("fig5")
        kept = (100, 1000, 2000)
        sliced = fig5.with_axis("clients", kept).expand()
        expected = [(l, c) for l, c in fig5.expand() if c.clients in kept]
        assert [l for l, _ in sliced] == [l for l, _ in expected]
        assert [c.to_dict() for _, c in sliced] == [
            c.to_dict() for _, c in expected
        ]

    def test_with_axis_to_nothing_rejected(self):
        with pytest.raises(CampaignSpecError, match="at least one value"):
            get_campaign("fig5").with_axis("clients", ())

    def test_children_concatenate_in_order(self):
        merged = CampaignSpec(
            name="fig7+recovery",
            children=(get_campaign("fig7"), get_campaign("recovery")),
        )
        labels = [l for l, _ in merged.expand()]
        assert labels == (
            [l for l, _ in get_campaign("fig7").expand()]
            + [l for l, _ in get_campaign("recovery").expand()]
        )

    def test_duplicate_child_labels_rejected_at_expand(self):
        twice = CampaignSpec(
            name="twice", children=(get_campaign("fig7"), get_campaign("fig7"))
        )
        with pytest.raises(
            CampaignSpecError,
            match=r"duplicate labels: \['bursty', 'none', 'random'\]",
        ):
            twice.expand()

    def test_derived_specs_leave_the_original_untouched(self):
        spec = get_campaign("fig7")
        before = spec.to_dict()
        spec.with_axis("clients", (10,)).with_axis("fault", ("none",))
        assert spec.to_dict() == before


class TestLabels:
    def test_protocol_prefix_rule(self):
        """Empty iff the sweep is exactly the default protocol."""
        default_only = get_campaign("fig7").expand()
        assert [l for l, _ in default_only] == ["none", "random", "bursty"]
        single_other = (
            get_campaign("fig7").with_axis("protocol", ("primary-copy",)).expand()
        )
        assert all(l.startswith("primary-copy ") for l, _ in single_other)

    def test_duplicate_labels_rejected(self):
        spec = CampaignSpec(
            name="collide",
            kind="performance",
            label="cell",  # mentions no axis
            axes=[("seed", (1,)), ("clients", (10,))],
        )
        # single-valued axes: one cell, fine
        assert len(spec.expand()) == 1
        with pytest.raises(CampaignSpecError, match="duplicate"):
            # the auto-suffix covers swept axes, so force a real clash:
            CampaignSpec(name="twice", children=(spec, spec)).expand()

    def test_unbound_label_placeholder_rejected(self):
        spec = CampaignSpec(
            name="broken", kind="performance", label="{nope}",
            axes=[("clients", (10,))],
        )
        with pytest.raises(CampaignSpecError, match="unbound"):
            spec.expand()


class TestValidation:
    def test_group_with_kind_rejected(self):
        with pytest.raises(CampaignSpecError):
            CampaignSpec(
                name="bad",
                kind="performance",
                label="x",
                children=(get_campaign("fig7"),),
            )

    def test_leaf_without_label_rejected(self):
        with pytest.raises(CampaignSpecError):
            CampaignSpec(name="bad", kind="performance")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown cell kind"):
            CampaignSpec(name="bad", kind="meteor", label="x")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(CampaignSpecError, match="twice"):
            CampaignSpec(
                name="bad",
                kind="performance",
                label="c{clients}",
                axes=[("clients", (1,)), ("clients", (2,))],
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignSpecError, match="no values"):
            Axis("clients", ())

    def test_bad_cell_parameter_names_the_cell(self):
        spec = CampaignSpec(
            name="bad-param",
            kind="fault",
            label="{fault}",
            axes=[("fault", ("meteor",))],
        )
        with pytest.raises(CampaignSpecError, match="meteor"):
            spec.expand()

    @pytest.mark.parametrize("kind", ["fault", "safety"])
    def test_missing_fault_binding_is_a_spec_error_not_a_crash(self, kind):
        """A hand-written spec file can omit the 'fault' binding; that
        must surface as a CampaignSpecError (CLI exit 2), never a raw
        KeyError traceback."""
        spec = CampaignSpec(
            name="no-fault", kind=kind, label="c{clients}",
            axes=[("clients", (10,))],
        )
        with pytest.raises(CampaignSpecError, match="'fault' binding"):
            spec.expand()


class TestOverrideParsing:
    def test_ints_floats_strings(self):
        assert parse_axis_override("clients=40,80") == ("clients", (40, 80))
        assert parse_axis_override("rate=0.02,0.05") == ("rate", (0.02, 0.05))
        assert parse_axis_override("protocol=dbsm,primary-copy") == (
            "protocol",
            ("dbsm", "primary-copy"),
        )

    def test_null_and_bools(self):
        assert parse_axis_override("transactions=null") == ("transactions", (None,))
        assert parse_axis_override("seed_per_clients=false") == (
            "seed_per_clients",
            (False,),
        )

    def test_fault_kind_none_stays_a_string(self):
        assert parse_axis_override("fault=none,random") == (
            "fault",
            ("none", "random"),
        )

    def test_json_array_escape_hatch(self):
        name, values = parse_axis_override('system=[["3 Sites", 3, 1]]')
        assert name == "system"
        assert values == (("3 Sites", 3, 1),)

    def test_integer_range_expands_in_place(self):
        name, values = parse_axis_override("seed=1000..1199,5")
        assert name == "seed"
        assert values == tuple(range(1000, 1200)) + (5,)
        assert parse_axis_override("seed=7, 3..4 ,-1..0") == ("seed", (7, 3, 4, -1, 0))
        assert parse_axis_override("seed=3..3") == ("seed", (3,))

    def test_other_dotted_strings_parse_as_before(self):
        assert parse_axis_override("label=a..b,..,1.5..3") == (
            "label",
            ("a..b", "..", "1.5..3"),
        )
        assert parse_axis_override("rate=0.5") == ("rate", (0.5,))

    @pytest.mark.parametrize("bad", ["seed=5..3", "seed=1..x", "seed=1..", "seed=1..2.5"])
    def test_bad_range_rejected(self, bad):
        with pytest.raises(CampaignSpecError, match="range"):
            parse_axis_override(bad)

    @pytest.mark.parametrize(
        "bad", ["clients", "=40", "clients=", "clients=40,,80", "system=[broken"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(CampaignSpecError):
            parse_axis_override(bad)


class TestRegistry:
    def test_builtins_registered_and_sorted(self):
        names = available_campaigns()
        assert {"smoke", "fig5", "fig7", "recovery", "safety"} <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_campaign_names_the_options(self):
        with pytest.raises(ValueError, match="smoke"):
            get_campaign("no-such-campaign")

    def test_table_keys_are_spec_names(self):
        for name, spec in CAMPAIGNS.items():
            assert isinstance(spec, CampaignSpec)
            assert spec.name == name

    def test_table_entry_resolves(self, monkeypatch):
        spec = CampaignSpec(
            name="test-custom",
            kind="performance",
            label="c{clients}",
            axes=[("clients", (10,))],
        )
        monkeypatch.setitem(CAMPAIGNS, spec.name, spec)
        assert "test-custom" in available_campaigns()
        assert get_campaign("test-custom") is spec


class TestSafetyCampaign:
    def test_covers_the_full_fault_matrix(self):
        from repro.core.scenarios import safety_fault_plans

        cells = get_campaign("safety").expand()
        assert [l for l, _ in cells] == sorted(safety_fault_plans())
        for label, config in cells:
            assert config.faults, label  # every cell injects its plan
