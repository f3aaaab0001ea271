"""Unit tests: the placement layer's edges and the config plumbing.

Covers what the property tests don't: constructor validation,
ScenarioConfig's fragment/placement checks and serialization
round-trip, the campaign axes reaching cell configs, and the
monitor-applicability / NaN-metric contract for fragmented runs.
"""

import dataclasses
import math

import pytest

from repro.campaigns import get_campaign
from repro.core.experiment import ScenarioConfig
from repro.db.tuples import make_tuple_id, table_lock_id
from repro.dbsm.marshal import CommitRequest, marshal_request, unmarshal_request_cached
from repro.monitors import applicable_monitors
from repro.placement import (
    DEFAULT_PLACEMENT,
    FragmentMap,
    TransactionRouter,
    fragment_of_site,
    sites_of_fragment,
)
from repro.tpcc.schema import STOCK, WAREHOUSE


class TestFragmentMapValidation:
    def test_rejects_nonpositive_fragments(self):
        with pytest.raises(ValueError):
            FragmentMap(10, 0)
        with pytest.raises(ValueError):
            FragmentMap(10, -1)

    def test_rejects_more_fragments_than_warehouses(self):
        with pytest.raises(ValueError):
            FragmentMap(3, 4)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            FragmentMap(10, 2, "hash")

    def test_default_policy_is_range(self):
        assert FragmentMap(10, 2).policy == DEFAULT_PLACEMENT == "range"

    def test_equality_and_hash_by_parameters(self):
        assert FragmentMap(10, 2) == FragmentMap(10, 2, "range")
        assert FragmentMap(10, 2) != FragmentMap(10, 2, "round-robin")
        assert hash(FragmentMap(12, 3)) == hash(FragmentMap(12, 3))

    def test_range_splits_evenly_when_divisible(self):
        fmap = FragmentMap(12, 3, "range")
        assert fmap.warehouses_of_fragment(0) == tuple(range(0, 4))
        assert fmap.warehouses_of_fragment(1) == tuple(range(4, 8))
        assert fmap.warehouses_of_fragment(2) == tuple(range(8, 12))


class TestSiteGroups:
    def test_even_split(self):
        assert sites_of_fragment(0, 6, 2) == (0, 1, 2)
        assert sites_of_fragment(1, 6, 2) == (3, 4, 5)

    def test_uneven_split_keeps_every_group_nonempty(self):
        groups = [sites_of_fragment(f, 5, 3) for f in range(3)]
        assert all(groups)
        assert sorted(s for g in groups for s in g) == list(range(5))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            sites_of_fragment(2, 6, 2)
        with pytest.raises(ValueError):
            fragment_of_site(6, 6, 2)


def request_on(*warehouses, lock_last=False):
    """A commit request reading one ``warehouse`` row per argument."""
    reads = tuple(make_tuple_id(WAREHOUSE.table_id, w + 1) for w in warehouses)
    return CommitRequest(
        origin=0, tx_id=7, start_seq=3, tx_class="payment", read_set=reads,
        write_set=(table_lock_id(STOCK.table_id),) if lock_last else reads[:1],
        write_bytes=40, commit_cpu=0.001, commit_sectors=2,
    )


class TestFootprintOnTheRequest:
    def test_equal_maps_and_different_homes_share_one_footprint(self):
        request = request_on(1, 9)
        first = TransactionRouter(FragmentMap(12, 3)).route_request(request, 0)
        footprint = request.derived["placement"]
        assert footprint == ((1, 9), False)
        second = TransactionRouter(FragmentMap(12, 3)).route_request(request, 2)
        assert request.derived["placement"] is footprint
        assert (first.fragments, first.home) == ((0, 2), 0)
        assert (second.fragments, second.home) == ((0, 2), 2)
        # ... and a different map reads the same footprint its own way
        other = TransactionRouter(FragmentMap(12, 2, "round-robin"))
        assert other.route_request(request, 1).fragments == (1,)
        assert request.derived["placement"] is footprint

    def test_a_request_decoded_again_computes_an_equal_footprint(self):
        router = TransactionRouter(FragmentMap(12, 3))
        wire = marshal_request(request_on(4, 11))
        delivered = unmarshal_request_cached(wire)
        decision = router.route_request(delivered, 1)
        unmarshal_request_cached.__self__.clear()
        again = unmarshal_request_cached(wire)
        assert again is not delivered and "placement" not in again.derived
        assert router.route_request(again, 1) == decision
        assert again.derived["placement"] == delivered.derived["placement"]
        assert again.derived["placement"] is not delivered.derived["placement"]

    @pytest.mark.parametrize("lock_last", (False, True))
    def test_an_out_of_range_warehouse_raises_at_every_call(self, lock_last):
        router = TransactionRouter(FragmentMap(6, 2))
        request = request_on(2, 6, lock_last=lock_last)
        for _ in range(3):
            with pytest.raises(ValueError, match="warehouse 6 out of range"):
                router.route_request(request, 0)
            with pytest.raises(ValueError, match="home fragment 2"):
                router.route_request(request_on(2), 2)
        # the footprint itself is not a failure: a map that has the
        # warehouse routes the very same instance
        wide = TransactionRouter(FragmentMap(12, 2))
        assert wide.route_request(request, 0).fragments == (0, 1)

    def test_commit_request_stays_frozen_and_hashable(self):
        request = request_on(1, 9)
        untouched = request_on(1, 9)
        before = hash(request)
        TransactionRouter(FragmentMap(12, 3)).route_request(request, 0)
        request.remote_spec(0.5)
        assert set(request.derived) == {"placement", 0.5}
        assert hash(request) == before == hash(untouched)
        assert request == untouched and len({request, untouched}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.origin = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.derived = {}


class TestScenarioConfigFragments:
    def test_fragments_require_partial_protocol(self):
        with pytest.raises(ValueError, match="partial"):
            ScenarioConfig(sites=4, clients=40, fragments=2)

    def test_fragments_bounded_by_sites_and_warehouses(self):
        with pytest.raises(ValueError, match="sites"):
            ScenarioConfig(
                sites=1, clients=40, protocol="partial", fragments=2
            )
        with pytest.raises(ValueError, match="warehouses"):
            ScenarioConfig(
                sites=6, clients=30, protocol="partial", fragments=4
            )

    def test_placement_validated(self):
        with pytest.raises(ValueError, match="placement"):
            ScenarioConfig(sites=3, clients=30, placement="hash")

    def test_round_trip_preserves_fragment_axes(self):
        config = ScenarioConfig(
            sites=4,
            clients=120,
            protocol="partial",
            fragments=2,
            placement="round-robin",
        )
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config
        assert again.fragments == 2
        assert again.placement == "round-robin"

    def test_defaults_stay_fully_replicated(self):
        config = ScenarioConfig(sites=3, clients=30)
        assert config.fragments == 1
        assert config.placement == DEFAULT_PLACEMENT


class TestScaleOutCampaign:
    def test_cells_carry_fragment_axes(self):
        spec = get_campaign("scale-out")
        cells = spec.expand_cells()
        assert len(cells) == 6  # fragments x placement
        for label, config, axes in cells:
            assert config.protocol == "partial"
            assert config.fragments == axes["fragments"]
            assert config.placement == axes["placement"]
            assert f"f{config.fragments}" in label
            assert config.placement in label

    def test_baseline_and_scaled_cells_present(self):
        by_fragments = {
            config.fragments
            for _, config, _ in get_campaign("scale-out").expand_cells()
        }
        assert by_fragments == {1, 2, 3}


class TestMonitorApplicability:
    def test_centralized_and_unmonitored_arm_nothing(self):
        assert applicable_monitors(
            ScenarioConfig(sites=1, clients=30, monitors=("all",))
        ) == ()
        assert applicable_monitors(
            ScenarioConfig(sites=3, clients=30, monitors=())
        ) == ()

    def test_fragmented_runs_arm_only_fragment_aware_monitors(self):
        from repro.monitors import build_monitor, resolve_monitors

        config = ScenarioConfig(
            sites=4,
            clients=120,
            protocol="partial",
            fragments=2,
            monitors=("all",),
        )
        armed = applicable_monitors(config)
        assert armed  # the built-ins are all fragment-aware today
        for name in resolve_monitors(("all",)):
            assert (name in armed) == build_monitor(name).fragment_aware

    def test_violations_metric_nan_when_nothing_armed(self):
        from repro.analysis.metrics import get_metric
        from repro.core.experiment import Scenario

        config = ScenarioConfig(
            sites=3, clients=30, transactions=60, monitors=()
        )
        result = Scenario(config).run()
        assert math.isnan(get_metric("violations")(result))
        assert math.isnan(get_metric("violations[one-copy-sr]")(result))
