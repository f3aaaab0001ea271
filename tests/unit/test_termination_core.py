"""Unit: the termination core every replication protocol inherits.

``ReplicationProtocol`` owns the wiring, the pending table, local
resolution, remote apply and the apply watermark; a protocol module adds
only its decision rule.  Each test drives one site over recording stubs
(:func:`helpers.make_stub_site`) and runs for every registered protocol;
where behaviour legitimately differs the table below says how, so a new
protocol has to state its own answers instead of being skipped.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import make_stub_site

from repro.db.transactions import Outcome, Transaction, TransactionSpec
from repro.db.tuples import make_tuple_id
from repro.protocols import ProtocolGroup, available_protocols
from repro.protocols.base import REMOTE_APPLY_CPU_FACTOR
from repro.tpcc.schema import DISTRICT, WAREHOUSE

#: What differs per protocol at this level: the stats counter bumped per
#: scheduled remote apply, the counter (if any) of local resolutions that
#: found a waiting transaction, and whether a read overwritten since the
#: transaction's snapshot aborts it (primary-copy ships no read sets and
#: never aborts: total order *is* the commit order).
TRAITS = {
    "dbsm": dict(applies="remote_applies", resolved="certified_local", aborts=True),
    "partial": dict(applies="remote_applies", resolved=None, aborts=True),
    "primary-copy": dict(applies="backup_applies", resolved=None, aborts=False),
}

ITEM = make_tuple_id(WAREHOUSE.table_id, 1)
OTHER = make_tuple_id(DISTRICT.table_id, 1)

pytestmark = pytest.mark.parametrize("name", available_protocols())


def test_every_registered_protocol_states_its_traits(name):
    assert name in TRAITS


def update(site, item=ITEM):
    """A committing local update of ``item`` that read it at snapshot 0."""
    spec = TransactionSpec(
        tx_class="t",
        operations=(),
        read_set=(item,),
        write_set=(item,),
        write_sizes={item: 64},
        commit_cpu=1.5e-3,
        commit_sectors=2,
    )
    tx = Transaction(spec, site.server.name)
    tx.start_seq = 0
    return tx


def submit(site, tx):
    """``site.submit(tx)``; returns (outcome signal, multicast payload)."""
    jobs = site.runtime.real_jobs
    before = len(jobs)
    outcome = site.submit(tx)
    assert len(jobs) == before + 1
    return outcome, jobs[-1][3][0]


def deliver(site, origin, payload):
    site.gcs.on_deliver(len(site.commit_log.entries) + 1, origin.site_id, payload)


class TestSubmit:
    def test_registers_pending_and_queues_one_marshal_job(self, name):
        site = make_stub_site(name)
        tx = update(site)
        outcome = site.submit(tx)
        assert site._pending == {tx.tx_id: (tx, outcome)}
        assert not outcome.fired
        [(fn, tag, nbytes, args)] = site.runtime.real_jobs
        assert fn == site.gcs.multicast and tag == "marshal"
        assert nbytes == len(args[0]) > 0
        assert site.stats["submitted"] == 1

    @pytest.mark.parametrize("state", ["crashed", "rejoining"])
    def test_dead_site_registers_nothing_and_never_answers(self, name, state):
        site = make_stub_site(name)
        if state == "crashed":
            site.crash()
            assert site.runtime.crashed and site.commit_log.crashed
        else:
            site.begin_rejoin()
            assert not site.live
        outcome = site.submit(update(site))
        assert not outcome.fired
        assert site._pending == {}
        assert site.runtime.real_jobs == [] and site.runtime.scheduled == []
        assert site.stats["submitted"] == 0


class TestResolveLocal:
    def test_own_commit_sets_sequence_and_fires_through_the_runtime(self, name):
        site = make_stub_site(name)
        tx = update(site)
        outcome, payload = submit(site, tx)
        deliver(site, site, payload)
        assert tx.global_seq == 1
        assert site.commit_log.entries == [(1, tx.tx_id)]
        assert site.runtime.scheduled == [(0.0, outcome.fire, (Outcome.COMMIT,))]
        assert site._pending == {}
        resolved = TRAITS[name]["resolved"]
        if resolved is not None:
            assert site.stats[resolved] == 1

    def test_stale_read_aborts_unless_the_protocol_never_aborts(self, name):
        group = ProtocolGroup()
        site = make_stub_site(name, 0, group=group)
        peer = make_stub_site(name, 1, group=group)
        tx = update(site)
        outcome, mine = submit(site, tx)
        _, theirs = submit(peer, update(peer))
        deliver(site, peer, theirs)  # overwrites ITEM after tx's snapshot
        site.runtime.scheduled.clear()
        deliver(site, site, mine)
        if TRAITS[name]["aborts"]:
            expected, seq, committed = Outcome.ABORT, -1, 1
        else:
            expected, seq, committed = Outcome.COMMIT, 2, 2
        assert site.runtime.scheduled == [(0.0, outcome.fire, (expected,))]
        assert tx.global_seq == seq
        assert len(site.commit_log.entries) == committed

    @pytest.mark.parametrize("how", ["redelivery", "reset"])
    def test_nothing_waiting_resolves_nothing_and_counts_nothing(self, name, how):
        site = make_stub_site(name)
        tx = update(site)
        outcome, payload = submit(site, tx)
        if how == "redelivery":
            deliver(site, site, payload)
        else:
            site.reset_protocol_state(True)
            assert site._pending == {}
        scheduled = list(site.runtime.scheduled)
        resolved = TRAITS[name]["resolved"]
        counted = site.stats[resolved] if resolved else None
        seq = tx.global_seq
        deliver(site, site, payload)
        assert site.runtime.scheduled == scheduled
        assert tx.global_seq == seq
        assert not outcome.fired
        if resolved is not None:
            assert site.stats[resolved] == counted
            assert counted == (1 if how == "redelivery" else 0)


class TestApplyRemote:
    def test_remote_commit_schedules_the_write_set_on_the_server(self, name):
        group = ProtocolGroup()
        site = make_stub_site(name, 0, group=group)
        peer = make_stub_site(name, 1, group=group)
        origin_tx = update(peer)
        _, payload = submit(peer, origin_tx)
        deliver(site, peer, payload)
        [(delay, fn, (tx,))] = site.runtime.scheduled
        assert delay == 0.0 and fn == site.server.apply_remote
        assert tx.remote and tx.site == site.server.name
        assert tx.global_seq == 1
        assert tx.spec.write_set == origin_tx.spec.write_set
        assert tx.spec.commit_sectors == origin_tx.spec.commit_sectors
        assert tx.spec.commit_cpu == pytest.approx(
            REMOTE_APPLY_CPU_FACTOR * origin_tx.spec.commit_cpu
        )
        assert site.stats[TRAITS[name]["applies"]] == 1
        assert site.commit_log.entries == [(1, origin_tx.tx_id)]
        assert site._pending == {}


class TestWatermark:
    def test_out_of_order_applies_advance_contiguously(self, name):
        site = make_stub_site(name)
        tx = update(site)
        assert site.server.termination is site
        assert site.applied_watermark() == 0
        site.server.on_applied(tx, 2)
        assert site.applied_watermark() == 0
        site.server.on_applied(tx, 0)  # aborted / read-only: no sequence
        assert site.applied_watermark() == 0
        site.server.on_applied(tx, 1)
        assert site.applied_watermark() == 2

    def test_snapshot_install_resets_to_the_adopted_position(self, name):
        group = ProtocolGroup()
        joiner = make_stub_site(name, 0, group=group)
        donor = make_stub_site(name, 1, group=group)
        for item in (ITEM, OTHER):
            _, payload = submit(donor, update(donor, item))
            deliver(donor, donor, payload)
        assert len(donor.commit_log.entries) == 2
        joiner.server.on_applied(update(joiner), 1)
        joiner.server.on_applied(update(joiner), 5)  # stranded by the rejoin
        joiner.begin_rejoin()
        assert joiner.gcs.snapshot_installer(donor.gcs.snapshot_provider()) == 0
        assert joiner.live and not joiner.commit_log.crashed
        assert joiner.commit_log.entries == donor.commit_log.entries
        assert joiner.applied_watermark() == 2
        joiner.server.on_applied(update(joiner), 3)
        assert joiner.applied_watermark() == 3
