"""Unit tests for the closed-loop client model (paper §3.2)."""

import random

import pytest

from repro.core.cpu import CpuPool
from repro.core.kernel import Simulator
from repro.db.server import DatabaseServer
from repro.db.storage import Storage
from repro.tpcc import workload as workload_module
from repro.tpcc.client import Client, ClientPool
from repro.tpcc.workload import TpccWorkload


@pytest.fixture
def build(monkeypatch):
    """``build(clients, max_tx, seed, think)`` -> ``(sim, server, pool)``,
    with the workload's mean think time set to ``think`` for the test."""

    def build(clients=1, max_tx=3, seed=1, think=0.5):
        monkeypatch.setattr(workload_module, "THINK_TIME_MEAN", think)
        sim = Simulator()
        server = DatabaseServer(
            sim,
            "site0",
            CpuPool(sim, 1),
            Storage(sim),
        )
        workload = TpccWorkload(1, rng=random.Random(seed))
        pool = ClientPool(
            sim, server, workload, clients, max_transactions_per_client=max_tx
        )
        return sim, server, pool

    return build


class TestClient:
    def test_issues_up_to_max_transactions(self, build):
        sim, server, pool = build(clients=1, max_tx=3)
        sim.run(until=200.0)
        assert pool.total_issued() == 3
        assert pool.total_completed() == 3
        assert len(server.metrics.records) == 3

    def test_closed_loop_one_outstanding(self, build):
        """The client blocks until the server replies: at any instant at
        most one transaction of the client is in flight."""
        sim, server, pool = build(clients=1, max_tx=5)
        sim.run(until=200.0)
        records = sorted(
            server.metrics.records, key=lambda r: r.submit_time
        )
        for earlier, later in zip(records, records[1:]):
            assert later.submit_time >= earlier.end_time

    def test_stop_halts_issuing(self, build):
        sim, server, pool = build(clients=2, max_tx=1000, think=0.1)
        sim.schedule(5.0, pool.stop_all)
        sim.run(until=100.0)
        assert pool.total_issued() < 2000

    def test_think_time_spacing(self, build):
        sim, server, pool = build(clients=1, max_tx=4, think=2.0)
        sim.run(until=200.0)
        records = sorted(server.metrics.records, key=lambda r: r.submit_time)
        gaps = [
            later.submit_time - earlier.end_time
            for earlier, later in zip(records, records[1:])
        ]
        assert all(gap >= 0 for gap in gaps)
        assert sum(gaps) > 0  # thinking actually happened

    def test_pool_splits_client_ids(self, build):
        sim, server, pool = build(clients=3, max_tx=1)
        ids = [c.client_id for c in pool.clients]
        assert ids == [0, 1, 2]
