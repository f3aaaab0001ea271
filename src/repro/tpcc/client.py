"""The database client model (paper §3.2).

A client is attached to one database server and produces a stream of
transaction requests.  After issuing a request the client blocks until
the server replies — a single-threaded client process — then pauses for
a think time before the next request.  Clients log submission time,
termination time, outcome and identifier per transaction; the collector
in :mod:`repro.core.metrics` derives latency, throughput and abort rate
for any subset of users or transaction classes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.kernel import Entity, Signal, Simulator
from ..db.server import DatabaseServer
from ..db.transactions import Transaction, TransactionSpec
from .workload import TpccWorkload

__all__ = ["Client", "ClientPool"]

#: How a client hands a request to the system: ``submit(spec, on_done)``.
#: Defaults to the attached server; replication protocols that route
#: requests (primary-copy) install their own.
SubmitFn = Callable[[TransactionSpec, Callable[[Transaction], None]], None]


class Client(Entity):
    """One emulated terminal in a closed loop with its server."""

    def __init__(
        self,
        sim: Simulator,
        client_id: int,
        server: DatabaseServer,
        workload: TpccWorkload,
        max_transactions: Optional[int] = None,
        submit: Optional[SubmitFn] = None,
    ):
        super().__init__(sim, f"client{client_id}")
        self.client_id = client_id
        self.server = server
        self.workload = workload
        self.max_transactions = max_transactions
        self._submit: SubmitFn = submit or server.submit
        self.issued = 0
        self.completed = 0
        self._stopped = False
        sim.process(self._loop(), name=self.name)

    def stop(self) -> None:
        """Stop issuing after the in-flight transaction (if any)."""
        self._stopped = True

    def _loop(self):
        # Staggered start: clients begin at a random think offset so the
        # ramp-up does not arrive as a thundering herd.
        yield self.workload.think_time()
        while not self._stopped:
            if (
                self.max_transactions is not None
                and self.issued >= self.max_transactions
            ):
                return
            spec = self.workload.next_transaction(self.client_id)
            done = Signal(self.sim)
            self.issued += 1
            self._submit(spec, done.fire)
            yield done
            self.completed += 1
            yield self.workload.think_time()


class ClientPool:
    """Spawns and tracks a population of clients on one server."""

    def __init__(
        self,
        sim: Simulator,
        server: DatabaseServer,
        workload: TpccWorkload,
        count: int,
        first_id: int = 0,
        max_transactions_per_client: Optional[int] = None,
        submit: Optional[SubmitFn] = None,
    ):
        self._sim = sim
        self._server = server
        self._workload = workload
        self._first_id = first_id
        self._max_per_client = max_transactions_per_client
        self._submit = submit
        #: Stopped generations from before a restart: a retired client
        #: blocked on an in-flight request may still complete it later
        #: (e.g. a parked primary-copy update re-routed after a heal),
        #: so its counters keep contributing to the pool totals live.
        self._retired: list = []
        self.clients = [
            Client(
                sim,
                first_id + i,
                server,
                workload,
                max_transactions=max_transactions_per_client,
                submit=submit,
            )
            for i in range(count)
        ]

    def stop_all(self) -> None:
        for client in self.clients:
            client.stop()

    def restart(self) -> None:
        """Respawn the population after its site recovered.

        The previous generation's clients are stopped and retired (one
        still blocked on an in-flight request may complete it later —
        it issues nothing new afterwards) and fresh processes take over
        their terminal ids — the workload streams they draw from are
        keyed by client id, so a restart does not change the load mix.
        """
        count = len(self.clients)
        self.stop_all()
        self._retired.extend(self.clients)
        self.clients = [
            Client(
                self._sim,
                self._first_id + i,
                self._server,
                self._workload,
                max_transactions=self._max_per_client,
                submit=self._submit,
            )
            for i in range(count)
        ]

    def total_issued(self) -> int:
        return sum(c.issued for c in self.clients) + sum(
            c.issued for c in self._retired
        )

    def total_completed(self) -> int:
        return sum(c.completed for c in self.clients) + sum(
            c.completed for c in self._retired
        )
