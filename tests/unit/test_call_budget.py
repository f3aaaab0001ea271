"""Exact call budgets of the result read path and of the workload
generator's draws: stopwatch-free gates.

In the spirit of ``test_event_budget.py``: the number of Python
function calls a decode or a scan makes is a pure function of the code,
so it compares two commits on any host.  A stored row becomes a record
in one ``_make`` call and the metric extractors' scans compare fields
inside one comprehension, so decoding N rows makes about N calls and
scanning them makes a handful — not one ``from_list`` + ``__init__`` per
row or one ``committed`` / ``latency`` property call per record per scan.

The datagram path has the same kind of gate: a real job that queues
schedules no kernel ``Event``, the fabric asks about the partition cut
once per packet, and a datagram of the installed view never enters the
exclusion detector — counted, so they cannot come back unnoticed.

A site without faults holds no fault injector and calls no hook: its
datagrams, jobs and timers cross the runtime boundary without one.

And a delivered request's: six sites route it with one walk of its sets
(the footprint rides on the shared request), and a fragment is
reassembled, sequenced, windowed and checked for a pending view without
a generator frame, a property pair or a call whose own first test would
send it straight back.

And a transaction's: on 3.11 an ``Enum`` member load runs
``EnumType.__getattr__`` and a property read is a call, so the functions
every transaction passes through load members bound once at import and
read the clock, the write set, a signal's and a CPU's state as fields.
"""

import ast
import inspect
import random
import sys
import textwrap
import types
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "property"))
from helpers import make_group
from test_prop_cpu_lazy import GRID, EagerCpu, drive

from repro.analysis.metrics import commit_latencies, metric_value
from repro.core.cpu import CpuPool, SimulatedCpu
from repro.core.csrt import SiteRuntime
from repro.core.experiment import Scenario, ScenarioConfig
from repro.core.faults import FaultInjector, clock_drift
from repro.core.kernel import Entity, Signal, Simulator
from repro.core.metrics import MetricsCollector, TxRecord
from repro.db.lock import LockManager
from repro.db.server import DatabaseServer, LocalTermination
from repro.db.transactions import Operation, Transaction, TransactionSpec
from repro.db.tuples import make_tuple_id
from repro.dbsm.marshal import CommitRequest, marshal_request
from repro.gcs.messages import DataMsg, HeartbeatMsg, marshal
from repro.gcs.sequencer import TotalOrder
from repro.gcs.stack import _FRAG, GroupCommunication
from repro.gcs.views import ViewManager
from repro.gcs.window import ReceiveWindow
from repro.net.address import Endpoint, GroupAddress
from repro.net.capture import PacketCapture
from repro.net.link import RateLimitedLink
from repro.net.network import Network
from repro.net.udp import UdpSocket
from repro.placement import TransactionRouter
from repro.protocols.base import ReplicationProtocol
from repro.protocols.partial import PartialReplica
from repro.tpcc import schema
from repro.tpcc.workload import TpccWorkload

N = 2000
#: Frames of a comprehension or generator body (not function calls).
ANONYMOUS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def calls_made_by(fn):
    """``(result, number of named Python functions called)``."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_name not in ANONYMOUS:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, count - 1  # fn itself


def entries_of(fn, *functions):
    """``(result, {name: times entered})`` for the given functions."""
    codes = {function.__code__: function.__name__ for function in functions}
    entered = dict.fromkeys(codes.values(), 0)

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, entered


def stored_rows():
    collector = MetricsCollector()
    for i in range(N):
        collector.record(
            TxRecord(
                tx_id=i,
                tx_class=("neworder", "payment-long", "delivery")[i % 3],
                site=f"site{i % 2}",
                submit_time=i * 0.5,
                end_time=i * 0.5 + 0.25,
                outcome="abort" if i % 10 == 0 else "commit",
                readonly=i % 4 == 0,
                certification_latency=0.001 * (i % 5),
                abort_reason="ww-conflict" if i % 10 == 0 else "",
            )
        )
    return collector.to_dict()


def test_decoding_rows_costs_one_call_per_row():
    data = stored_rows()
    # steady state: a record class's column types are resolved from its
    # annotations once per process, on the first decode
    MetricsCollector.from_dict({**data, "records": data["records"][:1]})
    collector, calls = calls_made_by(lambda: MetricsCollector.from_dict(data))
    assert len(collector.records) == N
    assert calls <= N + 20, calls


def test_headline_scans_cost_no_call_per_record():
    collector = MetricsCollector.from_dict(stored_rows())
    result = types.SimpleNamespace(metrics=collector)

    def scans():
        return (
            metric_value(result, "throughput_tpm"),
            commit_latencies(result),
            metric_value(result, "mean_latency_ms"),
            metric_value(result, "abort_rate"),
        )

    (tpm, latencies, mean, abort_rate), calls = calls_made_by(scans)
    assert tpm > 0 and len(latencies) == N - N // 10 and abort_rate == 10.0
    assert mean == 250.0
    assert calls < 20, calls


def test_update_builders_enter_random_py_only_for_the_cpu_sample():
    """``neworder`` draws up to 17 small integers, ``delivery`` 120: on
    ``getrandbits`` directly, not through ``randint`` / ``randrange`` /
    ``sample`` → ``_randbelow``.  The only frames of ``random.py`` a
    builder may enter are the float samplers of its CPU profile."""
    allowed = {"lognormvariate", "normalvariate", "expovariate"}
    entered = set()

    def profiler(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == random.__file__:
            entered.add(code.co_name)

    workload = TpccWorkload(4, rng=random.Random(11))
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        for i in range(200):
            workload.neworder(i % 4, i % 10)
            workload.payment(i % 4, i % 10)
            workload.delivery(i % 4)
    finally:
        sys.setprofile(previous)
    assert entered <= allowed, entered - allowed


def schedules_by(fn, owner):
    """``(result, number of Simulator.schedule calls made by methods of
    class owner)``: the kernel ``Event`` handles that class builds."""
    callers = {
        member.__code__ for member in vars(owner).values() if hasattr(member, "__code__")
    }
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if (
            event == "call"
            and frame.f_code is Simulator.schedule.__code__
            and frame.f_back.f_code in callers
        ):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, count


#: What keeps the CPU busy from 0 to 1 while the burst arrives at 0.25:
#: a real job nobody waits for (lazy completion), one with an
#: ``on_complete`` (eager), a modeled job (preempted by the first arrival).
BUSY_WITH = {
    "lazy real job": ("real", 0.0, 4 * GRID, False, None, None),
    "eager real job": ("real", 0.0, 4 * GRID, True, None, None),
    "modeled job": ("sim", 0.0, 4 * GRID),
}


@pytest.mark.parametrize("busy_with", BUSY_WITH)
def test_real_jobs_queued_on_a_busy_cpu_schedule_no_event(busy_with):
    """Only a modeled job's end is a cancellable ``Event``: one per
    dispatch, so a preempted modeled job gets a second one when it
    resumes.  Real jobs, queued or not, never build one."""
    first = BUSY_WITH[busy_with]
    burst = [("real", GRID, GRID, i % 3 == 0, None, None) for i in range(12)]
    schedule = [first, *burst, ("sim", 2 * GRID, GRID), ("read", 3 * GRID)]
    modeled = sum(action[0] == "sim" for action in schedule)
    preempted = busy_with == "modeled job"
    observed, scheduled = schedules_by(
        lambda: drive(schedule, 1, SimulatedCpu), SimulatedCpu
    )
    assert scheduled == modeled + preempted
    assert observed == drive(schedule, 1, EagerCpu)
    ran = [entry[2] for entry in observed["log"] if entry[1] == "ran"]
    assert ran[-12:] == [f"real{i}" for i in range(1, 13)]  # FIFO behind the first
    ends = [entry[0] for entry in observed["log"] if entry[1:] == ("done", "sim0")]
    # Served in full around the burst: its own 1 s plus the burst's 3 s.
    assert ends == ([4 * GRID + 12 * GRID] if preempted else [])


class CountingCut(dict):
    """A partition map that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_fan_out_asks_about_the_cut_once_per_packet():
    sim = Simulator()
    net = Network(sim, capture=PacketCapture())
    group = GroupAddress("g", 5)
    socks = [UdpSocket(net.add_host(f"h{i}"), 5) for i in range(4)]
    inbox = []
    for sock in socks:
        sock.join(group)
        sock.set_receiver(lambda src, payload, me=sock.host.name: inbox.append(me))

    def traffic():
        for _ in range(5):
            socks[0].send(group, b"x" * 100)
            socks[1].send(Endpoint("h2", 5), b"y" * 40)
        sim.run()

    net._partition = CountingCut()  # no cut: empty, as heal() leaves it
    _, entered = entries_of(
        traffic, Network.reachable, RateLimitedLink.transmission_time
    )
    assert entered == {"reachable": 0, "transmission_time": 0}
    assert net._partition.lookups == 0
    assert sorted(inbox) == ["h1"] * 5 + ["h2"] * 10 + ["h3"] * 5
    assert not any(e.kind == "partition" for e in net.capture.entries)

    del inbox[:]
    net.partition([["h0", "h1"], ["h2"]])  # h3: the implicit component
    _, entered = entries_of(traffic, Network.reachable)
    assert entered == {"reachable": 0}
    assert sorted(inbox) == ["h1"] * 5
    cut_off = [
        (e.source, e.dest, e.size) for e in net.capture.entries if e.kind == "partition"
    ]
    assert sorted(cut_off) == sorted(
        [("h0:5", "h2:5", 100), ("h0:5", "h3:5", 100), ("h1:5", "h2:5", 40)] * 5
    )
    assert all(
        net.reachable(a, b) == (a == b or {a, b} == {"h0", "h1"})
        for a in net.hosts for b in net.hosts
    )


def test_traffic_of_the_installed_view_never_enters_the_exclusion_detector():
    harness = make_group(3)
    harness.start()
    _, entered = entries_of(
        lambda: harness.sim.run(until=2.0), GroupCommunication._detect_exclusion
    )
    assert entered == {"_detect_exclusion": 0}
    assert harness.runtimes[2].stats["datagrams_in"] > 20

    stack = harness.stacks[2]
    excluded = []
    stack.on_excluded = lambda: excluded.append(harness.sim.now)
    ahead = marshal(HeartbeatMsg(0, stack.view_id + 1))

    def hear_higher_view_twice():
        stack._on_wire(Endpoint("m0", 9000), ahead)
        harness.sim.run(until=2.0 + stack.config.suspect_after + 0.01)
        assert excluded == []
        stack._on_wire(Endpoint("m0", 9000), ahead)

    _, entered = entries_of(
        hear_higher_view_twice, GroupCommunication._detect_exclusion
    )
    assert entered == {"_detect_exclusion": 2}
    assert len(excluded) == 1


def test_six_sites_route_a_delivered_request_with_one_walk():
    scenario = Scenario(
        ScenarioConfig(sites=6, protocol="partial", fragments=2, clients=120)
    )
    routed = []
    for site in scenario.sites:  # stop at the routing decision
        site.replica._certify_local = lambda request: routed.append("local")
        site.replica._vote = lambda request, home: routed.append("vote")
    rows = tuple(make_tuple_id(schema.STOCK.table_id, w * 100_000 + 5) for w in (0, 11))
    body = marshal_request(CommitRequest(
        origin=4, tx_id=9, start_seq=0, tx_class="neworder", read_set=rows,
        write_set=rows, write_bytes=600, commit_cpu=0.001, commit_sectors=1,
    ))

    def deliver():
        for site in scenario.sites:
            site.replica._on_request(body)

    _, entered = entries_of(
        deliver,
        schema.warehouse_of_tuple,
        schema.warehouses_of_tuples,
        TransactionRouter.route_request,
    )
    assert entered == {
        "warehouse_of_tuple": 0, "warehouses_of_tuples": 1, "route_request": 6,
    }
    assert routed == ["vote"] * 6  # warehouses 0 and 11: both fragments


@contextmanager
def profiling(on_call):
    """Call ``on_call(frame)`` for every Python frame entered inside."""

    def profiler(frame, event, arg):
        if event == "call":
            on_call(frame)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        yield
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize(
    "arrival", ([0, 1, 2], [2, 1, 0], [0, 1, 1, 2], [2, 0, 0, 1]),
    ids=("in order", "reversed", "duplicate", "duplicate out of order"),
)
def test_fragments_are_reassembled_without_a_generator_frame(arrival):
    stack = make_group(1).stacks[0]
    delivered = []
    stack.on_deliver = lambda gseq, origin, payload: delivered.append((gseq, payload))
    chunks = [b"a" * 1400, b"b" * 1400, b"c" * 17]

    stack_py = GroupCommunication._on_ordered.__code__.co_filename
    generators = []

    def note_generator(frame):
        code = frame.f_code
        if code.co_name == "<genexpr>" and code.co_filename == stack_py:
            generators.append(frame.f_lineno)

    with profiling(note_generator):
        for gseq, index in enumerate(arrival, start=1):
            stack._on_ordered(gseq, 0, gseq, _FRAG.pack(5, index, 3) + chunks[index])
    assert generators == []
    assert delivered == [(len(arrival), b"".join(chunks))]
    assert stack._reassembly == {}


def test_data_traffic_makes_no_trivial_calls():
    harness = make_group(3)
    harness.start()
    for burst in range(8):
        for stack in harness.stacks:
            harness.sim.schedule(0.2 * burst, stack.multicast, b"x" * 3000)
    trivial = {
        function.__code__: function.__name__
        for function in (
            TotalOrder.is_sequencer.fget,
            TotalOrder.sequencer_id.fget,
            ViewManager.maybe_complete_sync,
        )
    }
    entered = []
    gapped = []  # len(pending) of every window asked for its gaps

    def note(frame):
        if frame.f_code in trivial:
            entered.append(trivial[frame.f_code])
        elif frame.f_code is ReceiveWindow.gaps.__code__:
            gapped.append(len(frame.f_locals["self"].pending))

    reliable = harness.stacks[1].reliable
    with profiling(note):
        harness.sim.run(until=2.0)
        assert entered == [] and gapped == []  # a lossless LAN delivers in order
        assert [len(log) for log in harness.delivered.values()] == [24] * 3
        assert harness.runtimes[1].stats["datagrams_in"] > 60

        # An arrival above a hole asks, and arms the NACK; filling it does not.
        top = reliable.windows[2].contiguous
        reliable.handle_data(DataMsg(2, 1, top + 2, b"\x00late"))
        assert gapped == [1] and 2 in reliable._nack_timers
        reliable.handle_data(DataMsg(2, 1, top + 1, b"\x00hole"))
    assert gapped == [1] and entered == []
    assert reliable.windows[2].contiguous == top + 2
    assert not reliable.windows[2].pending


HOOKS = ("drop_incoming", "transform_elapsed", "transform_delay")


def hooks_entered(harness):
    """``{member: {hook: times entered}}`` over a run with traffic, plus
    each member's ``schedule`` calls under ``"schedule"``."""
    codes = {getattr(FaultInjector, hook).__code__: hook for hook in HOOKS}
    codes[SiteRuntime.schedule.__code__] = "schedule"
    member_of = {id(rt): i for i, rt in enumerate(harness.runtimes)}
    member_of.update({id(inj): i for i, inj in harness.injectors.items()})
    entered = {
        i: dict.fromkeys((*HOOKS, "schedule"), 0) for i in member_of.values()
    }

    def note(frame):
        name = codes.get(frame.f_code)
        if name is not None:
            entered[member_of[id(frame.f_locals["self"])]][name] += 1

    with profiling(note):
        harness.start()
        for burst in range(4):
            for stack in harness.stacks:
                harness.sim.schedule(0.2 * burst, stack.multicast, b"x" * 3000)
        harness.sim.run(until=2.0)
    return entered


def test_fault_free_sites_call_no_hook():
    harness = make_group(3)
    entered = hooks_entered(harness)
    assert all(rt.interceptor is None for rt in harness.runtimes)
    assert all(rt.stats["datagrams_in"] > 20 for rt in harness.runtimes)
    assert all(counts[hook] == 0 for counts in entered.values() for hook in HOOKS)


def test_only_the_faulty_site_calls_its_hooks_once_per_crossing():
    harness = make_group(3, fault_plans={1: clock_drift(0.1)})
    entered = hooks_entered(harness)
    stats = harness.runtimes[1].stats
    assert stats["drops_injected"] == 0 and stats["datagrams_in"] > 20
    assert entered[1] == {
        "drop_incoming": stats["datagrams_in"],  # every datagram that reached it
        "transform_elapsed": stats["real_jobs"],
        "transform_delay": entered[1]["schedule"],
        "schedule": entered[1]["schedule"],
    }
    assert entered[1]["schedule"] > 10
    assert all(entered[i][hook] == 0 for i in (0, 2) for hook in HOOKS)


#: The functions every transaction passes through, at its origin site or
#: as a remote write-set: building its rows, running it, deciding it.
TRANSACTION_PATH = (
    Operation.__new__,
    Transaction.__init__,
    TpccWorkload._ops,
    DatabaseServer._run_local,
    DatabaseServer._run_remote,
    DatabaseServer._finish_abort,
    DatabaseServer._record,
    LocalTermination.submit,
    LockManager._preempt_conflicting_locals,
    ReplicationProtocol._resolve_local,
    PartialReplica._receive_vote,
)
ENUMS = {"OpKind", "TxStatus", "Outcome"}


@pytest.mark.parametrize(
    "function", TRANSACTION_PATH, ids=lambda function: function.__qualname__
)
def test_the_transaction_path_loads_no_enum_member(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    loads = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ENUMS
    ]
    assert loads == []


def test_the_transaction_path_calls_no_property():
    """One three-CPU centralized cell, where placement now and then
    finds every CPU busy: the server and the CPU placement never enter
    these accessors, whatever the transaction's class and fate."""
    accessors = {
        Entity.now.fget.__code__: "Entity.now",
        TransactionSpec.readonly.fget.__code__: "TransactionSpec.readonly",
        Signal.fired.fget.__code__: "Signal.fired",
        SimulatedCpu.busy.fget.__code__: "SimulatedCpu.busy",
        SimulatedCpu.queue_length.__code__: "SimulatedCpu.queue_length",
    }
    server_py = DatabaseServer._run_local.__code__.co_filename
    choose = CpuPool._choose.__code__
    in_choose = {choose} | {
        const for const in choose.co_consts if isinstance(const, types.CodeType)
    }
    entered = dict.fromkeys(accessors.values(), 0)
    choices = 0

    def note(frame):
        nonlocal choices
        code = frame.f_code
        choices += code is choose
        name = accessors.get(code)
        caller = frame.f_back.f_code
        if name is not None and (caller.co_filename == server_py or caller in in_choose):
            entered[name] += 1

    scenario = Scenario(
        ScenarioConfig(sites=1, cpus_per_site=3, clients=300, transactions=300, seed=4)
    )
    with profiling(note):
        result = scenario.run()
    assert entered == dict.fromkeys(accessors.values(), 0)
    records = result.metrics.records
    assert choices > len(records) > 300
    assert {(r.readonly, r.outcome) for r in records} == {
        (readonly, outcome) for readonly in (True, False) for outcome in ("commit", "abort")
    }
