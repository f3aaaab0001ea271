"""Exact call budgets of the result read path and of the workload
generator's draws: stopwatch-free gates.

In the spirit of ``test_event_budget.py``: the number of Python
function calls a decode or a scan makes is a pure function of the code,
so it compares two commits on any host.  A stored row becomes a record
in one ``_make`` call and the collector's scans compare fields inside
one comprehension, so decoding N rows makes about N calls and scanning
them makes a handful — not one ``from_list`` + ``__init__`` per row or
one ``committed`` / ``latency`` property call per record per scan.
"""

import random
import sys

from repro.core.metrics import MetricsCollector, TxRecord
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

    def scans():
        return (
            collector.throughput_tpm(),
            collector.latencies(),
            collector.abort_rate(),
        )

    (tpm, latencies, abort_rate), calls = calls_made_by(scans)
    assert tpm > 0 and len(latencies) == N - N // 10 and abort_rate == 10.0
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
