"""Figure 5 — performance of centralized vs replicated configurations (§5.1).

Throughput (committed tpm), mean latency and abort rate against the
number of clients, for 1/3/6-CPU centralized servers and 3/6-site
replicated databases.  Expected shapes (paper): replication does not
limit throughput — each distributed system tracks the centralized system
with the same number of CPUs; a single CPU saturates near 500 clients;
3 sites scale to ~1500 clients and ~7000 tpm; 6 sites past 2000 clients
and ~9000 tpm.

Series derivation and printing go through :mod:`repro.analysis` (the
``fig5a``/``fig5b``/``fig5c`` figure builders), so the printed tables
are byte-identical to ``python -m repro.runner report --figure``.
"""

import pytest

from conftest import figure_series

from repro.core.scenarios import CLIENT_LEVELS, SYSTEM_CONFIGS


def test_fig5a_throughput(performance_grid):
    series = figure_series(performance_grid, "fig5a")
    # replication does not limit throughput: same-CPU centralized vs
    # replicated within 20% over each system's documented scaling range
    # (3 sites scale gracefully up to about 1500 clients; 6 sites past
    # 2000 — §5.1; beyond saturation both systems thrash differently)
    for central, replicated, max_clients in (
        ("3 CPU", "3 Sites", 1500),
        ("6 CPU", "6 Sites", 2000),
    ):
        for i, clients in enumerate(CLIENT_LEVELS):
            if clients > max_clients:
                continue
            assert series[replicated][i] == pytest.approx(
                series[central][i], rel=0.20
            ), f"{replicated} vs {central} at {clients} clients"
    # a single CPU saturates around 500 clients: adding clients past 500
    # must not scale throughput linearly (factor 4 in offered load gives
    # well under 2x committed tpm)
    one_cpu = series["1 CPU"]
    assert one_cpu[-1] < 1.7 * one_cpu[1]
    # 6 sites scale past 2000 clients and 9000 tpm at full scale; at
    # reduced transaction counts the shape check is monotone growth
    six = series["6 Sites"]
    assert six[-1] > six[1] > six[0]
    # 3 sites reach ~7000 tpm at 1500 clients (±25%)
    assert series["3 Sites"][3] == pytest.approx(7000, rel=0.25)


def test_fig5b_latency(performance_grid):
    series = figure_series(performance_grid, "fig5b")
    # saturation shows as sharply growing latency on the 1 CPU curve
    one_cpu = series["1 CPU"]
    assert one_cpu[-1] > 3 * one_cpu[0]
    # 6 CPU / 6 Sites stay far below the saturated single CPU
    assert series["6 CPU"][-1] < one_cpu[-1]
    # replicated latency exceeds same-CPU centralized (certification
    # round-trip + remote applies), but stays the same order
    assert series["3 Sites"][2] > series["3 CPU"][2]


def test_fig5c_abort_rate(performance_grid):
    series = figure_series(performance_grid, "fig5c")
    # aborts grow with load on the saturated 1 CPU curve
    one_cpu = series["1 CPU"]
    assert one_cpu[-1] > one_cpu[0]
    # within each system's scaling range, aborts stay in the paper's
    # single-digit-to-low-teens band; far past saturation the hot
    # Warehouse lock is held for seconds and write-write aborts cascade
    # (the paper's Table 1 stops at each system's saturation point)
    in_range = {
        "1 CPU": 500,
        "3 CPU": 1500,
        "6 CPU": 2000,
        "3 Sites": 1500,
        "6 Sites": 2000,
    }
    for label, _, _ in SYSTEM_CONFIGS:
        for i, clients in enumerate(CLIENT_LEVELS):
            if clients <= in_range[label]:
                assert 0.0 <= series[label][i] < 15.0, (
                    f"{label} at {clients} clients: {series[label][i]:.2f}%"
                )
