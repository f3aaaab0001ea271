"""Figure 6 — resource usage (§5.2).

(a) CPU usage (simulated transaction jobs + real protocol jobs): one CPU
is the bottleneck by 500 clients; the 3-CPU server reaches the same
saturation near 1500; 6 CPUs / 6 sites handle the full load.
(b) Disk bandwidth: with 6 CPUs — centralized or replicated — the disk
becomes the bottleneck, the direct consequence of read-one/write-all.
(c) Network: bytes transmitted grow linearly with clients; 6 sites carry
more group-maintenance traffic than 3 sites.

Series derivation and printing go through :mod:`repro.analysis` (the
``fig6a``/``fig6b``/``fig6c`` figure builders).
"""

import pytest

from conftest import figure_series

from repro.core.scenarios import CLIENT_LEVELS, SYSTEM_CONFIGS


def test_fig6a_cpu_usage(performance_grid):
    total = figure_series(performance_grid, "fig6a")
    protocol = performance_grid.pivot("clients", "system", "cpu_protocol").columns()
    # one CPU approaches saturation by 500 clients
    assert total["1 CPU"][1] > 0.80
    # 3 CPUs reach a similar level only around 3x the load (1500)
    assert total["3 CPU"][1] < 0.75
    assert total["3 CPU"][3] > 0.75
    # replicated tracks centralized with the same CPU count (protocol
    # overhead is visible but small)
    assert total["3 Sites"][2] == pytest.approx(total["3 CPU"][2], abs=0.18)
    # protocol (real-job) share exists only in replicated runs and is small
    assert protocol["3 CPU"][2] == 0.0
    assert 0.0 < protocol["3 Sites"][2] < 0.10


def test_fig6b_disk_usage(performance_grid):
    series = figure_series(performance_grid, "fig6b")
    # with 6 CPUs, centralized or 6 sites, the disk becomes the
    # bottleneck at 2000 clients (read one / write all)
    assert series["6 CPU"][-1] > 0.7
    assert series["6 Sites"][-1] > 0.7
    # disk usage grows with client count on every curve
    for label, _, _ in SYSTEM_CONFIGS:
        assert series[label][-1] > series[label][0]
    # per-site disk load is the same replicated or not: every site
    # applies every write
    assert series["6 Sites"][-1] == pytest.approx(series["6 CPU"][-1], abs=0.2)


def test_fig6c_network(performance_grid):
    series = figure_series(performance_grid, "fig6c")
    # centralized configurations produce no protocol traffic at all
    assert performance_grid.value("1 CPU c500", "net_kbps") == 0.0
    # traffic grows linearly-ish with clients/throughput
    three = series["3 Sites"]
    assert three[-1] > 2.5 * three[1] * (CLIENT_LEVELS[1] / CLIENT_LEVELS[-1]) * 2
    assert all(b >= a * 0.9 for a, b in zip(three, three[1:]))
    # 6 sites carry more group-maintenance traffic than 3 sites
    for i in range(len(CLIENT_LEVELS)):
        assert series["6 Sites"][i] > series["3 Sites"][i] * 0.95
    # a typical LAN comfortably handles the traffic (<< 100 Mbit/s)
    assert series["6 Sites"][-1] < 12_500  # KB/s == 100 Mbit
