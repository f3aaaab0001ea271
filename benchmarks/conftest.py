"""Shared machinery for the paper-reproduction benchmarks.

Each ``test_fig*`` / ``test_table*`` module regenerates one figure or
table of the paper's evaluation (§4.2, §5).  The heavy client sweeps are
computed once per pytest session and shared across figures (Figures 5
and 6 and Table 1 read the same grid, exactly like the paper).  These
tests check shapes and print tables; the simulator's own cost is
measured by ``bench/run.py`` (``BENCHMARK.json``), nowhere else.

The grid is executed through the campaign runner, so the standard knobs
apply: ``REPRO_SCALE`` (default 0.3) scales per-run transaction counts
(``REPRO_SCALE=1`` reproduces the paper's full 10 000-transaction runs);
``REPRO_WORKERS`` farms grid cells to that many worker processes; and
``REPRO_ARTIFACT_DIR`` persists per-cell results so a re-run only
computes missing cells.  Metrics are identical whichever path ran them.
With ``REPRO_SCALE`` unset the 25-cell Figure 5/6 grid runs
``GRID_TRANSACTIONS`` per cell instead of the default scale's 3 000 —
it is tier-1's largest fixture but one (ROADMAP item 0(c)).

``REPRO_PROTOCOL`` selects the replication protocol of the replicated
cells (default ``dbsm``), so the same Figure 5/6 performance grid and
Figure 7 fault grid can be regenerated per protocol and compared.  The
paper-shape assertions are calibrated against ``dbsm`` — the protocol
the paper measures — and other protocols legitimately diverge (that
divergence being the point of the comparison), so shape assertions are
enforced only for ``dbsm``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import pytest

from repro.analysis import ResultSet, format_table
from repro.campaigns import get_campaign
from repro.core.env import env_choice
from repro.core.experiment import ScenarioResult
from repro.core.scenarios import CLIENT_LEVELS, SYSTEM_CONFIGS
from repro.protocols import available_protocols
from repro.runner import run_campaign


#: Per-cell transaction count of the Figure 5/6 grid when ``REPRO_SCALE``
#: is unset: the smallest round count at which every fig5 / fig6 / table1
#: shape assertion still holds (at 1 500 ``test_fig6c_network`` fails).
GRID_TRANSACTIONS = 2000


def bench_protocol() -> str:
    """The replication protocol under benchmark (``REPRO_PROTOCOL``).

    Strict: an unregistered value raises (naming the registry) instead
    of warn-and-fall-back — the protocol decides *what* the benchmark
    measures, and silently benchmarking ``dbsm`` under a typo'd name
    would green-light the wrong experiment.  (The CLI's ``--protocol``
    is equally strict via argparse choices.)"""
    return env_choice(
        "REPRO_PROTOCOL", "dbsm", available_protocols(), strict=True
    )


def assert_paper_shapes() -> bool:
    """Whether the paper's dbsm-calibrated shape assertions apply."""
    return bench_protocol() == "dbsm"


@pytest.fixture(scope="session")
def performance_grid():
    """All (system config, client level) points of Figures 5/6, expanded
    from the registered ``fig5`` campaign spec and executed through the
    campaign runner (parallel when REPRO_WORKERS is set, resumable when
    REPRO_ARTIFACT_DIR is set).

    The spec's protocol-prefix label rule keeps the historical artifact
    names: centralized baselines and ``dbsm`` cells stay protocol-free
    (existing caches remain valid and the expensive centralized runs
    are shared), while any other REPRO_PROTOCOL value scopes its
    replicated cells so stored protocols never clobber each other."""
    spec = (
        get_campaign("fig5")
        .with_axis("protocol", (bench_protocol(),))
        # None: the REPRO_SCALE-scaled paper count, when one was asked for
        .with_axis(
            "transactions",
            (None if "REPRO_SCALE" in os.environ else GRID_TRANSACTIONS,),
        )
        # the bench suite's tighter sampling/drain windows
        .with_axis("sample_interval", (2.0,))
        .with_axis("drain_time", (5.0,))
    )
    system_label = {
        (sites, cpus): label for label, sites, cpus in SYSTEM_CONFIGS
    }
    labelled = spec.expand()
    campaign = run_campaign(
        labelled, campaign="fig5-grid", progress=True, manifest=spec.manifest()
    )
    grid: Dict[Tuple[str, int], ScenarioResult] = {}
    for (_, config), (_, result) in zip(labelled, campaign.pairs()):
        key = (system_label[(config.sites, config.cpus_per_site)], config.clients)
        grid[key] = result
    return grid


def grid_resultset(performance_grid) -> ResultSet:
    """The Figure 5/6 grid as an axis-tagged ResultSet, in the canonical
    SYSTEM_CONFIGS x CLIENT_LEVELS order (so figure tables keep the
    historical row/column ordering whatever order the cells ran in)."""
    return ResultSet.from_results(
        (
            f"{label} c{clients}",
            performance_grid[(label, clients)],
            {"system": label, "clients": clients},
        )
        for label, _, _ in SYSTEM_CONFIGS
        for clients in CLIENT_LEVELS
    )


def figure_series(performance_grid, figure_key):
    """Print one Figure 5/6 table and return its
    ``{system label: [value per client level]}`` series — the shared
    shape every fig5/fig6 assertion reads."""
    from repro.analysis import figure_table, render_figure

    table = figure_table(grid_resultset(performance_grid), figure_key)
    print(render_figure(table, figure_key))
    return table.columns()


def print_table(title: str, headers, rows) -> None:
    """Paper-style fixed-width table on stdout (shown with pytest -s);
    rendered by :mod:`repro.analysis` so every table in the suite shares
    one formatter."""
    print(format_table(title, headers, rows))
