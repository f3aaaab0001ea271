"""Shared machinery for the paper-figure tests.

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
it is tier-1's largest fixture but one.

The suite runs ``dbsm`` alone: the
paper-shape assertions are calibrated against ``dbsm`` — the protocol
the paper measures — and other protocols legitimately diverge (that
divergence being the point of the comparison), so shape assertions are
enforced only for ``dbsm``.  Another protocol's figures come from the
CLI: ``python -m repro.runner run fig5 --protocol X --artifact-dir
DIR``, then ``python -m repro.runner report DIR --figure fig5a``.  An
explicit ``REPRO_SCALE`` below the default 0.3 runs grids smaller than
the shapes are calibrated for, and some shape assertions then fail.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import ResultSet
from repro.campaigns import get_campaign
from repro.runner import run_campaign


#: Per-cell transaction count of the Figure 5/6 grid when ``REPRO_SCALE``
#: is unset: the smallest round count at which every fig5 / fig6 / table1
#: shape assertion still holds (at 1 500 ``test_fig6c_network`` fails).
GRID_TRANSACTIONS = 2000


@pytest.fixture(scope="session")
def performance_grid() -> ResultSet:
    """All (system config, client level) points of Figures 5/6, expanded
    from the registered ``fig5`` campaign spec and executed through the
    campaign runner (parallel when REPRO_WORKERS is set, resumable when
    REPRO_ARTIFACT_DIR is set).

    The Figure 5/6 grid as an axis-tagged ResultSet, in the canonical
    SYSTEM_CONFIGS x CLIENT_LEVELS order (so figure tables keep the
    historical row/column ordering whatever order the cells ran in).
    The spec's protocol-prefix label rule keeps the historical artifact
    names: centralized baselines and ``dbsm`` cells stay protocol-free
    (existing caches remain valid and the expensive centralized runs
    are shared)."""
    spec = (
        get_campaign("fig5")
        # None: the REPRO_SCALE-scaled paper count, when one was asked for
        .with_axis(
            "transactions",
            (None if "REPRO_SCALE" in os.environ else GRID_TRANSACTIONS,),
        )
        # the figure suite's tighter sampling/drain windows
        .with_axis("sample_interval", (2.0,))
        .with_axis("drain_time", (5.0,))
    )
    labelled = spec.expand()
    campaign = run_campaign(
        labelled, campaign="fig5-grid", progress=True, manifest=spec.manifest()
    )
    return ResultSet.from_campaign(campaign, spec=spec)


def figure_series(performance_grid, figure_key):
    """Print one Figure 5/6 table and return its
    ``{system label: [value per client level]}`` series — the shared
    shape every fig5/fig6 assertion reads."""
    from repro.analysis import figure_table, render_figure

    table = figure_table(performance_grid, figure_key)
    print(render_figure(table, figure_key))
    return table.columns()
