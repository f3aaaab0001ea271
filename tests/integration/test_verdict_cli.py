"""The CLI is the test: finding F2's cell is visible through ``run`` and
``report`` as the ``diverged`` verdict and a non-zero exit.

The cell is the one ``test_seed_1007_pin.py`` pins (its spec, verbatim):
the partitioned sequencer never rejoins and its commit log diverges
from the majority's.  Once that is fixed, the pin's strict xfail and
these expectations change together.
"""

import contextlib
import io
import json

import pytest

from repro.runner.__main__ import main

from test_seed_1007_pin import SPEC

LABEL = "partition-heal-sequencer"


def cli(argv):
    """``main(argv)``'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def summary_row(text):
    """The summary row of the cell, without its source column."""
    (row,) = [line for line in text.splitlines() if line.startswith(LABEL)]
    return row.split()[:-1]


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    root = tmp_path_factory.mktemp("seed-1007")
    spec_file = root / "spec.json"
    spec_file.write_text(json.dumps(SPEC))
    store = root / "store"
    argv = ["run", "--spec", str(spec_file), "--quiet", "--artifact-dir", str(store)]
    return store, cli(argv)


def test_run_exits_1_with_diverged(ran):
    _, (code, out) = ran
    assert code == 1
    assert summary_row(out)[1] == "diverged"


def test_report_prints_the_same_row_and_exits_1(ran):
    store, (_, out) = ran
    code, reported = cli(["report", str(store)])
    assert code == 1
    assert summary_row(reported) == summary_row(out)


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown", "html"])
def test_report_exits_1_in_every_format(ran, fmt):
    store, _ = ran
    code, out = cli(["report", str(store), "--format", fmt])
    assert code == 1
    if fmt == "json":
        assert [c["status"] for c in json.loads(out)["cells"]] == ["diverged"]
