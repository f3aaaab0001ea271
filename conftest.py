"""Session-wide test settings: one Hypothesis profile for the whole
tree, and a frozen baseline heap.

Tier-1 must give the same verdict on every run and on every host, so by
default every property test is derandomized (its examples are a pure
function of the test) and no example database is read or written; each
test keeps its own ``max_examples``.  Random exploration — fresh
examples every run, failures remembered in ``.hypothesis/`` — is
``HYPOTHESIS_PROFILE=explore``.

Loaded here, before any test module is imported, because a
``@settings(...)`` decorator inherits what it does not name from the
profile active when it is evaluated.
"""

import gc
import os

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", settings.get_profile("default"))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


def pytest_collection_finish(session):
    """Freeze the heap that collection built (pytest, its plugins, every
    test module): a direct ``Scenario.run`` sweeps the whole heap once
    (``core/gcpause.py``), and a frozen object is never walked, so each
    sweep costs what the tests built rather than pytest's own baseline
    of some 54 k objects.  Nothing is loosened: frozen objects are only
    exempt from the cyclic collector, and what collection built lives
    for the whole session anyway."""
    gc.collect()
    gc.freeze()


def pytest_runtest_setup(item):
    """Freeze again after a test thawed the heap (``gc.unfreeze()``, as
    the benchmark's report loop does), or every later sweep walks it."""
    if not gc.get_freeze_count():
        gc.collect()
        gc.freeze()
