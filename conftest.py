"""One Hypothesis profile for the whole tree.

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

import os

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", settings.get_profile("default"))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
