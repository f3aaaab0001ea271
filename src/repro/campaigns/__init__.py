"""Declarative campaign specs, the named-campaign table, composition.

The paper's contribution is a testing *methodology* — crossing
workloads, fault-loads and protocols into comparison grids.  This
package makes the grid itself a first-class artifact: a
:class:`CampaignSpec` declares sweep axes and expands deterministically
into the labelled :class:`~repro.core.experiment.ScenarioConfig` cells
the runner executes; the :data:`CAMPAIGNS` table maps campaign names to
specs (the CLI's ``run``/``list``/``describe``/``export`` subcommands
enumerate it); and specs round-trip through JSON so a campaign can be
saved, diffed, sliced or widened (``with_axis``) and re-run from a
file.

**Contract.** ``get_campaign(name).expand()`` yields the same labelled
cells, in the same order, in every process; ``from_dict(to_dict(s))``
equals ``s``; ``spec_hash()`` identifies the spec content and is
recorded in campaign artifacts for provenance.

**Invariants.**

* *Legacy parity* — the built-in ``smoke``/``fig5``/``fig7``/
  ``recovery`` specs expand cell-for-cell identical (labels and config
  encodings) to the hard-coded grid builders they replaced, so existing
  artifact directories keep resuming;
* *Label safety* — expansion rejects duplicate labels, and any swept
  axis the label template omits is appended automatically;
* *Table-complete* — everything the CLI can run is in the table or a
  spec file; there are no private grids.

Quick start::

    from repro.campaigns import CampaignSpec, get_campaign
    from repro.runner import run_campaign

    spec = get_campaign("fig7").with_axis("protocol", ("dbsm", "primary-copy"))
    campaign = run_campaign(spec.expand(), workers=4,
                            artifact_dir="results/fig7",
                            manifest=spec.manifest())
"""

from .builtins import CAMPAIGNS, available_campaigns, get_campaign
from .spec import (
    Axis,
    CampaignSpec,
    CampaignSpecError,
    DEFAULT_PROTOCOL,
    SPEC_FORMAT,
    parse_axis_override,
)

__all__ = [
    "CAMPAIGNS",
    "Axis",
    "CampaignSpec",
    "CampaignSpecError",
    "DEFAULT_PROTOCOL",
    "SPEC_FORMAT",
    "available_campaigns",
    "get_campaign",
    "parse_axis_override",
]
