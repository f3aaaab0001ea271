"""The generated TPC-C stream, pinned: specs and RNG position.

``result_digests.json`` pins what the simulator makes of the workload;
this file pins the workload itself, so a generator change that draws
one random number more or builds one id differently fails here, by
name, before it shows up as a changed digest three layers down.  The
golden file was generated at PR 13 (the commit before the one-pass
builders) and must only ever change together with
``tests/golden/result_digests.json``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.tpcc.workload import TpccWorkload

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "tpcc_stream.json"
STREAMS = json.loads(GOLDEN.read_text())
SPECS = 2_000


def fingerprint(config: dict) -> dict:
    rng = random.Random(config["rng_seed"])
    workload = TpccWorkload(
        config["warehouses"],
        rng=rng,
        site_index=config["site_index"],
        site_count=config["site_count"],
        readset_escalation_threshold=config["readset_escalation_threshold"],
    )
    digest = hashlib.sha256()
    for client_id in range(SPECS):
        spec = workload.next_transaction(client_id)
        # ``write_sizes`` is a dict compared by content: its insertion
        # order is not part of the spec.
        digest.update(
            repr(
                (
                    spec.tx_class,
                    spec.operations,
                    spec.read_set,
                    spec.write_set,
                    sorted(spec.write_sizes.items()),
                    spec.commit_cpu,
                    spec.commit_sectors,
                    spec.intrinsic_abort,
                )
            ).encode()
        )
    return {
        "specs_sha256": digest.hexdigest(),
        "rng_state_sha256": hashlib.sha256(repr(rng.getstate()).encode()).hexdigest(),
        "generated": dict(sorted(workload.generated.items())),
    }


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_generated_stream_matches_golden(stream):
    entry = STREAMS[stream]
    old = {key: entry[key] for key in ("specs_sha256", "rng_state_sha256", "generated")}
    new = fingerprint(entry["config"])
    assert new == old, (
        f"{stream}: generated TPC-C stream changed ({old} -> {new}).  Equal "
        f"specs and RNG draws are what keeps every simulated result "
        f"bit-identical; if the change is intended, re-baseline this entry "
        f"in tests/golden/tpcc_stream.json together with "
        f"tests/golden/result_digests.json and say why in the PR."
    )
