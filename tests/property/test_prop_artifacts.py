"""Property test: the artifact reader under any damage to a real cell.

A stored cell comes from outside the program: a crashed writer leaves a
prefix, an editor or another tool leaves anything.  Hypothesis takes
the bytes of one real cell artifact and damages them one way: a field
replaced by a value of every other JSON type (huge integers, NaN and the
infinities among them), truncation at any byte, a value nested past the
recursion limit, a byte that is not UTF-8.  Every input must decode or
raise :class:`ArtifactError`; whatever it is, resume (``load``) returns
no result for what did not decode and the live view's refresh does not
raise.
"""

import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import Scenario, ScenarioConfig
from repro.dashboard import CampaignView
from repro.runner import ArtifactError, ArtifactStore

LABEL = "victim"
CONFIG = ScenarioConfig(sites=1, clients=8, transactions=40, sample_interval=0.5)
#: Stands for the too-deep value until the payload is text.
DEEP = "\x00deep"


def deep(depth):
    return "[" * depth + "]" * depth


@lru_cache(maxsize=None)
def stored():
    """``(text, paths)``: the bytes of one real cell artifact and the
    path of every field in it — every key of each object, the first two
    elements of each list.  The envelope's
    ``label`` is left out: a label that differs is a collision, which
    is refused, not re-run."""
    with tempfile.TemporaryDirectory() as root:
        path = ArtifactStore(root).save(LABEL, Scenario(CONFIG).run())
        text = path.read_bytes()
    payload = json.loads(text)
    paths = []

    def walk(node, at):
        children = (
            node.items() if isinstance(node, dict)
            else enumerate(node[:2]) if isinstance(node, list) else ()
        )
        for key, child in children:
            paths.append(at + (key,))
            walk(child, at + (key,))

    walk(payload, ())
    paths.remove(("label",))
    return text, paths


def replaced(path, value):
    """The stored payload as JSON bytes, the field at ``path`` set to
    ``value``."""
    payload = json.loads(stored()[0])
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(payload).encode()


json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**64, -(2**63) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# Deferred: the real cell is run when the first example is drawn, not
# when the module is collected.
field_paths = st.deferred(lambda: st.sampled_from(stored()[1]))
offsets = st.deferred(lambda: st.integers(min_value=0, max_value=len(stored()[0])))

#: Each kind of damage, as the bytes of the damaged file.
replace_field = st.builds(replaced, field_paths, json_values)
nest_field = st.builds(
    lambda path: replaced(path, DEEP).replace(
        json.dumps(DEEP).encode(), deep(2 * sys.getrecursionlimit()).encode()
    ),
    field_paths,
)
truncate = offsets.map(lambda cut: stored()[0][:cut])
not_utf8 = st.builds(
    lambda at, byte: stored()[0][:at] + bytes([byte]) + stored()[0][at:],
    offsets,
    st.integers(min_value=0x80, max_value=0xFF),
)
damaged = st.one_of(replace_field, nest_field, truncate, not_utf8)


@given(damaged)
@settings(max_examples=150, deadline=None)
def test_a_damaged_cell_decodes_or_is_an_artifact_error(data):
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        path = store.path_for(LABEL)
        path.write_bytes(data)
        try:
            payload = ArtifactStore.read_cell(path)
            ArtifactStore.decode(path, payload)
        except ArtifactError:
            payload = None
        loaded = store.load(LABEL, CONFIG)
        if payload is None or payload["result"]["config"] != CONFIG.to_dict():
            assert loaded is None
        else:
            assert loaded is not None
        CampaignView(Path(root)).refresh()
