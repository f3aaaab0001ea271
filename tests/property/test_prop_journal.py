"""Property test: the journal reader under any byte stream, split any way.

A live ``events.jsonl`` is read by polls that land anywhere in the
writer's output: mid-line, mid-character, between lines.  Hypothesis
builds one byte stream of valid event lines (sequence numbers drawn
from a small range, so duplicates are common) mixed with malformed
complete lines — truncated JSON, deeply nested truncated JSON,
non-UTF-8 bytes, JSON that is not an object, a wrong ``v``, a
non-integer ``seq`` — and an optional unfinished last line.  It appends
the stream to a file in arbitrary pieces, polling after each.  The
reader must never raise, its events must equal what one poll of the
whole file returns, and ``skipped`` must count exactly the malformed
complete lines.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dashboard.journal import JOURNAL_VERSION, JournalReader

seqs = st.integers(min_value=0, max_value=5)
labels = st.text(max_size=6)


def event_line(seq, label):
    event = {"v": JOURNAL_VERSION, "seq": seq, "kind": "cell-start", "label": label}
    return json.dumps(event, ensure_ascii=False).encode("utf-8")


#: ``(bytes of one line without its newline, is it a valid event)``.
valid = st.builds(lambda s, t: (event_line(s, t), True), seqs, labels)
truncated = st.builds(
    lambda line, cut: (line[: 1 + cut % (len(line) - 1)], False),
    st.builds(event_line, seqs, labels),
    st.integers(min_value=0),
)
too_deep = st.sampled_from([10, 10_000]).map(lambda depth: (b"[" * depth, False))
not_utf8 = st.builds(
    lambda line, at: (line[: at % len(line)] + b"\xff" + line[at % len(line):], False),
    st.builds(event_line, seqs, labels),
    st.integers(min_value=0),
)
not_an_object = st.sampled_from([b"[1, 2]", b'"event"', b"3", b"null"]).map(
    lambda line: (line, False)
)
#: Anything but the integer 1 — including the JSON values Python
#: compares equal to it.
wrong_versions = st.one_of(
    st.integers().filter(lambda v: v != JOURNAL_VERSION),
    st.sampled_from([True, 1.0, "1", None, [1]]),
)
wrong_v = st.builds(
    lambda v, s: (json.dumps({"v": v, "seq": s, "kind": "cell-start"}).encode(), False),
    wrong_versions,
    seqs,
)
bad_seq = st.builds(
    lambda s: (json.dumps({"v": JOURNAL_VERSION, "seq": s}).encode(), False),
    st.sampled_from([True, False, 1.0, "1", None]),
)
lines = st.lists(
    st.one_of(valid, valid, truncated, too_deep, not_utf8, not_an_object, wrong_v, bad_seq),
    max_size=12,
)
unfinished = st.sampled_from([b"", b'{"v": 1, "se', b"\xe2\x82"])


@given(lines, unfinished, st.lists(st.integers(min_value=0), max_size=8))
@settings(max_examples=300, deadline=None)
def test_any_split_of_the_stream_reads_as_one_poll(lines, tail, cuts):
    stream = b"".join(line + b"\n" for line, _ in lines) + tail
    splits = sorted({cut % (len(stream) + 1) for cut in cuts} | {len(stream)})
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "events.jsonl"
        path.write_bytes(b"")
        reader = JournalReader(path)
        events, written = [], 0
        for split in splits:
            with open(path, "ab") as fh:
                fh.write(stream[written:split])
            written = split
            events += reader.poll()
        whole = JournalReader(path)
        assert events == whole.poll()
    assert reader.skipped == whole.skipped == sum(not ok for _, ok in lines)
    assert len(events) == sum(ok for _, ok in lines)
    assert reader.last_seq == whole.last_seq
