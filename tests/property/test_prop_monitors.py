"""Property test: the streaming ``one-copy-sr`` certifier agrees
verdict-for-verdict with the post-hoc
:func:`repro.core.safety.check_consistency` on randomized commit-log
interleavings, including crashed-prefix, mid-rejoin and
snapshot-install (rejoin completed) cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.safety import CommitLog, SafetyViolation, check_consistency
from repro.monitors.serializability import OneCopySerializability

entry_values = st.integers(min_value=1, max_value=40)


@st.composite
def commit_histories(draw):
    """A randomized group history.

    Returns ``(n_sites, per_site_events, final_logs)`` where
    ``per_site_events`` is each site's ordered hook script and
    ``final_logs`` the equivalent post-hoc :class:`CommitLog` set.
    Sites may be operational (agreed sequence, possibly short or
    mutated — a genuine violation when so), crashed after a prefix,
    mid-rejoin (crashed then rejoined, snapshot not yet installed), or
    fully rejoined (snapshot adopted, then further agreed commits).
    """
    n_sites = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=0, max_value=10))
    agreed = [(i + 1, draw(entry_values)) for i in range(length)]

    def mutated(prefix):
        """Possibly corrupt one entry's tx_id (keeps seqs monotonic)."""
        if prefix and draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=len(prefix) - 1))
            seq, tx = prefix[i]
            prefix = list(prefix)
            prefix[i] = (seq, tx + 1000)
        return list(prefix)

    per_site_events = []
    final_logs = []
    for site in range(n_sites):
        kind = draw(
            st.sampled_from(["operational", "crash", "mid-rejoin", "rejoined"])
        )
        take = draw(st.integers(min_value=0, max_value=length))
        committed = mutated(agreed[:take])
        events = [("commit", seq, tx) for seq, tx in committed]
        if kind == "operational":
            # Possibly short (a prefix is NOT enough for an operational
            # site) and possibly mutated — both genuine violations.
            crashed = False
            final = committed
        elif kind == "crash":
            events.append(("crash",))
            crashed = True
            final = committed
        elif kind == "mid-rejoin":
            events.append(("crash",))
            events.append(("rejoin",))
            crashed = True  # non-operational until the snapshot installs
            final = committed
        else:  # rejoined: snapshot adopted, then more agreed commits
            events.append(("crash",))
            events.append(("rejoin",))
            cut = draw(st.integers(min_value=0, max_value=length))
            snapshot = mutated(agreed[:cut])
            events.append(("snapshot", list(snapshot)))
            extra = draw(st.integers(min_value=0, max_value=length - cut))
            tail = agreed[cut : cut + extra]
            events.extend(("commit", seq, tx) for seq, tx in tail)
            crashed = False
            final = list(snapshot) + list(tail)
        per_site_events.append(events)
        final_logs.append(
            CommitLog(
                site=f"site{site}",
                commit_seq=[seq for seq, _ in final],
                tx_id=[tx for _, tx in final],
                crashed=crashed,
            )
        )

    return n_sites, per_site_events, final_logs


@st.composite
def interleavings(draw):
    """A history plus a random cross-site interleaving of its events
    (per-site order preserved — that is the only order the real event
    path guarantees)."""
    n_sites, per_site_events, final_logs = draw(commit_histories())
    cursors = [0] * n_sites
    stream = []
    while True:
        ready = [s for s in range(n_sites) if cursors[s] < len(per_site_events[s])]
        if not ready:
            break
        site = draw(st.sampled_from(ready))
        stream.append((site, per_site_events[site][cursors[site]]))
        cursors[site] += 1
    return n_sites, stream, final_logs


@settings(max_examples=200, deadline=None)
@given(interleavings())
def test_streaming_certifier_matches_posthoc_check(case):
    n_sites, stream, final_logs = case

    monitor = OneCopySerializability()
    for site in range(n_sites):
        monitor.note_site(site, f"site{site}")
    for site, event in stream:
        if event[0] == "commit":
            monitor.on_commit(site, event[1], event[2])
        elif event[0] == "crash":
            monitor.on_crash(site)
        elif event[0] == "rejoin":
            monitor.on_rejoin(site)
        else:
            monitor.on_snapshot_install(site, event[1])
    monitor.finalize()

    try:
        check_consistency(final_logs)
        posthoc_clean = True
    except SafetyViolation:
        posthoc_clean = False

    assert (not monitor.violations) == posthoc_clean, (
        f"verdicts disagree: monitor={[v.detail for v in monitor.violations]} "
        f"posthoc_clean={posthoc_clean} logs="
        f"{[(l.site, l.crashed, l.entries) for l in final_logs]}"
    )


@settings(max_examples=100, deadline=None)
@given(interleavings())
def test_violations_name_an_existing_site(case):
    n_sites, stream, final_logs = case
    monitor = OneCopySerializability()
    for site in range(n_sites):
        monitor.note_site(site, f"site{site}")
    for site, event in stream:
        if event[0] == "commit":
            monitor.on_commit(site, event[1], event[2])
        elif event[0] == "crash":
            monitor.on_crash(site)
        elif event[0] == "rejoin":
            monitor.on_rejoin(site)
        else:
            monitor.on_snapshot_install(site, event[1])
    monitor.finalize()
    names = {f"site{s}" for s in range(n_sites)}
    for violation in monitor.violations:
        assert violation.monitor == "one-copy-sr"
        assert violation.site in names
        assert violation.detail
