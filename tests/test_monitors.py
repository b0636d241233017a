"""Monitor checkers against manufactured and real traces."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import SystemState, build_bwbgme, build_glb, run
from gmesim.errors import ConsistencyError
from gmesim.machine import (CS_ENTER, CS_EXIT, DOORWAY_COMPLETE, DOORWAY_START,
                            EXIT_COMPLETE, Section, Trace, TraceEvent)
from gmesim.memory import BLACK, WHITE
from gmesim.monitors import (FAIL, INAPPLICABLE, PASS, build_invocations,
                             check_bounded_exit, check_concurrent_entry,
                             check_fcfs, check_flip_invariant, check_implications,
                             check_mutual_exclusion, check_progress,
                             check_token_bound, monitors_for)
from gmesim.schedules import RoundRobin
from util import (check, distinct_sessions, flip_token_against_oracle,
                  me_fcfs_against_oracle)


def ev(index, pid, inv=0, line=0, kind="local", reg=None, value=None, rmr=False,
       section=Section.WAITING, markers=(), outcome=None, j=None):
    return TraceEvent(index, pid, inv, line, kind, reg, value, rmr, section,
                      markers, outcome, j)


def synthetic(algorithm, n, events, sessions):
    return Trace(algorithm, n, events,
                 meta={"workload_sessions": sessions,
                       "sessions": sorted({s for per in sessions for s in per}),
                       "completed": True, "deadlocked": False, "cap_hit": False,
                       "initial_color": WHITE})


def invocation_events(pid, session, base, enter=None, exit_at=None):
    """Minimal well-formed invocation marker skeleton."""
    enter = base + 2 if enter is None else enter
    exit_at = enter + 1 if exit_at is None else exit_at
    return [
        ev(base, pid, markers=(DOORWAY_START,), section=Section.DOORWAY),
        ev(base + 1, pid, markers=(DOORWAY_COMPLETE,), section=Section.DOORWAY),
        ev(enter, pid, markers=(CS_ENTER,), section=Section.WAITING),
        ev(exit_at, pid, markers=(CS_EXIT,), section=Section.CS),
        ev(exit_at + 1, pid, markers=(EXIT_COMPLETE,), section=Section.EXIT,
           kind="write"),
    ]


def test_me_fails_on_conflicting_overlap():
    events = sorted(
        invocation_events(1, 1, base=0, enter=4, exit_at=10)
        + invocation_events(2, 2, base=2, enter=6, exit_at=8),
        key=lambda e: e.index)
    trace = synthetic("glb", 2, events, [[1], [2]])
    verdict = check(check_mutual_exclusion, trace)
    assert verdict.status == FAIL
    assert verdict.witness[:2] == (4, 6)


def test_me_allows_same_session_overlap():
    events = sorted(
        invocation_events(1, 1, base=0, enter=4, exit_at=10)
        + invocation_events(2, 1, base=2, enter=6, exit_at=8),
        key=lambda e: e.index)
    trace = synthetic("glb", 2, events, [[1], [1]])
    assert check(check_mutual_exclusion, trace).status == PASS


def test_me_passes_on_empty_trace():
    assert check(check_mutual_exclusion, synthetic("glb", 2, [], [[], []])).status == PASS


def test_witnesses_name_the_earliest_violation():
    # P1 and P2 overlap from step 20, but P2 and P3 already from step 10.
    events = sorted(
        invocation_events(1, 1, base=0, enter=20, exit_at=24)
        + invocation_events(2, 2, base=2, enter=6, exit_at=21)
        + invocation_events(3, 1, base=7, enter=10, exit_at=12),
        key=lambda e: e.index)
    trace = synthetic("glb", 3, events, [[1], [2], [1]])
    assert check(check_mutual_exclusion, trace).witness == (6, 10, 2, 3)
    # P2 overtakes P1 at step 20, but P3 already at step 10.
    events = sorted(
        invocation_events(1, 1, base=0, enter=30, exit_at=31)
        + invocation_events(2, 2, base=2, enter=20, exit_at=21)
        + invocation_events(3, 2, base=6, enter=10, exit_at=11),
        key=lambda e: e.index)
    trace = synthetic("glb", 3, events, [[1], [2], [2]])
    assert check(check_fcfs, trace).witness == (1, 10, 1, 3)


def test_fcfs_fails_on_reversed_entry():
    # P1 completes its doorway before P2 starts, yet P2 enters first.
    events = sorted(
        invocation_events(1, 1, base=0, enter=20, exit_at=22)
        + invocation_events(2, 2, base=5, enter=10, exit_at=12),
        key=lambda e: e.index)
    trace = synthetic("glb", 2, events, [[1], [2]])
    assert check(check_fcfs, trace).status == FAIL


def test_fcfs_allows_doorway_concurrent_any_order():
    # Overlapping doorways: either entry order is fine.
    events = sorted(
        invocation_events(1, 1, base=0, enter=20, exit_at=22)
        + invocation_events(2, 2, base=1, enter=10, exit_at=12),
        key=lambda e: e.index)
    events[1], events[2] = events[2], events[1]  # interleave doorways
    trace = synthetic("glb", 2, events, [[1], [2]])
    assert check(check_fcfs, trace).status == PASS


def test_fcfs_ignores_same_session():
    events = sorted(
        invocation_events(1, 1, base=0, enter=20, exit_at=22)
        + invocation_events(2, 1, base=5, enter=10, exit_at=12),
        key=lambda e: e.index)
    trace = synthetic("glb", 2, events, [[1], [1]])
    assert check(check_fcfs, trace).status == PASS


def test_fcfs_flags_overtake_even_if_victim_never_enters():
    events = (invocation_events(2, 2, base=5, enter=10, exit_at=12)
              + [ev(0, 1, markers=(DOORWAY_START,), section=Section.DOORWAY),
                 ev(1, 1, markers=(DOORWAY_COMPLETE,), section=Section.DOORWAY)])
    trace = synthetic("glb", 2, sorted(events, key=lambda e: e.index), [[1], [2]])
    assert check(check_fcfs, trace).status == FAIL


def test_concurrent_entry_detector():
    base = invocation_events(1, 1, base=0)
    bad = base + [ev(9, 1, inv=0, line=8, kind="read", reg="Choosing[2]",
                     section=Section.WAITING, outcome="fail", j=2)]
    trace = synthetic("glb", 2, sorted(bad, key=lambda e: e.index), [[1], [1]])
    assert check(check_concurrent_entry, trace).status == FAIL

    multi = synthetic("glb", 2, base, [[1], [2]])
    assert check(check_concurrent_entry, multi).status == INAPPLICABLE


def test_bounded_exit_detector():
    events = invocation_events(1, 1, base=0, enter=4, exit_at=6)
    # three exit writes instead of glb's two
    events += [ev(7, 1, line=12, kind="write", reg="Token[1]", value=0,
                  section=Section.EXIT),
               ev(8, 1, line=13, kind="write", reg="Session[1]", value=0,
                  section=Section.EXIT)]
    trace = synthetic("glb", 1, sorted(events, key=lambda e: e.index), [[1]])
    assert check(check_bounded_exit, trace).status == FAIL  # 3 accesses != 2


def test_token_bound_detector():
    events = [ev(0, 1, line=14, kind="write", reg="Token[1]",
                 value=(1, WHITE, 4), section=Section.DOORWAY)]
    trace = synthetic("bwbgme", 2, events, [[1], [2]])
    assert check(check_token_bound, trace).status == FAIL
    events = [ev(0, 1, line=14, kind="write", reg="Token[1]",
                 value=(1, WHITE, 3), section=Section.DOORWAY)]
    trace = synthetic("bwbgme", 2, events, [[1], [2]])
    assert check(check_token_bound, trace).status == PASS


def test_flip_invariant_detector():
    events = [
        ev(0, 1, line=5, kind="read", reg="GlobalColor", value=WHITE,
           section=Section.DOORWAY),
        ev(1, 2, line=28, kind="write", reg="GlobalColor", value=BLACK,
           section=Section.EXIT),
        ev(2, 3, line=30, kind="write", reg="GlobalColor", value=WHITE,
           section=Section.EXIT),
    ]
    trace = synthetic("bwbgme", 3, events, [[1], [2], [3]])
    verdict = check(check_flip_invariant, trace)
    assert verdict.status == FAIL and verdict.witness == (1, 2, 1)
    # same-value rewrites are not flips
    events[2] = ev(2, 3, line=30, kind="write", reg="GlobalColor", value=BLACK,
                   section=Section.EXIT)
    assert check(check_flip_invariant, trace).status == PASS


def test_flip_inapplicable_elsewhere():
    assert check(check_flip_invariant, synthetic("glb", 2, [], [[], []])).status \
        == INAPPLICABLE


def test_progress_deadlock_detector():
    events = [ev(0, 0, inv=-1, kind="deadlock", section=Section.REMAINDER)]
    trace = synthetic("glb", 2, events, [[1], [2]])
    verdict = check(check_progress, trace)
    assert verdict.status == FAIL and "deadlock" in verdict.detail


def test_progress_starvation_detector():
    starving = [ev(0, 1, markers=(DOORWAY_START,), section=Section.DOORWAY),
                ev(1, 1, markers=(DOORWAY_COMPLETE,), section=Section.DOORWAY)]
    others = (invocation_events(2, 2, base=2, enter=4, exit_at=6)
              + [e for e in invocation_events(3, 3, base=10, enter=12, exit_at=14)])
    trace = synthetic("glb", 3, sorted(starving + others, key=lambda e: e.index),
                      [[1], [2], [3]])
    verdict = check(check_progress, trace)
    assert verdict.status == FAIL and "starvation" in verdict.detail


def test_monitors_are_pure():
    state = SystemState(build_bwbgme(3), distinct_sessions(3, invocations=2))
    result = run(state, RoundRobin(), step_cap=100_000)
    records = build_invocations(result.trace)
    for name, monitor in monitors_for("bwbgme"):
        assert monitor(result.trace, records) == monitor(result.trace, records)


def test_starvation_on_a_complete_trace_implies_fcfs_or_deadlock_fail():
    # The FCFS checker counts overtaking a never-entering invocation as a
    # violation, so a starvation verdict can never coexist with FCFS
    # passing on a complete deadlock-free trace.
    starving = [ev(0, 1, markers=(DOORWAY_START,), section=Section.DOORWAY),
                ev(1, 1, markers=(DOORWAY_COMPLETE,), section=Section.DOORWAY)]
    others = (invocation_events(2, 2, base=2, enter=4, exit_at=6)
              + invocation_events(3, 3, base=10, enter=12, exit_at=14))
    trace = synthetic("glb", 3, sorted(starving + others, key=lambda e: e.index),
                      [[1], [2], [3]])
    verdicts = {"fcfs": check(check_fcfs, trace), "progress": check(check_progress, trace)}
    assert verdicts["progress"].status == FAIL
    assert verdicts["fcfs"].status == FAIL
    check_implications(verdicts, trace)  # consistent: both failed


def test_implication_check_raises_on_inconsistency():
    from gmesim.monitors import Verdict
    trace = synthetic("glb", 2, [], [[1], [2]])
    verdicts = {"fcfs": Verdict("fcfs", PASS),
                "progress": Verdict("progress", FAIL, detail="starvation: P1")}
    with pytest.raises(ConsistencyError):
        check_implications(verdicts, trace)
    # inapplicable on incomplete traces
    trace.meta["completed"] = False
    check_implications(verdicts, trace)


def test_build_invocations_sections_sum_to_ledger():
    state = SystemState(build_glb(3), distinct_sessions(3, invocations=2))
    result = run(state, RoundRobin(), step_cap=100_000)
    assert result.completed
    per_pid = {pid: 0 for pid in range(1, 4)}
    for rec in build_invocations(result.trace):
        per_pid[rec.pid] += rec.rmr_total
    assert [per_pid[p] for p in (1, 2, 3)] == result.rmr_totals


MARKERS = (DOORWAY_START, DOORWAY_COMPLETE, CS_ENTER, CS_EXIT, EXIT_COMPLETE)


def random_marker_trace(rnd):
    """2-5 processes, 1-3 sessions, a random interleaving of marker events
    and bwbgme's GlobalColor and Token accesses.

    No algorithm decides the order, so CS intervals overlap at random
    and doorways complete in any order: both verdicts of me and fcfs
    come up.  Each process runs its invocations in order, the last one
    possibly cut short; sometimes two consecutive markers of one
    invocation share an event (a doorway completed by entering, a CS
    left in the step that entered it).  Between its markers a process
    may read GlobalColor at line 5 (opening its flip window), write
    either color to it (a flip or a same-color rewrite), or write a
    token whose number may exceed N+1: both verdicts of flip and
    token_bound come up too.
    """
    n = rnd.randint(2, 5)
    n_sessions = rnd.randint(1, 3)
    sessions = [[rnd.randint(1, n_sessions) for _ in range(rnd.randint(0, 3))]
                for _ in range(n)]
    pending = []
    for pid, per in enumerate(sessions, start=1):
        queue = []
        for inv in range(len(per)):
            cut = rnd.randint(1, 5) if inv == len(per) - 1 else 5
            queue += [(pid, inv, m) for m in MARKERS[:cut]]
        pending.append(queue)
    accesses = rnd.random()  # how often a step is an access, not a marker
    events = []
    while any(pending):
        queue = rnd.choice([q for q in pending if q])
        pid, inv, marker = queue[0]
        if rnd.random() < accesses:
            access = rnd.choice((
                dict(line=5, kind="read", reg="GlobalColor", value=WHITE),
                dict(line=28, kind="write", reg="GlobalColor",
                     value=rnd.choice((WHITE, BLACK))),
                dict(line=14, kind="write", reg=f"Token[{pid}]",
                     value=(sessions[pid - 1][inv], WHITE, rnd.randint(0, n + 2)))))
            events.append(ev(len(events), pid, inv=inv, **access))
            continue
        queue.pop(0)
        markers = [marker]
        while queue and queue[0][1] == inv and rnd.random() < 0.2:
            markers.append(queue.pop(0)[2])
        events.append(ev(len(events), pid, inv=inv, markers=tuple(markers)))
    return synthetic("bwbgme", n, events, sessions)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_me_fcfs_sweeps_match_pairwise_oracle(rnd):
    me_fcfs_against_oracle(random_marker_trace(rnd))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_flip_token_folds_match_event_scan_oracle(rnd):
    flip_token_against_oracle(random_marker_trace(rnd))


def test_oracle_comparison_sees_both_verdicts():
    seen = Counter()
    for seed in range(200):
        trace = random_marker_trace(random.Random(seed))
        seen.update(me_fcfs_against_oracle(trace).items())
        seen.update(flip_token_against_oracle(trace).items())
    for prop in ("me", "fcfs", "flip", "token-bound"):
        assert seen[prop, PASS] and seen[prop, FAIL], seen
