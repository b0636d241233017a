"""Monitor checkers against manufactured and real traces."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import SystemState, Workload, build_bl, build_bwbgme, build_glb, random_schedule
from gmesim import machine, monitors
from gmesim.errors import ConsistencyError
from gmesim.machine import (CS_ENTER, CS_EXIT, DOORWAY_COMPLETE, DOORWAY_START,
                            EXIT_COMPLETE, Section, Trace, TraceEvent)
from gmesim.memory import BLACK, WHITE
from gmesim.monitors import (CHECKS, FAIL, INAPPLICABLE, MONITORS, PASS, Verdict,
                             build_invocations,
                             check_bounded_exit, check_concurrent_entry,
                             check_fcfs, check_flip_invariant, check_implications,
                             check_mutual_exclusion, check_progress, check_section_order,
                             check_token_bound, check_wait_rmr_bounds)
from gmesim.schedules import RoundRobin
import oracle_monitors
from oracle_memory import Memory as OracleMemory
from util import (check, distinct_sessions, flip_token_against_oracle,
                  me_fcfs_against_oracle, run_collected)


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
        ev(exit_at + 1, pid, line=13, markers=(EXIT_COMPLETE,), section=Section.EXIT,
           kind="write", reg=f"Session[{pid}]"),
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
    # P3 enters while P1 (since 8) and P2 (since 6) are in the CS: P2 is named.
    events = sorted(
        invocation_events(1, 1, base=2, enter=8, exit_at=20)
        + invocation_events(2, 1, base=0, enter=6, exit_at=23)
        + invocation_events(3, 2, base=4, enter=10, exit_at=12),
        key=lambda e: e.index)
    trace = synthetic("glb", 3, events, [[1], [1], [2]])
    assert check(check_mutual_exclusion, trace).witness == (6, 10, 2, 3)
    # P3 overtakes P1 (doorway done at 3) and P2 (done at 1): P2 is named.
    events = sorted(
        invocation_events(1, 1, base=2, enter=20, exit_at=21)
        + invocation_events(2, 1, base=0, enter=30, exit_at=31)
        + invocation_events(3, 2, base=4, enter=10, exit_at=11),
        key=lambda e: e.index)
    trace = synthetic("glb", 3, events, [[1], [1], [2]])
    assert check(check_fcfs, trace).witness == (1, 10, 2, 3)


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


def test_bounded_exit_counts_glb_exits_exactly():
    # A completed glb exit of one write is as wrong as one of three.
    trace = synthetic("glb", 1, invocation_events(1, 1, base=0), [[1]])
    verdict = check(check_bounded_exit, trace)
    assert (verdict.status, verdict.witness, verdict.detail) == (
        FAIL, (1, 0), "P1 inv 0: 1 exit accesses, expected exactly 2")


def test_section_order_detector():
    def markers(*seq):
        return synthetic("glb", 1, [ev(i, 1, markers=(m,)) for i, m in enumerate(seq)], [[1]])

    assert check(check_section_order, markers(DOORWAY_START, DOORWAY_COMPLETE, CS_ENTER)).ok
    verdict = check(check_section_order, markers(DOORWAY_START, CS_ENTER, DOORWAY_COMPLETE))
    assert (verdict.status, verdict.detail) == (
        FAIL, "P1 inv 0: markers out of order [0, 2, 1, None, None]")
    verdict = check(check_section_order, markers(DOORWAY_START, CS_ENTER))
    assert (verdict.status, verdict.witness, verdict.detail) == (
        FAIL, (1, 0), "P1 inv 0: marker gap [0, None, 1, None, None]")


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


def test_wait_rmr_counts_spurious_refetches():
    # P1 waits at line 21 on P2: each round reads GlobalColor remotely,
    # then finds Token[2] still of the other colour.  N-1 = 1 such round
    # is allowed, the second fails the invocation.
    def rounds(k):
        events = []
        for r in range(k):
            events += [ev(2 * r, 1, line=21, kind="read", reg="GlobalColor", value=WHITE,
                          rmr=True, j=2),
                       ev(2 * r + 1, 1, line=21, kind="read", reg="Token[2]",
                          value=(2, BLACK, 1), outcome="fail", j=2)]
        return synthetic("bwbgme", 2, events, [[1], [2]])

    assert check(check_wait_rmr_bounds, rounds(1)).ok
    trace = rounds(2)
    verdict = check(check_wait_rmr_bounds, trace)
    assert (verdict.status, verdict.witness, verdict.detail) == (
        FAIL, (1, 0), "P1 inv 0: 2 spurious GlobalColor refetches > N-1")
    assert oracle_monitors.wait_passes(trace, {17: 5, 19: 2}) == (verdict, {(1, 0): 2})


def random_run(rnd):
    """A random glb or bwbgme run to its end: N=2-6, 1-4 invocations per
    process over 1-3 sessions, either initial colour, a random seed."""
    n = rnd.randint(2, 6)
    n_sessions = rnd.randint(1, 3)
    sessions = [[rnd.randint(1, n_sessions) for _ in range(rnd.randint(1, 4))]
                for _ in range(n)]
    spec = build_glb(n) if rnd.random() < 0.5 else build_bwbgme(n, rnd.choice((WHITE, BLACK)))
    result = run_collected(SystemState(spec, Workload(sessions)),
                           random_schedule(n, rnd.randrange(1 << 16)))
    assert result.completed
    return result.trace


def test_wait_rmr_fold_matches_pass_list_oracle(monkeypatch):
    # The fold decides each pass against its ceiling as it walks; the
    # oracle keeps every pass and judges them afterwards.  Compared on
    # random runs under every ceiling from 0 to 5: the verdict (status,
    # witness, detail, which reports the failing pass's whole cost) and
    # every record's refetch count.
    rnd = random.Random(19)
    seen = Counter()
    for _ in range(160):
        trace = random_run(rnd)
        for ceiling in range(6):
            ceilings = dict.fromkeys(monitors._PASS_RMR_BOUNDS[trace.algorithm], ceiling)
            monkeypatch.setitem(monitors._PASS_RMR_BOUNDS, trace.algorithm, ceilings)
            records = build_invocations(trace)
            verdict = check_wait_rmr_bounds(trace, records)
            want, refetches = oracle_monitors.wait_passes(trace, ceilings)
            assert (verdict.status, verdict.witness, verdict.detail) == \
                (want.status, want.witness, want.detail), (trace.algorithm, ceiling)
            assert {(r.pid, r.inv): r.gc_spurious_refetches for r in records} == refetches
            seen[verdict.status] += 1
            seen["refetched"] += any(refetches.values())
    assert seen[PASS] and seen[FAIL] and seen["refetched"], seen


def fold_fields(trace) -> dict:
    """The fold's records in `oracle_monitors.records`' shape, in order."""
    return {(r.pid, r.inv): {
        "ds": r.ds, "dc": r.dc, "ce": r.ce, "cx": r.cx, "xc": r.xc, "rmr": r.rmr_by_section,
        "entry_steps": r.entry_steps, "exit_accesses": r.exit_accesses,
        "blocked": r.blocked, "first_blocked": r.first_blocked}
        for r in build_invocations(trace)}


def test_fold_matches_event_scan_oracle():
    # The fold reaches each process's current record directly; the oracle
    # files every event under its (pid, inv).  Same records, in the same
    # order, on seeded random runs of every algorithm at N = 2..8.
    rnd = random.Random(21)
    blocked = 0
    for n in range(2, 9):
        for build in (build_glb, lambda n: build_bwbgme(n, rnd.choice((WHITE, BLACK))),
                      build_bl):
            sessions = [[rnd.randint(1, 3) for _ in range(rnd.randint(1, 3))]
                        for _ in range(n)]
            result = run_collected(SystemState(build(n), Workload(sessions)),
                                   random_schedule(n, rnd.randrange(1 << 16)))
            assert result.completed
            want = oracle_monitors.records(result.trace)
            got = fold_fields(result.trace)
            assert list(got) == list(want) and got == want, (result.trace.algorithm, n)
            blocked += sum(r["blocked"] for r in want.values())
    assert blocked


def test_fold_returns_to_an_earlier_invocation():
    # P1's events go back to its invocation 0 after invocation 1 began:
    # they must land in the first record, not open a third.
    events = [
        ev(0, 1, inv=0, kind="write", reg="Competing[1]", rmr=True, section=Section.DOORWAY,
           markers=(DOORWAY_START,)),
        ev(1, 1, inv=1, kind="read", reg="Competing[2]", rmr=True, section=Section.DOORWAY,
           markers=(DOORWAY_START,)),
        ev(2, 2, inv=0, line=5, kind="read", reg="Competing[1]", rmr=True,
           markers=(DOORWAY_START, DOORWAY_COMPLETE), outcome="fail", j=1),
        ev(3, 1, inv=0, line=10, kind="read", reg="Competing[2]", rmr=True,
           markers=(DOORWAY_COMPLETE,), outcome="fail", j=2),
        ev(4, 1, inv=0, line=10, kind="read", reg="Competing[2]", outcome="fail", j=2),
        ev(5, 1, inv=1, kind="write", reg="Competing[1]", rmr=True, section=Section.EXIT),
        ev(6, 1, inv=0, line=10, kind="read", reg="Competing[2]", outcome="pass", j=2),
        ev(7, 1, inv=0, section=Section.CS, markers=(CS_ENTER,)),
    ]
    trace = synthetic("bl", 2, events, [[1, 1], [2]])
    want = oracle_monitors.records(trace)
    assert list(want) == [(1, 0), (1, 1), (2, 0)]
    assert want[1, 0]["blocked"] == 1 and want[1, 0]["first_blocked"] == (3, 10, 2)
    assert want[1, 0]["entry_steps"] == 4 and want[1, 1]["exit_accesses"] == 1
    got = fold_fields(trace)
    assert list(got) == list(want) and got == want


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
    result = run_collected(state, RoundRobin(), step_cap=100_000)
    records = build_invocations(result.trace)
    for name in CHECKS["bwbgme"]:
        assert MONITORS[name](result.trace, records) == MONITORS[name](result.trace, records)


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
    trace = synthetic("glb", 2, [], [[1], [2]])
    verdicts = {"fcfs": Verdict(PASS), "progress": Verdict(FAIL, detail="starvation: P1")}
    with pytest.raises(ConsistencyError):
        check_implications(verdicts, trace)
    # inapplicable on incomplete traces
    trace.meta["completed"] = False
    check_implications(verdicts, trace)


def test_build_invocations_sections_sum_to_ledger(monkeypatch):
    # The fold's per-section RMR counts, summed per process, equal the
    # totals the value-cache memory model charges on its own.
    monkeypatch.setattr(machine, "Memory", OracleMemory)
    state = SystemState(build_glb(3), distinct_sessions(3, invocations=2))
    result = run_collected(state, RoundRobin(), step_cap=100_000)
    assert result.completed
    per_pid = {pid: 0 for pid in range(1, 4)}
    for rec in build_invocations(result.trace):
        per_pid[rec.pid] += rec.rmr_total
    assert [per_pid[p] for p in (1, 2, 3)] == state.mem.totals
    assert sum(state.mem.totals) > 0


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
    for prop in ("me", "fcfs", "flip", "token_bound"):
        assert seen[prop, PASS] and seen[prop, FAIL], seen
