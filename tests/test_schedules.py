"""Schedule sources: determinism, fairness windows, script validation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_scans
from gmesim import (RandomSchedule, RoundRobin, Scripted, SystemState, Workload,
                    build_bwbgme, build_glb, random_schedule)
from gmesim.errors import ConfigurationError
from util import distinct_sessions, run_collected


def pid_sequence(seed, n=3, window=None, length=60):
    state = SystemState(build_glb(n), distinct_sessions(n, invocations=3))
    schedule = random_schedule(n, seed, window)
    out = []
    for _ in range(length):
        pid = schedule.next(state)
        if pid is None:
            break
        out.append(pid)
        from gmesim import step
        step(state, pid)
    return tuple(out)


def test_same_seed_same_sequence():
    assert pid_sequence(123) == pid_sequence(123)


def test_seeds_differ_almost_surely():
    seqs = {pid_sequence(seed) for seed in range(100)}
    assert len(seqs) >= 99


def test_fairness_window_is_hard():
    from gmesim import step
    # the second workload's processes run out at different times, and one
    # never starts
    for sessions in ([[1] * 4, [2] * 4, [3] * 4], [[1], [], [3] * 4, [2]]):
        n = len(sessions)
        for window, seed in itertools.product((n, n + 1, 7, 12), (5, 6)):
            state = SystemState(build_glb(n), Workload(sessions))
            schedule = random_schedule(n, seed=seed, window=window)
            picks = []
            while True:
                pid = schedule.next(state)
                if pid is None:
                    break
                live = set(state.live_pids())
                assert pid in live  # an exhausted process is never picked
                picks.append((pid, live))
                step(state, pid)
            assert state.all_done()
            # every live process appears in each window of w consecutive picks
            for start in range(len(picks) - window):
                chunk = picks[start:start + window]
                live_throughout = set.intersection(*(live for _, live in chunk))
                scheduled = {pid for pid, _ in chunk}
                assert live_throughout <= scheduled


@st.composite
def fair_runs(draw):
    n = draw(st.integers(1, 12))
    # uneven invocation counts, zero included
    sessions = draw(st.lists(st.lists(st.integers(1, 3), max_size=3),
                             min_size=n, max_size=n))
    window = draw(st.integers(n, 5 * n))
    seed = draw(st.integers(0, 2**32 - 1))
    build = draw(st.sampled_from((build_glb, build_bwbgme)))
    return build, sessions, window, seed


@settings(max_examples=40, deadline=None)
@given(fair_runs())
def test_random_schedule_matches_full_rescan(case):
    # The schedule keeps its live set and pick stamps across calls; the
    # oracle rescans the state and ages every process on every call.
    build, sessions, window, seed = case
    n = len(sessions)
    events = []
    for schedule in (RandomSchedule(seed, window), oracle_scans.RandomSchedule(seed, window)):
        state = SystemState(build(n), Workload(sessions))
        result = run_collected(state, schedule, step_cap=100_000)
        assert result.completed
        events.append(result.trace.events)  # one per pick, carrying its pid
    assert events[0] == events[1]


@pytest.mark.parametrize("build, n, seed, step_cap", [
    (build_glb, 24, 7, 100_000), (build_bwbgme, 24, 8, 100_000), (build_glb, 64, 9, 20_000)])
def test_random_schedule_matches_full_rescan_at_benchmark_sizes(build, n, seed, step_cap):
    # The draw takes k = 5 bits at N = 24 and k = 7 at N = 64, where the
    # schedule's own rejection loop stands in for Random.choice, which
    # the oracle still calls.  N = 24 runs to its end, so the live count
    # falls through every bit length; N = 64 stops at the step cap.
    sessions = [[pid % 3 + 1] for pid in range(n)]
    events = []
    for schedule in (RandomSchedule(seed, 4 * n), oracle_scans.RandomSchedule(seed, 4 * n)):
        result = run_collected(SystemState(build(n), Workload(sessions)), schedule,
                               step_cap=step_cap)
        assert result.completed if n == 24 else result.cap_hit
        events.append(result.trace.events)
    assert events[0] == events[1]


def test_window_below_n_rejected():
    with pytest.raises(ConfigurationError):
        random_schedule(4, 0, window=3)
    schedule = random_schedule(4, 0, window=4)  # n is the minimum
    state = SystemState(build_glb(4), distinct_sessions(4))
    assert schedule.next(state) in (1, 2, 3, 4)


def test_round_robin_skips_exhausted():
    state = SystemState(build_glb(2), Workload([[1], []]))
    rr = RoundRobin()
    from gmesim import step
    seen = set()
    for _ in range(30):
        pid = rr.next(state)
        if pid is None:
            break
        seen.add(pid)
        step(state, pid)
    assert seen == {1}


def test_scripted_rejects_out_of_range():
    state = SystemState(build_glb(2), distinct_sessions(2))
    with pytest.raises(ConfigurationError):
        run_collected(state, Scripted([1, 2, 5]), step_cap=100)


def test_scripted_exhaustion_stops_run():
    state = SystemState(build_glb(2), distinct_sessions(2))
    result = run_collected(state, Scripted([1, 2, 1]), step_cap=100)
    assert len(result.trace.events) == 3
    assert not result.completed and not result.cap_hit
