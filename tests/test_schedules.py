"""Schedule sources: determinism, fairness windows, script validation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_scans
from gmesim import (RandomSchedule, RoundRobin, Scripted, SystemState, Workload,
                    build_bl, build_bwbgme, build_glb, random_schedule)
from gmesim.errors import ConfigurationError
from util import distinct_sessions, run_collected


def pid_sequence(seed, n=3, window=None, length=60):
    state = SystemState(build_glb(n), distinct_sessions(n, invocations=3))
    schedule = random_schedule(n, seed, window)
    out = []
    for _ in range(length):
        pid = schedule.next(state.live_pids())
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
                live = state.live_pids()
                pid = schedule.next(live)
                if pid is None:
                    break
                live = set(live)
                assert pid in live  # a finished process is never picked
                picks.append((pid, live))
                step(state, pid)
            assert not state.live_pids()
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
    # The schedule picks from the run loop's live list and keeps its pick
    # stamps across calls; the oracle ignores that list, rescans the state
    # and ages every process on every call.
    build, sessions, window, seed = case
    n = len(sessions)
    events = []
    for make in (lambda state: RandomSchedule(n, seed, window),
                 lambda state: oracle_scans.RandomSchedule(state, seed, window)):
        state = SystemState(build(n), Workload(sessions))
        result = run_collected(state, make(state), step_cap=100_000)
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
    for make in (lambda state: RandomSchedule(n, seed, 4 * n),
                 lambda state: oracle_scans.RandomSchedule(state, seed, 4 * n)):
        state = SystemState(build(n), Workload(sessions))
        result = run_collected(state, make(state), step_cap=step_cap)
        assert result.completed if n == 24 else result.cap_hit
        events.append(result.trace.events)
    assert events[0] == events[1]


def test_window_below_n_rejected():
    with pytest.raises(ConfigurationError):
        random_schedule(4, 0, window=3)
    schedule = random_schedule(4, 0, window=4)  # n is the minimum
    state = SystemState(build_glb(4), distinct_sessions(4))
    assert schedule.next(state.live_pids()) in (1, 2, 3, 4)


def test_round_robin_skips_exhausted():
    state = SystemState(build_glb(2), Workload([[1], []]))
    rr = RoundRobin()
    from gmesim import step
    seen = set()
    for _ in range(30):
        pid = rr.next(state.live_pids())
        if pid is None:
            break
        seen.add(pid)
        step(state, pid)
    assert seen == {1}


def test_scripted_rejects_out_of_range():
    with pytest.raises(ConfigurationError, match="scripted pid 5 outside 1..2"):
        Scripted([1, 2, 5], 2)


def test_scripted_exhaustion_stops_run():
    state = SystemState(build_glb(2), distinct_sessions(2))
    result = run_collected(state, Scripted([1, 2, 1], 2), step_cap=100)
    assert len(result.trace.events) == 3
    assert not result.completed and not result.cap_hit


class Recording:
    """A schedule that, before each pick, checks the list the run loop
    hands it against the state's own live pids and the oracle's."""

    def __init__(self, state, schedule):
        self.state, self.schedule, self.calls = state, schedule, 0

    def next(self, live):
        assert live == self.state.live_pids() == oracle_scans.live_pids(self.state), live
        self.calls += 1
        return self.schedule.next(live)


@st.composite
def schedules_over_workloads(draw):
    n = draw(st.integers(1, 5))
    # uneven invocation counts, zero included
    sessions = draw(st.lists(st.lists(st.integers(1, 3), max_size=3),
                             min_size=n, max_size=n))
    build = draw(st.sampled_from((build_glb, build_bwbgme, build_bl)))
    kind = draw(st.sampled_from(("random", "round_robin", "scripted")))
    if kind == "random":
        schedule = random_schedule(n, draw(st.integers(0, 2**32 - 1)))
    elif kind == "round_robin":
        schedule = RoundRobin()
    else:
        # a script may step a finished process, which takes a noop
        schedule = Scripted(draw(st.lists(st.integers(1, n), max_size=300)), n)
    return build(n), Workload(sessions), kind, schedule


@settings(max_examples=80, deadline=None)
@given(schedules_over_workloads())
def test_run_loop_hands_every_schedule_the_live_pids(case):
    # The run loop keeps the live list itself, and removes a pid only on
    # the step that finishes it; before every pick it must equal what
    # the state says.  A random or round-robin run goes to its end.
    spec, wl, kind, schedule = case
    state = SystemState(spec, wl)
    recording = Recording(state, schedule)
    result = run_collected(state, recording, step_cap=100_000)
    assert result.completed == (not state.live_pids())
    assert recording.calls >= len(result.trace.events) - result.deadlocked
    if kind != "scripted":
        assert result.completed
