"""Schedule sources: determinism, fairness windows, script validation."""

import itertools

import pytest

from gmesim import (RoundRobin, Scripted, SystemState, Workload, build_glb,
                    random_schedule, run)
from gmesim.errors import ConfigurationError
from util import distinct_sessions


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
            state = SystemState(build_glb(n), Workload.from_sessions(sessions))
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


def test_window_below_n_rejected():
    with pytest.raises(ConfigurationError):
        random_schedule(4, 0, window=3)
    schedule = random_schedule(4, 0, window=4)  # n is the minimum
    state = SystemState(build_glb(4), distinct_sessions(4))
    assert schedule.next(state) in (1, 2, 3, 4)


def test_round_robin_skips_exhausted():
    state = SystemState(build_glb(2), Workload.from_sessions([[1], []]))
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
        run(state, Scripted([1, 2, 5]), step_cap=100)


def test_scripted_exhaustion_stops_run():
    state = SystemState(build_glb(2), distinct_sessions(2))
    result = run(state, Scripted([1, 2, 1]), step_cap=100)
    assert len(result.trace.events) == 3
    assert not result.completed and not result.cap_hit
