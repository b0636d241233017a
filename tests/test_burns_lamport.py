"""Burns-Lamport: safety at small N, block counting, quadratic witness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import (Scripted, SystemState, Workload, bl_adversarial_schedule,
                    bl_adversarial_workload, block_counts, build_bl, explore,
                    random_schedule)
from gmesim.errors import ConfigurationError
from gmesim.monitors import build_invocations, check_bounded_exit, check_mutual_exclusion
from oracle_monitors import block_events
from util import check, distinct_sessions, drive, exit_writes, run_collected


def assert_blocks_match_oracle(n, trace) -> tuple:
    """The per-process block counts read off the records equal the
    event-scan oracle's; returns the oracle's (totals, by_blocker), the
    latter split by the process whose bit was seen set."""
    totals, by_blocker = block_events(trace)
    assert block_counts(n, build_invocations(trace)) == totals
    return totals, by_blocker


def test_solo_process_enters_without_blocking():
    state = SystemState(build_bl(1), Workload([[1]]))
    result = run_collected(state, random_schedule(1, 0), step_cap=100)
    assert result.completed
    assert assert_blocks_match_oracle(1, result.trace) == ({1: 0}, {})


def test_lower_bit_forces_reset_and_wait():
    # P2 finds Competing[1] set: it resets its own bit and waits at line 5.
    state = SystemState(build_bl(2), distinct_sessions(2))
    drive(state, 1, lambda ev: ev.line == 1 and ev.kind == "write")
    ev = drive(state, 2, lambda e: e.outcome == "fail")
    assert ev.line == 5 and ev.j == 1
    events = []
    state2 = SystemState(build_bl(2), distinct_sessions(2))
    drive(state2, 1, lambda e: e.line == 1 and e.kind == "write")
    drive(state2, 2, lambda e: e.outcome == "fail", pids=events)
    # the reset write happened before the wait
    assert state2.mem.store == [True, False]


def test_upward_wait_does_not_reset_bit():
    # While waiting on a higher-numbered bit the own bit stays set.
    state = SystemState(build_bl(2), distinct_sessions(2))
    drive(state, 2, lambda ev: ev.line == 1 and ev.kind == "write")
    ev = drive(state, 1, lambda e: e.outcome == "fail")
    assert ev.line == 10 and ev.j == 2
    assert state.mem.store[0] is True


def test_exhaustive_me_small_n():
    for n in (2, 3):
        report = explore(build_bl(n), distinct_sessions(n))
        assert report.violation_count() == 0
        assert report.deadlocks == 0


def test_exit_is_one_write():
    state = SystemState(build_bl(3), distinct_sessions(3, invocations=2))
    result = run_collected(state, random_schedule(3, 5), step_cap=100_000)
    assert result.completed
    assert check(check_bounded_exit, result.trace).ok
    writes = exit_writes(result.trace)
    for rec in build_invocations(result.trace):
        assert rec.exit_accesses == 1 and writes[rec.pid, rec.inv] == 1


def test_adversarial_schedule_needs_two():
    with pytest.raises(ConfigurationError):
        bl_adversarial_schedule(1)
    with pytest.raises(ConfigurationError):
        build_bl(0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 5), invocations=st.integers(1, 3), seed=st.integers(0, 10**6),
       script=st.lists(st.integers(1, 5), max_size=120), adversarial_n=st.integers(2, 8),
       cap=st.one_of(st.none(), st.integers(0, 300)))
def test_block_counts_match_event_scan_oracle(n, invocations, seed, script,
                                              adversarial_n, cap):
    # Random, scripted and adversarial bl runs, whole or cut short by a cap.
    workload = distinct_sessions(n, invocations=invocations)
    for size, wl, schedule in (
            (n, workload, random_schedule(n, seed)),
            (n, workload, Scripted([min(p, n) for p in script])),
            (adversarial_n, bl_adversarial_workload(adversarial_n),
             bl_adversarial_schedule(adversarial_n))):
        result = run_collected(SystemState(build_bl(size), wl), schedule,
                               step_cap=10**5 if cap is None else cap)
        assert_blocks_match_oracle(size, result.trace)


@pytest.mark.parametrize("n", range(2, 13))
def test_adversarial_block_counts_match_formula(n):
    schedule = bl_adversarial_schedule(n)
    state = SystemState(build_bl(n), bl_adversarial_workload(n))
    result = run_collected(state, schedule, step_cap=10**6)
    assert result.completed
    assert check(check_mutual_exclusion, result.trace).ok
    totals, by_blocker = assert_blocks_match_oracle(n, result.trace)
    assert totals[n] == n * (n - 1) // 2
    for j in range(1, n):
        assert by_blocker.get((n, j), 0) == j


def adversarial_total_rmr(n):
    schedule = bl_adversarial_schedule(n)
    state = SystemState(build_bl(n), bl_adversarial_workload(n))
    result = run_collected(state, schedule, step_cap=10**6)
    assert result.completed
    return sum(rec.rmr_total for rec in build_invocations(result.trace))


def test_adversarial_rmr_grows_superlinearly():
    for n in (4, 6):
        assert adversarial_total_rmr(2 * n) / adversarial_total_rmr(n) >= 3


def test_no_reset_after_upscan_begins():
    # Once an invocation starts its upward scan it never resets its bit
    # until the exit write.
    for seed in range(6):
        state = SystemState(build_bl(4), distinct_sessions(4, invocations=2))
        result = run_collected(state, random_schedule(4, seed), step_cap=200_000)
        assert result.completed
        upscanning = {}
        for ev in result.trace.events:
            if ev.pid == 0:
                continue
            if ev.line == 10:
                upscanning[ev.pid] = True
            elif ev.line == 1 or ev.line == 0:
                upscanning[ev.pid] = False
            elif ev.line == 4 and ev.kind == "write":
                assert not upscanning.get(ev.pid)
