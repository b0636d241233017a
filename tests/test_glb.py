"""Generalized Lamport bakery: token selection, ordering, RMR bounds."""

import pytest

from gmesim import (RoundRobin, Scripted, SystemState, Workload, build_glb, monitors,
                    random_schedule, step)
from gmesim.errors import ConfigurationError
from gmesim.machine import Section
from gmesim.monitors import (FAIL, build_invocations, check_bounded_exit,
                             check_mutual_exclusion, check_wait_rmr_bounds, max_token_number)
from util import (check, distinct_sessions, doorway_done, drive, entered_cs, exit_writes,
                  finished, run_collected)


def token_of(state, pid):
    return state.mem.store[state.mem.names.index(f"Token[{pid}]")]


def test_zero_processes_rejected():
    with pytest.raises(ConfigurationError):
        build_glb(0)


def test_sequential_doorways_pick_1_2_3():
    spec = build_glb(3)
    state = SystemState(spec, distinct_sessions(3))
    for pid in (1, 2, 3):
        drive(state, pid, doorway_done)
    assert [token_of(state, pid) for pid in (1, 2, 3)] == [1, 2, 3]


def test_solo_process_token_1_and_no_waiting():
    state = SystemState(build_glb(4), Workload([[7], [], [], []]))
    drive(state, 1, doorway_done)
    assert token_of(state, 1) == 1
    ev = drive(state, 1, finished)
    # no false wait evaluation on the way to the CS
    state2 = SystemState(build_glb(4), Workload([[7], [], [], []]))
    result = run_collected(state2, RoundRobin(), step_cap=1000)
    assert not any(e.outcome == "fail" for e in result.trace.events)


def test_doorway_concurrent_tie_broken_by_pid():
    # Both read max 0 before either writes: both pick token 1; the smaller
    # pid wins the tie and enters the CS first.
    spec = build_glb(2)
    state = SystemState(spec, distinct_sessions(2))
    drive(state, 1, lambda ev: ev.line == 5 and ev.kind == "read")
    drive(state, 2, lambda ev: ev.line == 5 and ev.kind == "read")
    drive(state, 1, doorway_done)
    drive(state, 2, doorway_done)
    assert token_of(state, 1) == 1 and token_of(state, 2) == 1
    ev = drive(state, 2,
               lambda e: e.line == 9 and e.outcome in ("pass", "fail") and e.j == 1)
    assert ev.outcome == "fail"  # P2 loses the tie
    drive(state, 1, entered_cs)  # P1 sails through


def test_exit_is_exactly_two_writes():
    for seed in range(6):
        state = SystemState(build_glb(3), distinct_sessions(3, invocations=2))
        result = run_collected(state, random_schedule(3, seed), step_cap=100_000)
        assert result.completed
        assert check(check_bounded_exit, result.trace).ok
        writes = exit_writes(result.trace)
        for rec in build_invocations(result.trace):
            assert rec.exit_accesses == 2 and writes[rec.pid, rec.inv] == 2


def test_cs_implies_token_positive_and_session_set():
    spec = build_glb(3)
    state = SystemState(spec, distinct_sessions(3, invocations=2))
    schedule = random_schedule(3, 11)
    while (pid := schedule.next(state.live_pids())) is not None:
        step(state, pid)
        for p, env in enumerate(state.envs):
            if spec.pcs[env.pc][0] is Section.CS:
                assert token_of(state, p + 1) > 0
                sess = state.mem.store[state.mem.names.index(f"Session[{p + 1}]")]
                assert sess == env.mysession
    assert not state.live_pids()


def test_smallest_key_enters_first():
    # At every CS entry, no conflicting process with a completed doorway
    # and a live token holds a smaller (token, pid) key.
    for seed in range(10):
        state = SystemState(build_glb(4), distinct_sessions(4, invocations=2))
        result = run_collected(state, random_schedule(4, seed), step_cap=200_000)
        assert result.completed
        records = build_invocations(result.trace)
        # token commit (line 5) and reset (line 12) steps per invocation
        writes = {line: {(ev.pid, ev.inv): ev.index for ev in result.trace.events
                         if ev.line == line and ev.kind == "write"}
                  for line in (5, 12)}
        for a in records:
            if a.ce is None:
                continue
            for b in records:
                if b.pid == a.pid or b.session == a.session:
                    continue
                if (b.pid, b.inv) not in writes[5] or b.dc is None:
                    continue
                reset = writes[12].get((b.pid, b.inv))
                live = b.dc <= a.ce and (reset is None or reset > a.ce)
                if live:
                    assert not (b.token, b.pid) < (a.token, a.pid)


def test_token_numbers_stay_within_the_invocation_count():
    # A doorway reads only tokens written before it, so the k-th token
    # written is at most k (Lamport's ticket argument): no token exceeds
    # the workload's invocation count, here 4 processes x 2.
    for seed in range(8):
        state = SystemState(build_glb(4), distinct_sessions(4, invocations=2))
        result = run_collected(state, random_schedule(4, seed), step_cap=200_000)
        assert result.completed
        assert 1 <= max_token_number(build_invocations(result.trace)) <= 8, seed


def test_wait_rmr_bounds_hold_on_random_schedules():
    for n in (2, 3, 4):
        for seed in range(8):
            state = SystemState(build_glb(n), distinct_sessions(n, invocations=2))
            result = run_collected(state, random_schedule(n, seed), step_cap=200_000)
            assert result.completed
            verdict = check(check_wait_rmr_bounds, result.trace)
            assert verdict.ok, verdict.detail


def test_line8_worst_case_is_exactly_five_rmr(monkeypatch):
    # Adversarial schedule realizing the five-RMR ceiling of one line-8
    # pass: three Choosing fetches and two Session fetches, while the
    # watched neighbor finishes an invocation and opens a new conflicting
    # one.  More is impossible: the neighbor's second invocation cannot
    # reach the CS before the waiter does.  The verdict shows the pass is
    # tight: a ceiling of 4 fails on it, the real one of 5 holds.
    spec = build_glb(2)
    wl = Workload([[1, 1], [2]])
    state = SystemState(spec, wl)
    pids = []

    def d(pid, until):
        return drive(state, pid, until, pids)

    d(1, lambda ev: ev.line == 5 and ev.kind == "read")      # P1 mid-doorway
    d(2, lambda ev: ev.outcome == "fail")                     # P2 blocks on P1 (Ch 1, Se 1)
    d(1, entered_cs)                                          # P1 wins the tie
    d(1, finished)                                            # P1 exits invocation 1
    d(1, lambda ev: ev.line == 4 and ev.kind == "write")      # P1 re-announces, conflicting
    d(2, lambda ev: ev.outcome == "fail")                     # P2 refetches (Ch 2, Se 2)
    d(1, lambda ev: ev.line == 6 and ev.kind == "write")      # P1 completes doorway 2
    ev = d(2, lambda ev: ev.outcome == "pass")                # P2 passes on Choosing (Ch 3)
    assert ev.line == 8 and ev.j == 1

    # finish the run and re-play it through run() for the records
    d(2, finished)
    d(1, finished)
    result = run_collected(SystemState(spec, wl), Scripted(pids, spec.n), step_cap=10_000)
    assert result.completed
    assert check(check_mutual_exclusion, result.trace).ok
    assert monitors._PASS_RMR_BOUNDS["glb"][8] == 5
    assert check(check_wait_rmr_bounds, result.trace).ok
    monkeypatch.setitem(monitors._PASS_RMR_BOUNDS["glb"], 8, 4)
    verdict = check(check_wait_rmr_bounds, result.trace)
    assert verdict.status == FAIL and verdict.witness[1] == 2
    assert verdict.detail == "P2 inv 0: line 8 pass for j=1 cost 5 RMR > 4"
