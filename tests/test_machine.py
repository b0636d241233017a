"""Step semantics: one access per step, markers, waits, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import (RoundRobin, Scripted, SystemState, Workload, build_bl,
                    build_bwbgme, build_glb, random_schedule, run, step)
from gmesim import machine
from gmesim.errors import ConfigurationError
from gmesim.machine import (CS_ENTER, DOORWAY_COMPLETE, DOORWAY_START,
                            EXIT_COMPLETE, Section)
from gmesim.monitors import check_mutual_exclusion, check_section_order
from oracle_memory import Memory as OracleMemory
from util import (check, distinct_sessions, doorway_done, drive, effectively_blocked,
                  entered_cs, finished)


def test_first_doorway_step_writes_choosing():
    state = SystemState(build_glb(2), distinct_sessions(2))
    ev = step(state, 1)
    assert ev.kind == "write" and ev.reg == "Choosing[1]" and ev.value is True
    assert ev.line == 3
    assert DOORWAY_START in ev.markers
    assert ev.section is Section.DOORWAY


def test_wait_line_polls_without_advancing():
    # P2 sits mid-doorway with Choosing set and a conflicting session;
    # P1's line-8 evaluations keep failing and its pc stays on line 8.
    spec = build_glb(2)
    state = SystemState(spec, distinct_sessions(2))
    drive(state, 2, lambda ev: ev.line == 4 and ev.kind == "write")  # P2 announces
    ev = drive(state, 1, lambda ev: ev.outcome == "fail")
    assert ev.line == 8 and ev.j == 2
    assert effectively_blocked(state, 1)
    lines = {step(state, 1).line for _ in range(20)}
    assert lines == {8}
    assert effectively_blocked(state, 1)


def test_blocked_process_cannot_pass_alone():
    spec = build_glb(2)
    state = SystemState(spec, distinct_sessions(2))
    drive(state, 2, lambda ev: ev.line == 4 and ev.kind == "write")
    blocked_at = drive(state, 1, lambda ev: ev.outcome == "fail").line
    for _ in range(100):
        assert step(state, 1).line == blocked_at


def test_not_blocked_in_cs_or_on_true_wait():
    spec = build_glb(2)
    state = SystemState(spec, distinct_sessions(2))
    drive(state, 1, entered_cs)
    assert not effectively_blocked(state, 1)
    # P2 at line 8 with P1 in the CS: Choosing[1] is false, condition true.
    drive(state, 2, doorway_done)
    assert not effectively_blocked(state, 2)


def test_exhausted_process_noop():
    state = SystemState(build_glb(1), Workload.from_sessions([[1]]))
    drive(state, 1, finished)
    ev = step(state, 1)
    assert ev.kind == "noop" and ev.inv == -1
    assert state.all_done()


def test_empty_workload_is_exhausted_immediately():
    state = SystemState(build_glb(2), Workload.from_sessions([[1], []]))
    assert state.exhausted(2)
    assert step(state, 2).kind == "noop"


def test_sessions_must_be_positive():
    with pytest.raises(ConfigurationError):
        Workload.from_sessions([[0]])
    with pytest.raises(ConfigurationError):
        Workload.from_sessions([[-3]])


def test_single_process_trace_shape():
    state = SystemState(build_glb(1), Workload.from_sessions([[1]]))
    result = run(state, RoundRobin(), step_cap=1000)
    assert result.completed
    markers = [m for ev in result.trace.events for m in ev.markers]
    assert markers == [DOORWAY_START, DOORWAY_COMPLETE, CS_ENTER, "cs-exit",
                       EXIT_COMPLETE]
    assert not any(ev.outcome == "fail" for ev in result.trace.events)


def test_two_conflicting_processes_complete_everywhere():
    for make in (lambda: RoundRobin(), lambda: random_schedule(2, 1),
                 lambda: random_schedule(2, 2)):
        state = SystemState(build_glb(2), distinct_sessions(2))
        result = run(state, make(), step_cap=10_000)
        assert result.completed
        assert check(check_mutual_exclusion, result.trace).ok
        assert check(check_section_order, result.trace).ok


def test_step_cap_truncates_and_flags():
    state = SystemState(build_glb(3), distinct_sessions(3, invocations=5))
    result = run(state, RoundRobin(), step_cap=10)
    assert result.cap_hit and not result.completed
    assert result.trace.meta["cap_hit"]
    assert len(result.trace.events) == 10


def test_replay_determinism_scripted():
    pids = [1, 2, 3, 1, 1, 2, 3, 3, 2, 1] * 40
    a = run(SystemState(build_glb(3), distinct_sessions(3)), Scripted(pids),
            step_cap=10_000)
    b = run(SystemState(build_glb(3), distinct_sessions(3)), Scripted(pids),
            step_cap=10_000)
    assert [(e.pid, e.line, e.kind, e.reg, e.value, e.rmr) for e in a.trace.events] \
        == [(e.pid, e.line, e.kind, e.reg, e.value, e.rmr) for e in b.trace.events]
    assert a.rmr_totals == b.rmr_totals


def test_replay_determinism_random_seed():
    a = run(SystemState(build_bwbgme(3), distinct_sessions(3, invocations=2)),
            random_schedule(3, 42), step_cap=50_000)
    b = run(SystemState(build_bwbgme(3), distinct_sessions(3, invocations=2)),
            random_schedule(3, 42), step_cap=50_000)
    assert [e.pid for e in a.trace.events] == [e.pid for e in b.trace.events]
    assert a.rmr_totals == b.rmr_totals


def test_section_markers_ordered_on_random_runs():
    for seed in range(8):
        for build in (build_glb, build_bwbgme, build_bl):
            state = SystemState(build(3), distinct_sessions(3, invocations=2))
            result = run(state, random_schedule(3, seed), step_cap=100_000)
            assert result.completed
            assert check(check_section_order, result.trace).ok


DOORWAY_STEPS = {"glb": lambda n: n + 3, "bwbgme": lambda n: n + 7,
                 "bl": lambda n: 1}


def test_doorway_is_bounded_and_exact():
    # The doorway is wait-free: its own-step count is a fixed function of N.
    from gmesim.monitors import build_invocations
    for build, name in ((build_glb, "glb"), (build_bwbgme, "bwbgme"), (build_bl, "bl")):
        for n in (1, 2, 4):
            state = SystemState(build(n), distinct_sessions(n))
            result = run(state, random_schedule(n, 3), step_cap=200_000)
            assert result.completed
            for rec in build_invocations(result.trace):
                own = [ev for ev in result.trace.events
                       if ev.pid == rec.pid and ev.inv == rec.inv
                       and rec.ds <= ev.index <= rec.dc]
                assert len(own) == DOORWAY_STEPS[name](n)


def test_one_shared_access_per_step():
    # Structurally enforced inside step(); verify the recorded event never
    # claims more than one register.
    state = SystemState(build_bwbgme(2), distinct_sessions(2))
    result = run(state, RoundRobin(), step_cap=10_000)
    for ev in result.trace.events:
        assert ev.kind in ("read", "write", "local", "noop")
        if ev.kind == "local":
            assert ev.reg is None and ev.rmr is False


def test_value_key_roundtrip():
    spec = build_bwbgme(2)
    wl = distinct_sessions(2)
    state = SystemState(spec, wl)
    for _ in range(9):
        step(state, 1)
        step(state, 2)
    key = state.value_key()
    clone = SystemState(spec, wl)
    clone.load_value_key(key)
    assert clone.value_key() == key


def test_runs_match_value_cache_oracle(monkeypatch):
    # Whole runs under the value-carrying cache model, which checks every
    # hit against the store, give the same events and RMR totals.
    rng = random.Random(11)
    cases = []
    for build in (build_glb, build_bwbgme, build_bl):
        for n in (2, 3, 5):
            sessions = [[rng.randint(1, 2) for _ in range(2)] for _ in range(n)]
            cases.append((build, n, sessions, rng.randrange(1 << 16)))

    def run_all():
        out = []
        for build, n, sessions, seed in cases:
            state = SystemState(build(n), Workload.from_sessions(sessions))
            result = run(state, random_schedule(n, seed), step_cap=200_000)
            assert result.completed
            out.append((result.trace.events, list(state.mem.totals)))
        return out

    bitmask = run_all()
    monkeypatch.setattr(machine, "Memory", OracleMemory)
    assert run_all() == bitmask


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["glb", "bwbgme", "bl"]),
       st.lists(st.integers(min_value=1, max_value=3), max_size=150))
def test_arbitrary_schedules_preserve_safety(name, pids):
    build = {"glb": build_glb, "bwbgme": build_bwbgme, "bl": build_bl}[name]
    state = SystemState(build(3), distinct_sessions(3, invocations=2))
    result = run(state, Scripted(pids), step_cap=len(pids) + 1)
    assert check(check_mutual_exclusion, result.trace).ok
    assert check(check_section_order, result.trace).ok
    if name == "bwbgme":
        from gmesim.monitors import check_flip_invariant, check_token_bound
        assert check(check_token_bound, result.trace).ok
        assert check(check_flip_invariant, result.trace).ok
