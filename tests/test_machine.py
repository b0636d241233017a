"""Step semantics: the declared access, markers, waits, determinism."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import (RoundRobin, Scripted, SystemState, Workload, build_bl,
                    build_bwbgme, build_glb, random_schedule, step)
from gmesim import machine
from gmesim.errors import ConfigurationError
from gmesim.machine import (CS_ENTER, CS_EXIT, DOORWAY_COMPLETE, DOORWAY_START,
                            EXIT_COMPLETE, PC_REMAINDER, Section, TraceEvent, run, spins)
from gmesim.memory import Memory
from gmesim.monitors import (FAIL, build_invocations, check_mutual_exclusion, check_progress,
                             check_section_order)
import oracle_scans
from oracle_memory import Memory as OracleMemory
from register_kinds import check_kind, slot_kinds
from oracle_explorer import crosscheck_reachable
from util import (RecordingMemory, all_blocked, check, distinct_sessions, doorway_done, drive,
                  effectively_blocked, entered_cs, explored_specs, explored_workload,
                  finished, named, run_collected, stuck_glb_spec)


def test_first_doorway_step_writes_choosing():
    state = SystemState(build_glb(2), distinct_sessions(2))
    ev = named(step(state, 1))
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
    lines = {named(step(state, 1)).line for _ in range(20)}
    assert lines == {8}
    assert effectively_blocked(state, 1)


def test_blocked_process_cannot_pass_alone():
    spec = build_glb(2)
    state = SystemState(spec, distinct_sessions(2))
    drive(state, 2, lambda ev: ev.line == 4 and ev.kind == "write")
    blocked_at = drive(state, 1, lambda ev: ev.outcome == "fail").line
    for _ in range(100):
        assert named(step(state, 1)).line == blocked_at


def test_not_blocked_in_cs_or_on_true_wait():
    spec = build_glb(2)
    state = SystemState(spec, distinct_sessions(2))
    drive(state, 1, entered_cs)
    assert not effectively_blocked(state, 1)
    # P2 at line 8 with P1 in the CS: Choosing[1] is false, condition true.
    drive(state, 2, doorway_done)
    assert not effectively_blocked(state, 2)


def test_exhausted_process_noop():
    state = SystemState(build_glb(1), Workload([[1]]))
    drive(state, 1, finished)
    ev = named(step(state, 1))
    assert ev.kind == "noop" and ev.inv == -1
    assert state.live_pids() == []


def test_empty_workload_is_exhausted_immediately():
    state = SystemState(build_glb(2), Workload([[1], []]))
    assert state.live_pids() == [1]
    assert named(step(state, 2)).kind == "noop"


def test_sessions_must_be_positive():
    with pytest.raises(ConfigurationError):
        Workload([[0]])
    with pytest.raises(ConfigurationError):
        Workload([[-3]])


def test_workload_must_fit_the_spec():
    with pytest.raises(ConfigurationError, match="cs_steps must be >= 0"):
        Workload([[1]], cs_steps=-1)
    with pytest.raises(ConfigurationError, match="workload has 3 processes, algorithm has 2"):
        SystemState(build_glb(2), Workload([[1], [2], [3]]))


def test_single_process_trace_shape():
    state = SystemState(build_glb(1), Workload([[1]]))
    result = run_collected(state, RoundRobin(), step_cap=1000)
    assert result.completed
    markers = [m for ev in result.trace.events for m in ev.markers]
    assert markers == [DOORWAY_START, DOORWAY_COMPLETE, CS_ENTER, "cs-exit",
                       EXIT_COMPLETE]
    assert not any(ev.outcome == "fail" for ev in result.trace.events)


def test_two_conflicting_processes_complete_everywhere():
    for make in (lambda: RoundRobin(), lambda: random_schedule(2, 1),
                 lambda: random_schedule(2, 2)):
        state = SystemState(build_glb(2), distinct_sessions(2))
        result = run_collected(state, make(), step_cap=10_000)
        assert result.completed
        assert check(check_mutual_exclusion, result.trace).ok
        assert check(check_section_order, result.trace).ok


def test_step_cap_truncates_and_flags():
    state = SystemState(build_glb(3), distinct_sessions(3, invocations=5))
    result = run_collected(state, RoundRobin(), step_cap=10)
    assert result.cap_hit and not result.completed
    assert result.trace.meta["cap_hit"]
    assert len(result.trace.events) == 10


def test_run_ends_in_a_counted_deadlock_event():
    result = run_collected(SystemState(stuck_glb_spec(), distinct_sessions(2)), RoundRobin())
    events = result.trace.events
    assert result.deadlocked and not result.completed and not result.cap_hit
    assert result.trace.meta["deadlocked"] and not result.trace.meta["completed"]
    last = events[-1]
    assert (last.kind, last.pid, last.inv) == ("deadlock", 0, -1)
    assert "deadlock" not in {ev.kind for ev in events[:-1]}
    # it follows the failed evaluation that left both processes blocked,
    # and the step count includes it
    assert events[-2].outcome == "fail" and events[-2].line == 8
    # The check waits until both processes have failed since the last
    # write, which P2's last evaluation completes.
    assert [ev.pid for ev in events[-3:-1]] == [1, 2] and result.steps == 13
    assert result.steps == len(events) == last.index + 1
    verdict = check(check_progress, result.trace)
    assert verdict.status == FAIL and verdict.witness == (last.index,)
    # the same run, folded as it is made
    streamed = machine.run(SystemState(stuck_glb_spec(), distinct_sessions(2)), RoundRobin())
    records = build_invocations(streamed.trace)
    assert streamed.deadlocked and streamed.steps == result.steps
    assert records.deadlock_at == last.index
    assert check_progress(streamed.trace, records).witness == (last.index,)


def test_events_are_plain_tuples_in_field_order():
    # step's normal and noop events and run's deadlock event are plain
    # tuples, not TraceEvent instances, with TraceEvent's fields in its
    # order: the named view of each equals the event built by name.
    state = SystemState(build_glb(1), Workload([[1]]))
    first = step(state, 1)
    drive(state, 1, finished)
    noop = step(state, 1)
    stuck = machine.run(SystemState(stuck_glb_spec(), distinct_sessions(2)), RoundRobin())
    deadlock = list(stuck.trace.events)[-1]
    for ev, want in (
            (first, TraceEvent(index=0, pid=1, inv=0, line=3, kind="write", reg="Choosing[1]",
                               value=True, rmr=True, section=Section.DOORWAY,
                               markers=(DOORWAY_START,), outcome=None, j=None)),
            (noop, TraceEvent(index=state.step_index - 1, pid=1, inv=-1, line=0, kind="noop",
                              reg=None, value=None, rmr=False, section=Section.REMAINDER,
                              markers=(), outcome=None, j=None)),
            (deadlock, TraceEvent(index=12, pid=0, inv=-1, line=0, kind="deadlock", reg=None,
                                  value=None, rmr=False, section=Section.REMAINDER,
                                  markers=(), outcome=None, j=None))):
        assert type(ev) is tuple and len(ev) == len(TraceEvent._fields), ev
        assert TraceEvent._make(ev) == want


def test_replay_determinism_scripted():
    pids = [1, 2, 3, 1, 1, 2, 3, 3, 2, 1] * 40
    a = run_collected(SystemState(build_glb(3), distinct_sessions(3)), Scripted(pids, 3),
                      step_cap=10_000)
    b = run_collected(SystemState(build_glb(3), distinct_sessions(3)), Scripted(pids, 3),
                      step_cap=10_000)
    assert [(e.pid, e.line, e.kind, e.reg, e.value, e.rmr) for e in a.trace.events] \
        == [(e.pid, e.line, e.kind, e.reg, e.value, e.rmr) for e in b.trace.events]


def test_replay_determinism_random_seed():
    a = run_collected(SystemState(build_bwbgme(3), distinct_sessions(3, invocations=2)),
                      random_schedule(3, 42), step_cap=50_000)
    b = run_collected(SystemState(build_bwbgme(3), distinct_sessions(3, invocations=2)),
                      random_schedule(3, 42), step_cap=50_000)
    assert [(e.pid, e.rmr) for e in a.trace.events] == [(e.pid, e.rmr) for e in b.trace.events]


def test_section_markers_ordered_on_random_runs():
    for seed in range(8):
        for build in (build_glb, build_bwbgme, build_bl):
            state = SystemState(build(3), distinct_sessions(3, invocations=2))
            result = run_collected(state, random_schedule(3, seed), step_cap=100_000)
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
            result = run_collected(state, random_schedule(n, 3), step_cap=200_000)
            assert result.completed
            for rec in build_invocations(result.trace):
                own = [ev for ev in result.trace.events
                       if ev.pid == rec.pid and ev.inv == rec.inv
                       and rec.ds <= ev.index <= rec.dc]
                assert len(own) == DOORWAY_STEPS[name](n)


# Each section's lines in the paper's listings of the three algorithms.
PAPER_LINES = {
    "glb": {Section.DOORWAY: range(3, 7), Section.WAITING: range(7, 11),
            Section.CS: range(11, 12), Section.EXIT: range(12, 14)},
    "bwbgme": {Section.DOORWAY: range(3, 16), Section.WAITING: range(16, 24),
               Section.CS: range(24, 25), Section.EXIT: range(25, 35)},
    "bl": {Section.DOORWAY: range(1, 2), Section.WAITING: range(3, 11),
           Section.CS: range(11, 12), Section.EXIT: range(12, 13)},
}


def test_step_makes_the_declared_access(monkeypatch):
    # In every reachable state, asking a step for its access changes
    # neither the runtime nor the store, and the step then makes exactly
    # that access: the memory logs it, the store changes only by the
    # declared write, and the event reports its kind, register and value
    # (the value written, or the store's value read) with the cost the
    # memory charged.  A step that declares none is local and free.
    # The event's line lies in its section's lines in the paper.
    # Every non-remainder pc of each algorithm must be stepped
    # somewhere, so no branch goes unchecked.
    monkeypatch.setattr(machine, "Memory", RecordingMemory)
    stepped = defaultdict(set)
    for spec in explored_specs():
        declared = []

        def spy(access, declared=declared):
            def declare(env, p):
                key = env.key()
                declared.append(access(env, p))
                assert env.key() == key, declared
                return declared[-1]
            return declare

        def take_step(state, pid, spec=spec, declared=declared):
            mem = state.mem
            store = list(mem.store)
            mem.log.clear()
            declared.clear()
            stepped[spec.name].add(state.envs[pid - 1].pc or spec.entry_pc)
            ev = named(step(state, pid))
            assert ev.line in PAPER_LINES[spec.name][ev.section], (spec.name, ev)
            [access] = declared
            if access is None:
                assert not mem.log and mem.store == store
                assert (ev.kind, ev.reg, ev.value, ev.rmr) == ("local", None, None, False), ev
                return
            kind, slot = access[:2]
            if kind == "write":
                store[slot] = access[2]
            assert mem.store == store, (spec.name, access)
            [(logged, logged_slot, value, rmr)] = mem.log
            assert (logged, logged_slot, value) == (kind, slot, store[slot]), (spec.name, access)
            assert (ev.kind, ev.reg, ev.value, ev.rmr) == (kind, mem.names[slot], value, rmr)

        spec.pcs = {pc: (section, access and spy(access))
                    for pc, (section, access) in spec.pcs.items()}
        crosscheck_reachable(spec, explored_workload(), take_step=take_step)
    for spec in explored_specs():
        assert stepped[spec.name] == set(spec.pcs) - {PC_REMAINDER}, spec.name


def test_every_write_matches_its_register_kind(monkeypatch):
    # The kinds table (register_kinds.KINDS) against the initial store
    # and every write of the exhaustive walks and of random runs at N=4.
    monkeypatch.setattr(machine, "Memory", RecordingMemory)

    def check_writes(spec, mem):
        kinds = slot_kinds(spec)
        for kind, slot, value, _ in mem.log:
            if kind == "write":
                assert check_kind(kinds[slot], value), (spec.name, mem.names[slot], value)
        mem.log.clear()

    for spec in explored_specs():
        kinds = slot_kinds(spec)
        assert all(map(check_kind, kinds, Memory(spec.n, spec.registers).store))

        def take_step(state, pid):
            step(state, pid)
            check_writes(spec, state.mem)

        crosscheck_reachable(spec, explored_workload(), take_step=take_step)
    for build in (build_glb, build_bwbgme, build_bl):
        for seed in range(3):
            spec = build(4)
            state = SystemState(spec, Workload([[1, 2], [2, 1], [1, 1], [3, 2]]))
            assert run_collected(state, random_schedule(4, seed), step_cap=200_000).completed
            check_writes(spec, state.mem)


def test_spins_matches_the_wait_conditions():
    # An active process spins iff oracle_scans has a condition, written
    # by hand, for its pc and that condition is false; a pc without one
    # never spins.  Checked for every active process in every reachable
    # state of the N=2 explorations, of the N=3 configs the explore
    # benchmark runs and of bl at N=3, whose downward scan can spin only
    # below the top process.  Every step that reports an outcome is in
    # the waiting room, so no wait line sits in the doorway.
    probed = defaultdict(set)
    cases = [(spec, explored_workload()) for spec in explored_specs()]
    cases += [(build_glb(3), Workload([[1], [2], [1]])),
              (build_bwbgme(3), Workload([[1], [1], [2]])),
              (build_bl(3), Workload([[1], [2], [3]]))]
    for spec, wl in cases:
        conds = oracle_scans.wait_conds(spec)

        def take_step(state, pid, spec=spec, conds=conds):
            env = state.envs[pid - 1]
            if env.pc != PC_REMAINDER:
                store = state.mem.store
                cond = conds.get(env.pc)
                want = cond is not None and not cond(env, store, pid)
                assert spins(spec, env.key(), store, pid - 1) == want, \
                    (spec.name, spec.meta, pid, env.key(), store)
                probed[spec.name].add((env.pc, want))
            ev = named(step(state, pid))
            assert ev.outcome is None or ev.section is Section.WAITING, (spec.name, ev)

        crosscheck_reachable(spec, wl, take_step=take_step)
    for spec in explored_specs():
        assert {(pc, want) for pc in oracle_scans.wait_conds(spec)
                for want in (True, False)} <= probed[spec.name], spec.name


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
    # hit against the store, give the same events; the invocation fold's
    # per-process RMR sums equal the model's own totals.
    rng = random.Random(11)
    cases = []
    for build in (build_glb, build_bwbgme, build_bl):
        for n in (2, 3, 5):
            sessions = [[rng.randint(1, 2) for _ in range(2)] for _ in range(n)]
            cases.append((build, n, sessions, rng.randrange(1 << 16)))

    def run_all():
        out = []
        for build, n, sessions, seed in cases:
            state = SystemState(build(n), Workload(sessions))
            result = run_collected(state, random_schedule(n, seed), step_cap=200_000)
            assert result.completed
            per_pid = [0] * n
            for rec in build_invocations(result.trace):
                per_pid[rec.pid - 1] += rec.rmr_total
            out.append((result.trace.events, per_pid, state.mem))
        return out

    bitmask = run_all()
    monkeypatch.setattr(machine, "Memory", OracleMemory)
    for (events, per_pid, _), (oracle_events, oracle_per_pid, oracle_mem) \
            in zip(bitmask, run_all(), strict=True):
        assert oracle_events == events
        assert per_pid == oracle_per_pid == oracle_mem.totals


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["glb", "bwbgme", "bl"]),
       st.lists(st.integers(min_value=1, max_value=3), max_size=150))
def test_arbitrary_schedules_preserve_safety(name, pids):
    build = {"glb": build_glb, "bwbgme": build_bwbgme, "bl": build_bl}[name]
    state = SystemState(build(3), distinct_sessions(3, invocations=2))
    result = run_collected(state, Scripted(pids, 3), step_cap=len(pids) + 1)
    assert check(check_mutual_exclusion, result.trace).ok
    assert check(check_section_order, result.trace).ok
    if name == "bwbgme":
        from gmesim.monitors import check_flip_invariant, check_token_bound
        assert check(check_token_bound, result.trace).ok
        assert check(check_flip_invariant, result.trace).ok


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["glb", "bwbgme", "bl"]), st.integers(min_value=0, max_value=2),
       st.lists(st.integers(min_value=1, max_value=3), max_size=200))
def test_step_announces_markers_in_rank_order(name, cs_steps, pids):
    # What check_section_order checks holds by construction: under any
    # schedule, each invocation's markers, in step order, are a prefix of
    # the five in rank order.  A CS of 0 steps enters and leaves in one.
    build = {"glb": build_glb, "bwbgme": build_bwbgme, "bl": build_bl}[name]
    state = SystemState(build(3), Workload([[1, 2], [2], [1, 1]], cs_steps=cs_steps))
    ranked = (DOORWAY_START, DOORWAY_COMPLETE, CS_ENTER, CS_EXIT, EXIT_COMPLETE)
    announced = defaultdict(tuple)
    for pid in pids:
        ev = named(step(state, pid))
        if ev.markers:
            announced[ev.pid, ev.inv] += ev.markers
    for markers in announced.values():
        assert markers == ranked[:len(markers)], markers


def test_deadlock_check_matches_full_scan_at_every_step():
    # The check steps each active process alone; the oracle reads each
    # wait line's hand-written condition.  Compared at every process at a
    # wait line, and as a verdict, after every step of random runs up to
    # N=5.
    seen = set()
    for build in (build_glb, build_bwbgme, build_bl):
        for n, seed in ((2, 0), (3, 1), (4, 2), (5, 3)):
            state = SystemState(build(n), distinct_sessions(n, invocations=2))
            conds = oracle_scans.wait_conds(state.spec)
            schedule = random_schedule(n, seed)
            while (pid := schedule.next(state.live_pids())) is not None:
                step(state, pid)
                for q, env in enumerate(state.envs, 1):
                    cond = conds.get(env.pc)
                    if cond is not None:
                        blocked = not cond(env, state.mem.store, q)
                        assert effectively_blocked(state, q) == blocked, (build, n, q)
                        seen.add(blocked)
                assert all_blocked(state) == oracle_scans.all_active_blocked(state)
            assert not state.live_pids()
    assert seen == {True, False}


def test_run_interns_nothing():
    # Only explore steps on an interned state.  glb's tokens grow without
    # bound over a long run, so a run that interned its runtimes, or
    # memoized its steps on them, would grow with its length.
    state = SystemState(build_glb(4), Workload([[1 + pid % 2] * 300 for pid in range(4)]))
    result = run(state, random_schedule(4, 1))
    for _ in result.trace.events:
        pass
    assert result.completed
    assert state.runtime_ids is state.rids is state.rows is None
