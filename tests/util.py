"""Shared helpers for driving the machine and checking its traces in tests."""

import hashlib
from collections import Counter

import oracle_monitors
from gmesim import (BLACK, WHITE, Scripted, SystemState, Workload, build_bl, build_bwbgme,
                    build_glb, run, step)
from gmesim.bwbgme import MUTANTS
from gmesim.machine import (CS_ENTER, DOORWAY_COMPLETE, EXIT_COMPLETE, PC_REMAINDER, Section,
                            Trace, TraceEvent, all_active_blocked, spins)
from gmesim.memory import Memory
from gmesim.monitors import (FAIL, build_invocations, check_fcfs, check_flip_invariant,
                             check_mutual_exclusion, check_token_bound)


# The tests' one named view of an event: `step` and `run` make each as a
# plain tuple in TraceEvent's field order, and the tests read it by name.
named = TraceEvent._make


def check(monitor, trace):
    """One monitor's verdict on a trace, given that trace's invocation fold."""
    return monitor(trace, build_invocations(trace))


def me_fcfs_against_oracle(trace) -> dict:
    """Compare the me/fcfs folds with the pairwise oracle on one trace.

    The verdict statuses must agree, and when a fold fails, the two
    invocations its witness names must fail the oracle on their own
    (their events alone, as a trace).  Returns each fold's status.
    """
    records = build_invocations(trace)
    statuses = {}
    for prop, fold, oracle, a_step in (
            ("me", check_mutual_exclusion, oracle_monitors.check_mutual_exclusion, "ce"),
            ("fcfs", check_fcfs, oracle_monitors.check_fcfs, "dc")):
        verdict = fold(trace, records)
        assert verdict.status == oracle(trace).status, (verdict, oracle(trace))
        if verdict.status == FAIL:
            a_at, b_ce, a_pid, b_pid = verdict.witness
            a = next(r for r in records if r.pid == a_pid and getattr(r, a_step) == a_at)
            b = next(r for r in records if r.pid == b_pid and r.ce == b_ce)
            pair = {(a.pid, a.inv), (b.pid, b.inv)}
            alone = Trace(trace.algorithm, trace.n,
                          [ev for ev in trace.events if (ev.pid, ev.inv) in pair],
                          meta=trace.meta)
            assert oracle(alone).status == FAIL, verdict
        statuses[prop] = verdict.status
    return statuses


def flip_token_against_oracle(trace) -> dict:
    """Compare the flip and token-bound folds with the event-scan oracles
    on one trace: the same status, and the same witness when they fail.
    Returns each fold's status."""
    records = build_invocations(trace)
    statuses = {}
    for prop, fold, oracle in (
            ("flip", check_flip_invariant, oracle_monitors.check_flip_invariant),
            ("token_bound", check_token_bound, oracle_monitors.check_token_bound)):
        verdict, want = fold(trace, records), oracle(trace)
        assert (verdict.status, verdict.witness) == (want.status, want.witness), \
            (verdict, want)
        statuses[prop] = verdict.status
    return statuses


def drive(state, pid, until, pids=None, limit=100_000):
    """Step pid until the predicate accepts an event; returns that event,
    viewed by name, as the predicate sees it."""
    for _ in range(limit):
        ev = named(step(state, pid))
        if pids is not None:
            pids.append(pid)
        if until(ev):
            return ev
    raise AssertionError(f"drive stalled on P{pid}")


def effectively_blocked(state, pid) -> bool:
    """True iff pid is active and spins: against the current global
    store, no number of its own steps gets it past its wait line."""
    env = state.envs[pid - 1]
    return env.pc != PC_REMAINDER and spins(state.spec, env.key(), state.mem.store, pid - 1)


def all_blocked(state) -> bool:
    """`machine.all_active_blocked` over a live state's store and runtimes."""
    return all_active_blocked(state.spec, state.mem.store, [env.key() for env in state.envs])


def stuck_glb_spec(n=2):
    """glb with a planted bug: no line-8 evaluation ever passes, so the
    processes end up blocked."""
    spec = build_glb(n)
    inner = spec.step_fn

    def step_fn(env, p, value):
        pc = env.pc
        line, outcome, j = inner(env, p, value)
        if line == 8:
            env.pc = pc
            return (line, "fail", j)
        return (line, outcome, j)

    spec.step_fn = step_fn
    return spec


def until_marker(marker):
    return lambda ev: marker in ev.markers


def doorway_done(ev):
    return DOORWAY_COMPLETE in ev.markers


def entered_cs(ev):
    return CS_ENTER in ev.markers


def finished(ev):
    return EXIT_COMPLETE in ev.markers


def exit_writes(trace) -> Counter:
    """Shared writes in the exit section, per (pid, invocation)."""
    return Counter((ev.pid, ev.inv) for ev in trace.events
                   if ev.section is Section.EXIT and ev.kind == "write")


def run_collected(state, schedule, step_cap=1_000_000):
    """`run` to its end with every event kept: the tests' one way to a
    whole trace, whose events are then a list of named views."""
    result = run(state, schedule, step_cap=step_cap)
    result.trace.events = list(map(named, result.trace.events))
    return result


def run_scripted(spec, workload, pids, step_cap=200_000):
    state = SystemState(spec, workload)
    return run_collected(state, Scripted(pids, spec.n), step_cap=step_cap)


def distinct_sessions(n, invocations=1, cs_steps=1):
    return Workload([[pid] * invocations for pid in range(1, n + 1)],
                                  cs_steps=cs_steps)


def unpacked(report, key) -> list:
    """A packed state key's fields (store id, runtime id of P1..Pn,
    monitor-state id), each report.width bits wide."""
    mask = (1 << report.width) - 1
    return [key >> (i * report.width) & mask for i in range(report.n + 2)]


def decoded_key(report, key) -> tuple:
    """A packed state key's (value key, monitor states), looked up in the
    report's interned tables; the value key is the one
    SystemState.value_key gives."""
    sid, *rids, mid = unpacked(report, key)
    return ((report.stores[sid], tuple(report.runtimes[r] for r in rids)),
            report.monitor_states[mid])


def report_digest(report) -> str:
    """A short digest of everything an exploration reports: its counts,
    caps and truncation, and every violation's property, path and
    detail, in the order the search found them."""
    summary = (report.states, report.transitions, report.max_depth, report.deadlocks,
               report.max_token, report.truncated,
               report.truncation_reason,
               [(prop, [(v.path, v.detail) for v in vs])
                for prop, vs in sorted(report.violations.items())])
    return hashlib.sha256(repr(summary).encode()).hexdigest()[:16]


class RecordingMemory(Memory):
    """The simulator's memory, logging each access as (kind, slot, value,
    rmr); tests install it in place of gmesim.machine.Memory."""

    __slots__ = ("log",)

    def __init__(self, n, decls):
        super().__init__(n, decls)
        self.log = []

    def read_slot(self, p, slot):
        value, rmr = Memory.read_slot(self, p, slot)
        self.log.append(("read", slot, value, rmr))
        return value, rmr

    def write_slot(self, p, slot, value):
        Memory.write_slot(self, p, slot, value)
        self.log.append(("write", slot, value, True))


def explored_specs() -> list:
    """The step machines the exhaustive tests walk: glb, bwbgme in both
    colours and with each mutant, and bl, each at N=2."""
    return ([build_glb(2)]
            + [build_bwbgme(2, color, mutant) for color in (WHITE, BLACK) for mutant in MUTANTS]
            + [build_bl(2)])


def explored_workload() -> Workload:
    """Two invocations per process for the exhaustive tests.  P1 changes
    session between its two, so every wait line meets both a shared and
    a conflicting session."""
    return Workload([[1, 2], [1, 1]])

