"""Shared helpers for driving the machine and checking its traces in tests."""

from collections import Counter

import oracle_monitors
from gmesim import Scripted, SystemState, Workload, run, step
from gmesim.machine import CS_ENTER, DOORWAY_COMPLETE, EXIT_COMPLETE, Section, Trace
from gmesim.monitors import (FAIL, build_invocations, check_fcfs, check_flip_invariant,
                             check_mutual_exclusion, check_token_bound)


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
    for fold, oracle, a_step in ((check_mutual_exclusion,
                                  oracle_monitors.check_mutual_exclusion, "ce"),
                                 (check_fcfs, oracle_monitors.check_fcfs, "dc")):
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
        statuses[verdict.prop] = verdict.status
    return statuses


def flip_token_against_oracle(trace) -> dict:
    """Compare the flip and token-bound folds with the event-scan oracles
    on one trace: the same status, and the same witness when they fail.
    Returns each fold's status."""
    records = build_invocations(trace)
    statuses = {}
    for fold, oracle in ((check_flip_invariant, oracle_monitors.check_flip_invariant),
                         (check_token_bound, oracle_monitors.check_token_bound)):
        verdict, want = fold(trace, records), oracle(trace)
        assert (verdict.status, verdict.witness) == (want.status, want.witness), \
            (verdict, want)
        statuses[verdict.prop] = verdict.status
    return statuses


def drive(state, pid, until, pids=None, limit=100_000):
    """Step pid until the predicate accepts an event; returns that event."""
    for _ in range(limit):
        ev = step(state, pid)
        if pids is not None:
            pids.append(pid)
        if until(ev):
            return ev
    raise AssertionError(f"drive stalled on P{pid}")


def effectively_blocked(state, pid) -> bool:
    """True iff pid sits at a wait line whose full condition is false.

    Evaluated against the current global store, so a blocked process
    cannot advance past the line by any number of its own steps.
    """
    env = state.envs[pid - 1]
    cond = state.spec.wait_conds.get(env.pc)
    if cond is None:
        return False
    return not cond(env, state.mem.store, pid)


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


def run_scripted(spec, workload, pids, step_cap=200_000):
    state = SystemState(spec, workload)
    return run(state, Scripted(pids), step_cap=step_cap)


def run_to_completion(spec, workload, schedule, step_cap=500_000):
    state = SystemState(spec, workload)
    result = run(state, schedule, step_cap=step_cap)
    assert result.completed, "run did not finish"
    return result


def distinct_sessions(n, invocations=1, cs_steps=1):
    return Workload.uniform(n, lambda pid: pid, invocations=invocations,
                            cs_steps=cs_steps)
