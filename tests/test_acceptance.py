"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 1-2 exhaustively verify the safety theorems at
desk scale; 3-4 check the complexity claims as finite-N scaling ratios.
"""

import itertools

import pytest

from gmesim import (Scripted, SystemState, Workload, bl_adversarial_schedule,
                    bl_adversarial_workload, block_events, build_bl, build_bwbgme,
                    build_glb, explore, random_schedule, run)
from gmesim.memory import BLACK, WHITE
from gmesim.monitors import (FAIL, PASS, build_invocations, check_bounded_exit,
                             check_concurrent_entry, check_flip_invariant,
                             check_mutual_exclusion, check_token_bound,
                             check_wait_rmr_bounds)
from util import (check, distinct_sessions, doorway_done, drive, finished,
                  me_fcfs_against_oracle)

pytestmark = pytest.mark.acceptance


def report(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS")


def all_assignments(n=3, sessions=(1, 2)):
    return list(itertools.product(sessions, repeat=n))


def test_criterion_1_exhaustive_safety_glb():
    spec = build_glb(3)
    for assignment in all_assignments():
        wl = Workload.from_sessions([[s] for s in assignment])
        rep = explore(spec, wl)
        assert not rep.truncated
        assert rep.violation_count("me") == 0, assignment
        assert rep.violation_count("fcfs") == 0, assignment
        assert rep.deadlocks == 0, assignment
    report(1, "exhaustive safety, GLB N=3")


def test_criterion_2_exhaustive_safety_bwbgme():
    for color in (WHITE, BLACK):
        spec = build_bwbgme(3, initial_color=color)
        for assignment in all_assignments():
            wl = Workload.from_sessions([[s] for s in assignment])
            rep = explore(spec, wl)
            assert not rep.truncated
            assert rep.violation_count() == 0, (color, assignment)
            assert rep.deadlocks == 0, (color, assignment)
            assert rep.max_token <= 4, (color, assignment)
    report(2, "exhaustive safety + token bound, BWBGME N=3, both colors")


def test_criterion_3_burns_lamport_quadratic_witness():
    total_rmr = {}
    for n in (2, 4, 6, 8, 10):
        schedule = bl_adversarial_schedule(n)
        state = SystemState(build_bl(n), bl_adversarial_workload(n))
        result = run(state, schedule, step_cap=10**6)
        assert result.completed
        totals, by_blocker = block_events(result.trace)
        assert totals[n] == n * (n - 1) // 2, n
        for j in range(1, n):
            assert by_blocker.get((n, j), 0) == j, (n, j)
        total_rmr[n] = sum(result.rmr_totals)
    assert total_rmr[8] / total_rmr[4] >= 3
    report(3, "Burns-Lamport quadratic witness, N in {2,4,6,8,10}")


def _sweep_max_inv_rmr(build, sizes, seeds, invocations=2):
    worst = {}
    for n in sizes:
        spec = build(n)
        top = 0
        for seed in range(seeds):
            state = SystemState(spec, distinct_sessions(n, invocations=invocations))
            result = run(state, random_schedule(n, seed), step_cap=10**6)
            assert result.completed
            for rec in build_invocations(result.trace):
                if rec.rmr_total > top:
                    top = rec.rmr_total
        worst[n] = top
    return worst


def test_criterion_4_linear_rmr_scaling():
    for build, name in ((build_glb, "glb"), (build_bwbgme, "bwbgme")):
        worst = _sweep_max_inv_rmr(build, (4, 8, 16), seeds=50)
        assert worst[8] / worst[4] <= 2.5, (name, worst)
        assert worst[16] / worst[8] <= 2.5, (name, worst)
    report(4, "linear RMR scaling, max per-invocation ratio <= 2.5")


def test_criterion_5_glb_per_line_rmr_bounds():
    # Ledger-asserted ceilings on every tested schedule: any pass of
    # line 8 or line 9 for a fixed j costs at most 5 RMR.
    for n in (2, 3, 4, 8):
        for seed in range(10):
            state = SystemState(build_glb(n), distinct_sessions(n, invocations=2))
            result = run(state, random_schedule(n, seed), step_cap=10**6)
            assert result.completed
            verdict = check(check_wait_rmr_bounds, result.trace)
            assert verdict.ok, verdict.detail
            for rec in build_invocations(result.trace):
                for wp in rec.wait_passes:
                    assert wp.rmr <= 5, (n, seed, wp)
    report(5, "GLB per-line RMR bounds (<= 5 per pass)")


def test_criterion_6_token_bound_scenario():
    n = 5
    spec = build_bwbgme(n)
    wl = Workload.from_sessions([[1, 6]] + [[pid] for pid in range(2, n + 1)])
    state = SystemState(spec, wl)
    numbers = []
    for pid in range(1, n + 1):
        drive(state, pid, doorway_done)
        numbers.append(state.mem.store[state.mem.names.index(f"Token[{pid}]")][2])
    assert numbers == [1, 2, 3, 4, 5]
    drive(state, 1, finished)
    drive(state, 1, doorway_done)
    reentry = state.mem.store[state.mem.names.index("Token[1]")][2]
    assert reentry == n + 1 == 6
    report(6, "BWBGME sequential fill 1..5, re-request takes 6 = N+1")


def test_criterion_7_concurrent_entry():
    n = 8
    for build in (build_glb, build_bwbgme):
        spec = build(n)
        for seed in range(100):
            wl = Workload.uniform(n, lambda pid: 1, invocations=1)
            state = SystemState(spec, wl)
            result = run(state, random_schedule(n, seed), step_cap=10**6)
            assert result.completed
            verdict = check(check_concurrent_entry, result.trace)
            assert verdict.status == "pass", verdict.detail
            assert not any(ev.outcome == "fail" for ev in result.trace.events)
    report(7, "concurrent entry: zero false waits, 100 seeds x 2 algorithms")


def test_criterion_8_bounded_exit():
    for build, name, exact in ((build_glb, "glb", 2), (build_bl, "bl", 1),
                               (build_bwbgme, "bwbgme", None)):
        for n in (2, 4, 6):
            for seed in range(5):
                state = SystemState(build(n), distinct_sessions(n, invocations=2))
                result = run(state, random_schedule(n, seed), step_cap=10**6)
                assert result.completed
                assert check(check_bounded_exit, result.trace).ok
                for rec in build_invocations(result.trace):
                    if exact is not None:
                        assert rec.exit_accesses == exact, (name, n, seed)
                    else:
                        assert rec.exit_accesses <= n + 2, (name, n, seed)
    report(8, "bounded exit: glb = 2 writes, bl = 1, bwbgme <= N+2")


def test_criterion_9_mutation_sensitivity():
    # Replaying the naive-exit counterexample schedule: with the exit
    # condition removed the monitors catch the exact failure mode the
    # narrative predicts; the unmutated algorithm passes the same pids.
    from test_bwbgme import hanging_window_script, narrative_counterexample_script

    wl, pids = narrative_counterexample_script("unconditional_flip")
    state = SystemState(build_bwbgme(4, WHITE, "unconditional_flip"), wl)
    bad = run(state, Scripted(pids), step_cap=10**5)
    assert not check(check_mutual_exclusion, bad.trace).ok
    assert not check(check_flip_invariant, bad.trace).ok
    assert me_fcfs_against_oracle(bad.trace)["me"] == FAIL

    state = SystemState(build_bwbgme(4, WHITE), wl)
    good = run(state, Scripted(pids), step_cap=10**5)
    assert check(check_mutual_exclusion, good.trace).ok
    assert check(check_flip_invariant, good.trace).ok
    assert check(check_token_bound, good.trace).ok
    assert me_fcfs_against_oracle(good.trace)["me"] == PASS

    # removing only the line-25 guard is caught as well, by the
    # double-flip inside a hanging process's window
    wl, pids = hanging_window_script("no_number_guard")
    state = SystemState(build_bwbgme(3, WHITE, "no_number_guard"), wl)
    bad = run(state, Scripted(pids), step_cap=10**5)
    assert not check(check_flip_invariant, bad.trace).ok
    me_fcfs_against_oracle(bad.trace)
    state = SystemState(build_bwbgme(3, WHITE), wl)
    good = run(state, Scripted(pids), step_cap=10**5)
    assert check(check_flip_invariant, good.trace).ok
    me_fcfs_against_oracle(good.trace)
    report(9, "mutation sensitivity: naive exit and missing guard are caught")


def test_criterion_10_starvation_heuristic():
    n = 6
    for build in (build_glb, build_bwbgme):
        spec = build(n)
        state = SystemState(spec, distinct_sessions(n, invocations=10))
        result = run(state, random_schedule(n, seed=2026), step_cap=10**5)
        assert result.completed and not result.deadlocked
        records = build_invocations(result.trace)
        assert len(records) == n * 10
        assert all(rec.ce is not None for rec in records)
    report(10, "starvation heuristic: all 60 invocations reach the CS")
