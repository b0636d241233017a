"""Black-and-white bakery: colors, priority, token bound, flip invariant."""

import pytest

from gmesim import (RoundRobin, SystemState, Workload, build_bwbgme,
                    opposite_color, random_schedule, run, step)
from gmesim.bwbgme import UndefinedColorError
from gmesim.errors import ConfigurationError
from gmesim.memory import BLACK, BOTTOM, WHITE
from gmesim.monitors import (FAIL, PASS, build_invocations, check_bounded_exit,
                             check_flip_invariant, check_mutual_exclusion,
                             check_token_bound, check_wait_rmr_bounds)
from util import (check, distinct_sessions, doorway_done, drive, entered_cs, exit_writes,
                  finished, flip_token_against_oracle, me_fcfs_against_oracle,
                  run_scripted)


def token_of(state, pid):
    return state.mem.store[state.mem.names.index(f"Token[{pid}]")]


def global_color(state):
    return state.mem.store[state.mem.names.index("GlobalColor")]


def test_zero_processes_rejected():
    with pytest.raises(ConfigurationError):
        build_bwbgme(0)
    with pytest.raises(ConfigurationError):
        build_bwbgme(2, initial_color="red")
    with pytest.raises(ConfigurationError):
        build_bwbgme(2, mutant="bogus")


def test_opposite_color():
    assert opposite_color(WHITE) == BLACK
    assert opposite_color(BLACK) == WHITE
    with pytest.raises(UndefinedColorError):
        opposite_color(BOTTOM)


def test_initial_tokens_and_color():
    state = SystemState(build_bwbgme(3, initial_color=BLACK), distinct_sessions(3))
    assert [token_of(state, pid) for pid in (1, 2, 3)] == [(0, BOTTOM, 0)] * 3
    assert global_color(state) == BLACK


def test_sequential_fill_then_reentry_gets_n_plus_1():
    # Distinct sessions, strictly sequential doorways: tokens 1..N, same
    # color.  Process 1 exits (number 1: no flip) and re-requests another
    # conflicting session before any flip: it gets N+1.
    n = 5
    spec = build_bwbgme(n)
    wl = Workload.from_sessions([[1, 6]] + [[pid] for pid in range(2, n + 1)])
    state = SystemState(spec, wl)
    for pid in range(1, n + 1):
        drive(state, pid, doorway_done)
    assert [token_of(state, pid) for pid in range(1, n + 1)] == \
        [(pid, WHITE, pid) for pid in range(1, n + 1)]
    drive(state, 1, finished)
    assert global_color(state) == WHITE  # number-1 exit never flips
    drive(state, 1, doorway_done)
    assert token_of(state, 1) == (6, WHITE, n + 1)


def test_solo_process_number_1_and_untouched_color():
    state = SystemState(build_bwbgme(3), Workload.from_sessions([[5], [], []]))
    drive(state, 1, doorway_done)
    assert token_of(state, 1) == (5, WHITE, 1)
    drive(state, 1, finished)
    assert global_color(state) == WHITE
    # exit was the token reset alone
    state2 = SystemState(build_bwbgme(3), Workload.from_sessions([[5], [], []]))
    result = run(state2, RoundRobin(), step_cap=1000)
    rec = build_invocations(result.trace)[0]
    assert rec.exit_accesses == 1 and exit_writes(result.trace)[rec.pid, rec.inv] == 1


def test_exiting_number_2_flips_when_nobody_opposite():
    spec = build_bwbgme(2)
    state = SystemState(spec, distinct_sessions(2))
    drive(state, 1, doorway_done)
    drive(state, 2, doorway_done)
    assert token_of(state, 2) == (2, WHITE, 2)
    drive(state, 1, finished)       # number 1: no flip
    drive(state, 2, finished)       # number 2, no active opposite: flips
    assert global_color(state) == BLACK


def test_opposite_color_scan_cases():
    spec = build_bwbgme(3)
    state = SystemState(spec, distinct_sessions(3))
    drive(state, 1, doorway_done)
    drive(state, 2, doorway_done)
    # flip the global color by completing P1 and P2 (P2 flips), then a
    # third process picks black: P2's old-color peers see it as opposite
    drive(state, 1, finished)
    drive(state, 2, finished)
    drive(state, 3, doorway_done)
    assert token_of(state, 3)[1] == BLACK


def test_scan_stops_at_first_hit():
    # A scan that actually finds an opposite token returns early.  With
    # the number guard removed, P3 (black, number 1) scans while white P2
    # is still in the CS: it reads Token[1] (reset), hits white Token[2],
    # and resets its own token without touching GlobalColor.
    spec = build_bwbgme(4, initial_color=WHITE, mutant="no_number_guard")
    wl = Workload.from_sessions([[1], [1], [1], [2]])
    state = SystemState(spec, wl)
    drive(state, 1, entered_cs)
    drive(state, 2, entered_cs)
    drive(state, 1, finished)               # flips white -> black (no guard)
    drive(state, 3, entered_cs)             # black token, same session
    drive(state, 3, lambda ev: ev.line == 25)
    scan_reads = []
    writes = []
    for _ in range(50):
        ev = step(state, 3)
        if ev.line == 26:
            scan_reads.append(ev.reg)
        if ev.kind == "write":
            writes.append(ev.reg)
            break
    assert scan_reads == ["Token[1]", "Token[2]"]  # stopped at the hit
    assert writes == ["Token[3]"]                  # no GlobalColor write


def test_committed_token_shape():
    # Tokens are (0, bottom, 0) at rest, (s, bottom, 0) only at the line-3
    # pre-announce, and fully colored once committed.
    for seed in range(6):
        state = SystemState(build_bwbgme(3), distinct_sessions(3, invocations=2))
        result = run(state, random_schedule(3, seed), step_cap=100_000)
        assert result.completed
        for ev in result.trace.events:
            if ev.kind == "write" and ev.reg and ev.reg.startswith("Token["):
                session, color, number = ev.value
                if ev.line == 3:
                    assert session > 0 and color == BOTTOM and number == 0
                elif ev.line == 14:
                    assert session > 0 and color in (BLACK, WHITE) and number >= 1
                else:
                    assert ev.value == (0, BOTTOM, 0)


def test_flippers_always_hold_number_at_least_2():
    for seed in range(8):
        state = SystemState(build_bwbgme(4), distinct_sessions(4, invocations=3))
        result = run(state, random_schedule(4, seed), step_cap=300_000)
        assert result.completed
        records = {(r.pid, r.inv): r for r in build_invocations(result.trace)}
        for ev in result.trace.events:
            if ev.kind == "write" and ev.reg == "GlobalColor":
                assert records[(ev.pid, ev.inv)].token_value[2] >= 2


def test_token_bound_on_n6_simulation_sweep():
    for seed in range(5):
        state = SystemState(build_bwbgme(6), distinct_sessions(6, invocations=4))
        result = run(state, random_schedule(6, seed), step_cap=10**6)
        assert result.completed
        verdict = check(check_token_bound, result.trace)
        assert verdict.ok, verdict.detail


def test_monitors_on_contended_runs():
    for seed in range(10):
        for color in (WHITE, BLACK):
            state = SystemState(build_bwbgme(4, initial_color=color),
                                distinct_sessions(4, invocations=3))
            result = run(state, random_schedule(4, seed), step_cap=300_000)
            assert result.completed
            assert check(check_mutual_exclusion, result.trace).ok
            assert check(check_token_bound, result.trace).ok
            assert check(check_flip_invariant, result.trace).ok
            flip_token_against_oracle(result.trace)
            assert check(check_bounded_exit, result.trace).ok
            v = check(check_wait_rmr_bounds, result.trace)
            assert v.ok, v.detail


def narrative_counterexample_script(mutant):
    """The four-process failure story against the naive exit rule.

    P1 and P2 share a session and sit in the CS together (white).  P1
    exits and flips to black; P3 joins the same session with a black
    token and enters; P4 requests a conflicting session, draws black,
    and waits on white P2.  When P3's exit flips back to white, P4 stops
    waiting and violates mutual exclusion against P2.
    """
    spec = build_bwbgme(4, initial_color=WHITE, mutant=mutant)
    wl = Workload.from_sessions([[1], [1], [1], [2]])
    state = SystemState(spec, wl)
    pids = []

    def d(pid, until):
        return drive(state, pid, until, pids)

    d(1, entered_cs)
    d(2, entered_cs)
    d(1, finished)                              # mutant: flips white -> black
    d(3, entered_cs)                            # same session, black token
    d(4, lambda ev: ev.outcome == "fail")       # blocked on P2 at line 21
    d(3, finished)                              # mutant: flips black -> white
    d(4, entered_cs)                            # slips past P2: violation
    return wl, pids


def test_naive_exit_narrative_breaks_and_real_algorithm_passes():
    wl, pids = narrative_counterexample_script("unconditional_flip")
    bad = run_scripted(build_bwbgme(4, WHITE, "unconditional_flip"), wl, pids)
    assert not check(check_mutual_exclusion, bad.trace).ok
    assert not check(check_flip_invariant, bad.trace).ok
    assert me_fcfs_against_oracle(bad.trace)["me"] == FAIL
    assert flip_token_against_oracle(bad.trace)["flip"] == FAIL
    good = run_scripted(build_bwbgme(4, WHITE), wl, pids)
    assert check(check_mutual_exclusion, good.trace).ok
    assert check(check_flip_invariant, good.trace).ok
    assert me_fcfs_against_oracle(good.trace)["me"] == PASS
    assert flip_token_against_oracle(good.trace) == {"flip": PASS, "token-bound": PASS}


def test_plain_drive_cannot_reach_violation_without_mutation():
    # The same narrative steering stalls against the real algorithm: P4
    # stays blocked, so driving it to the CS must fail.
    with pytest.raises(AssertionError):
        spec = build_bwbgme(4, initial_color=WHITE)
        wl = Workload.from_sessions([[1], [1], [1], [2]])
        state = SystemState(spec, wl)
        drive(state, 1, entered_cs)
        drive(state, 2, entered_cs)
        drive(state, 1, finished)
        drive(state, 3, entered_cs)
        drive(state, 4, lambda ev: ev.outcome == "fail")
        drive(state, 3, finished)
        drive(state, 4, entered_cs, limit=5_000)


def hanging_window_script(mutant):
    """Guard-removal failure: P3 reads GlobalColor and hangs in its
    doorway; with the number guard gone, two successive number-1 exits
    (P1 white, then P2 black) flip twice inside P3's open window.
    """
    spec = build_bwbgme(3, initial_color=WHITE, mutant=mutant)
    wl = Workload.from_sessions([[1], [1], [1]])
    state = SystemState(spec, wl)
    pids = []

    def d(pid, until):
        return drive(state, pid, until, pids)

    d(3, lambda ev: ev.line == 5 and ev.kind == "read")  # window opens, P3 hangs
    d(1, finished)
    d(2, finished)
    return wl, pids


def test_guard_removal_double_flips_a_hanging_window():
    wl, pids = hanging_window_script("no_number_guard")
    bad = run_scripted(build_bwbgme(3, WHITE, "no_number_guard"), wl, pids)
    verdict = check(check_flip_invariant, bad.trace)
    assert not verdict.ok and "P3" in verdict.detail
    me_fcfs_against_oracle(bad.trace)
    flip_token_against_oracle(bad.trace)
    good = run_scripted(build_bwbgme(3, WHITE), wl, pids)
    assert check(check_flip_invariant, good.trace).ok
    me_fcfs_against_oracle(good.trace)
    flip_token_against_oracle(good.trace)
