"""Explorer: soundness, cross-checks, caps, mutation sensitivity."""

from gmesim import (Scripted, Section, SystemState, Workload, build_bl, build_bwbgme,
                    build_glb, explore, run, step)
from gmesim.monitors import FAIL, MONITORS
from oracle_explorer import crosscheck_reachable
from util import check, distinct_sessions


def test_single_process_single_path():
    report = explore(build_glb(1), Workload.from_sessions([[1]]))
    assert report.clean
    # one path: states = steps + 1
    state = SystemState(build_glb(1), Workload.from_sessions([[1]]))
    from gmesim import RoundRobin
    result = run(state, RoundRobin(), step_cap=100)
    assert report.states == len(result.trace.events) + 1


def value_keys(report) -> set:
    return {vkey for vkey, _ in report.keys}


def test_glb_n2_matches_independent_interleaver():
    spec = build_glb(2)
    wl = Workload.from_sessions([[1], [2]])
    report = explore(spec, wl)
    assert report.clean
    keys, me, deadlocks = crosscheck_reachable(spec, wl)
    assert keys == value_keys(report)
    assert me == 0 and deadlocks == 0


def test_bl_n2_matches_independent_interleaver():
    spec = build_bl(2)
    wl = Workload.from_sessions([[1], [2]])
    report = explore(spec, wl)
    keys, me, deadlocks = crosscheck_reachable(spec, wl)
    assert report.clean and me == 0 and deadlocks == 0
    assert keys == value_keys(report)


def test_bwbgme_n2_matches_independent_interleaver():
    spec = build_bwbgme(2)
    wl = Workload.from_sessions([[1], [2]])
    report = explore(spec, wl)
    keys, me, deadlocks = crosscheck_reachable(spec, wl)
    assert report.clean and me == 0 and deadlocks == 0
    assert keys == value_keys(report)
    assert report.max_token == 2


def test_reported_states_replay_as_scripts():
    # Explorer soundness: walking any parent chain as a scripted schedule
    # reproduces the state's value key.
    spec = build_bwbgme(2)
    wl = Workload.from_sessions([[1], [2]])
    report = explore(spec, wl)
    assert len(report.keys) == report.states
    for nid in range(0, report.states, 37):
        path, vkey = report.path_of(nid), report.keys[nid][0]
        state = SystemState(spec, wl)
        result = run(state, Scripted(path), step_cap=len(path) + 1)
        assert len(result.trace.events) == len(path)
        assert state.value_key() == vkey


def merged_paths(spec, wl, report, limit):
    """Up to limit pairs of different pid scripts that reach one value
    key: a stored state's path, and one step off the path of another
    stored state."""
    state_of = {vkey: nid for nid, (vkey, _) in enumerate(report.keys)}
    work = SystemState(spec, wl)
    pairs = []
    for nid, (vkey, _) in enumerate(report.keys):
        for pid in range(1, spec.n + 1):
            work.load_value_key(vkey)
            if work.exhausted(pid):
                continue
            step(work, pid)
            known = state_of.get(work.value_key())
            path = report.path_of(nid) + (pid,)
            if known is not None and report.path_of(known) != path:
                pairs.append((report.path_of(known), path))
                if len(pairs) == limit:
                    return pairs
    return pairs


def test_merged_states_behave_identically():
    # State-key adequacy: two different histories reaching the same key
    # produce identical value behavior under the same suffix schedule.
    spec = build_glb(2)
    wl = Workload.from_sessions([[1], [2]])
    merges = merged_paths(spec, wl, explore(spec, wl), limit=25)
    assert len(merges) == 25
    suffix = [1, 2] * 20
    for path_a, path_b in merges:
        values = []
        for path in (path_a, path_b):
            state = SystemState(spec, wl)
            run(state, Scripted(path), step_cap=len(path) + 1)
            tail = run(state, Scripted(suffix), step_cap=len(suffix) + 1)
            values.append([(e.pid, e.kind, e.reg, e.value) for e in tail.trace.events])
        assert values[0] == values[1]


def test_max_states_cap_reports_truncation():
    report = explore(build_glb(3), distinct_sessions(3), max_states=50)
    assert report.truncated and report.truncation_reason == "max_states"
    assert report.states <= 50


def test_max_depth_cap_reports_truncation():
    report = explore(build_glb(2), distinct_sessions(2), max_depth=5)
    assert report.truncated and report.truncation_reason == "max_depth"


def test_token_cap_cuts_paths_without_failing():
    report = explore(build_glb(2), distinct_sessions(2, invocations=2), token_cap=1)
    assert report.token_cap_hits > 0 and report.truncated
    assert report.violation_count() == 0


def assert_witnesses_replay(spec, wl, report):
    """Explorer/checker agreement: every reported witness path, replayed
    as a script, yields a trace that the batch checker of the same
    property fails."""
    for prop, violations in report.violations.items():
        for v in violations:
            state = SystemState(spec, wl)
            result = run(state, Scripted(v.path), step_cap=len(v.path) + 1)
            assert check(MONITORS[prop], result.trace).status == FAIL, (prop, v)


def test_guard_mutant_violation_found_and_replays():
    wl = Workload.from_sessions([[1], [1], [1]])
    for mutant in ("no_number_guard", "unconditional_flip"):
        spec = build_bwbgme(3, mutant=mutant)
        report = explore(spec, wl)
        assert report.violation_count("flip")
        assert report.violation_count() == report.violation_count("flip")
        assert_witnesses_replay(spec, wl, report)


def planted_skip_spec():
    """glb N=2 with a planted bug: P2 goes from its line-6 write straight
    to the CS, skipping the waiting room, so it can both overlap P1 in
    the CS and overtake it."""
    spec = build_glb(2)
    inner = spec.step_fn
    cs_pc = next(pc for pc, section in spec.sections.items() if section is Section.CS)

    def step_fn(state, p, env):
        out = inner(state, p, env)
        if p == 1 and out[:2] == ("write", 6):
            env.pc = cs_pc
        return out

    spec.step_fn = step_fn
    return spec, Workload.from_sessions([[1], [2]])


def test_planted_me_and_fcfs_witnesses_replay():
    spec, wl = planted_skip_spec()
    report = explore(spec, wl)
    # ME is an edge check: each step into the CS beside another
    # session is one witness
    assert report.violation_count("me") == 3
    assert report.violation_count("fcfs") == 8
    assert_witnesses_replay(spec, wl, report)


def test_unmutated_counterpart_is_clean():
    report = explore(build_bwbgme(3), Workload.from_sessions([[1], [1], [1]]))
    assert report.clean
