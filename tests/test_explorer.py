"""Explorer: soundness, cross-checks, caps, mutation sensitivity."""

from collections import Counter

import gmesim.explorer
from gmesim import (BLACK, WHITE, Scripted, Section, SystemState, Workload,
                    bl_adversarial_schedule, bl_adversarial_workload, build_bl, build_bwbgme,
                    build_glb, build_invocations, explore, machine, step)
from gmesim.machine import PC_REMAINDER, all_active_blocked
from gmesim.monitors import FAIL, MONITORS, online_props, token_number
from oracle_scans import all_active_blocked as full_scan
from oracle_scans import live_pids
from oracle_explorer import crosscheck_reachable
from util import (RecordingMemory, all_blocked, check, decoded_key, distinct_sessions,
                  explored_specs, explored_workload, named, report_digest, run_collected,
                  stuck_glb_spec, unpacked)


def test_step_is_a_function_of_runtime_and_value():
    # An interned step (the explorer's) looks its access up on (pid,
    # runtime) before the value is known, and everything after the
    # access on (pid, runtime, value accessed): the access (kind,
    # register, value written) must follow from the first two alone, and
    # the runtime the step leaves and the event fields the store and the
    # monitors take from all three.
    for spec in explored_specs():
        accesses, outcomes = {}, {}

        def checked(state, pid):
            before = state.envs[pid - 1].key()
            ev = named(step(state, pid))
            access = (ev.kind, ev.reg, ev.value if ev.kind == "write" else None)
            assert accesses.setdefault((pid, before), access) == access, \
                (spec.name, pid, before)
            after = (state.envs[pid - 1].key(), ev.kind, ev.reg, ev.line, ev.outcome, ev.j,
                     ev.markers)
            assert outcomes.setdefault((pid, before, ev.value), after) == after, \
                (spec.name, pid, before, ev.value)
            return ev

        crosscheck_reachable(spec, explored_workload(), take_step=checked)
        assert outcomes and len(accesses) < len(outcomes), spec.name


def test_interned_step_matches_plain_step(monkeypatch):
    # Every step from every reachable state, taken plainly from a freshly
    # loaded state, and twice on one interned state that keeps its memo
    # across all of them, given the same store, reader sets and runtime.
    # Each interned step must make the same Memory calls as the plain
    # one, one per read or write step, and its record must carry the
    # plain event's fields and name the child runtime, whether the memo's
    # access row and value row hit or miss, while `rids` stays as the
    # caller set it.  The record's event is shared: the second step
    # returns the same object, whose index is 0.
    monkeypatch.setattr(machine, "Memory", RecordingMemory)
    configs = [(spec, explored_workload()) for spec in explored_specs()]
    configs += [(build_glb(3), Workload([[1], [2], [1]])),
                (build_bwbgme(3), Workload([[1], [1], [2]]))]
    for spec, wl in configs:
        interned = SystemState(spec, wl)
        interned.intern(lambda ev, rid, child: (ev, rid, child))
        ids, mem = interned.runtime_ids, interned.mem
        steps = []

        def checked(state, pid):
            steps.append(pid)
            p = pid - 1
            store, valid, rid = state.mem.store[:], state.mem.valid[:], ids[state.envs[p].key()]
            state.mem.log.clear()
            ev = step(state, pid)
            records = []
            for _ in range(2):
                mem.store[:], mem.valid[:] = store, valid
                interned.rids[p] = rid
                mem.log.clear()
                records.append(step(interned, pid))
                assert interned.rids[p] == rid, (spec.name, pid)
                assert mem.log == state.mem.log, (spec.name, pid)
            # A record is flat: the child runtime id, the event, then the
            # fields of the note made on them.
            (child, shared, *note), again = records
            assert again[1] is shared and shared[0] == 0, (spec.name, pid)
            assert shared[1:] == ev[1:], (spec.name, pid)
            assert note == [shared, rid, child], (spec.name, pid)
            assert ids.table[child] == state.envs[p].key(), (spec.name, pid)
            assert len(mem.log) == (ev[4] in ("read", "write")), ev
            return ev

        crosscheck_reachable(spec, wl, take_step=checked)
        # Both paths ran: some step found its access row learned and its
        # value row not (a row with two values), and most steps hit both.
        rows = [row for per_proc in interned.rows for row in per_proc.values()]
        assert any(len(row[3]) > 1 for row in rows), spec.name
        assert sum(len(row[3]) for row in rows) < len(steps) / 2, spec.name


def test_interned_step_of_a_finished_process_is_a_record():
    # explore never steps a process past its last invocation, but an
    # interned step of one still returns a record, learned and then hit:
    # a noop that leaves its runtime as it was.  The step leaves `rids`
    # alone; the caller moves the process to the child the record names.
    state = SystemState(build_glb(1), Workload([[1]]))
    state.intern(lambda ev, rid, child: (rid,))
    kinds = []
    while not kinds or kinds[-1] != "noop":
        assert len(kinds) < 100, kinds
        rid = state.rids[0]
        child, ev, noted = record = step(state, 1)
        assert noted == rid == state.rids[0], kinds
        state.rids[0] = child
        kinds.append(ev[4])
    assert child == rid and ev == (0, 1, -1, 0, "noop", None, None, False,
                                   Section.REMAINDER, (), None, None)
    assert step(state, 1) is record


def test_explored_steps_start_on_empty_reader_sets(monkeypatch):
    # A record's event is built once and returned by every step that
    # hits it, so its `rmr` is right only because explore empties the
    # reader set each step touched.  Every explored step must start on
    # empty reader sets, and its event's kind, value and cost must be
    # those of the one access its Memory call logged.
    monkeypatch.setattr(machine, "Memory", RecordingMemory)
    checked = Counter()

    def recorded(state, pid):
        mem = state.mem
        assert not any(mem.valid), (pid, mem.valid)
        mem.log.clear()
        record = step(state, pid)
        ev = record[1]
        if ev[4] in ("read", "write"):
            [(kind, slot, value, rmr)] = mem.log
            assert (ev[4], ev[5], ev[6], ev[7]) == (kind, mem.names[slot], value, rmr), ev
            checked[ev[4]] += 1
        else:
            assert not mem.log and not ev[7], ev
        return record

    monkeypatch.setattr(gmesim.explorer, "step", recorded)
    for spec, sessions in ((build_glb(3), [[1], [2], [1]]),
                           (build_bwbgme(3, WHITE), [[1], [1], [2]])):
        checked.clear()
        report = explore(spec, Workload(sessions))
        assert report.clean, spec.name
        assert checked["read"] and checked["write"], spec.name


def test_each_explored_transition_is_one_step_and_one_access(monkeypatch):
    # The N=3 acceptance explores, with every Memory call logged and
    # `step` counted under both the names it is called by.  The step
    # memo must neither hide a transition's step or access nor add one:
    # one call per transition, and one access per read or write
    # transition, each on empty reader sets and so one RMR.  The totals
    # are perfbench/expected.json's.
    monkeypatch.setattr(machine, "Memory", RecordingMemory)
    calls = Counter()

    def counted(state, pid):
        calls[state.mem] += 1
        return step(state, pid)

    monkeypatch.setattr(machine, "step", counted)
    monkeypatch.setattr(gmesim.explorer, "step", counted)
    for spec, sessions, transitions, accesses in (
            (build_glb(3), [[1], [2], [1]], 252_895, 248_458),
            (build_bwbgme(3, WHITE), [[1], [1], [2]], 224_457, 205_921)):
        calls.clear()
        report = explore(spec, Workload(sessions))
        assert report.clean and report.transitions == transitions, spec.name
        assert sum(calls.values()) == transitions, spec.name
        [mem] = calls  # one live state takes every step
        assert len(mem.log) == sum(rmr for *_, rmr in mem.log) == accesses, spec.name


def test_transitions_step_each_unfinished_process_of_each_state():
    # explore steps, from each state it stores, exactly the processes
    # that have not finished their last invocation: its transition count
    # is their sum over the stored states, read off each state's
    # runtimes by the machine's own `live_pids`, however a cap cut the
    # search.  P2 of the last workload has no invocation at all.
    workloads = [explored_workload(), Workload([[1], [2]]), Workload([[2, 1], []], cs_steps=0)]
    for spec in explored_specs():
        for wl in workloads:
            state = SystemState(spec, wl)
            whole = explore(spec, wl)
            for report in (whole, explore(spec, wl, max_states=whole.states // 2),
                           explore(spec, wl, max_depth=whole.max_depth // 2)):
                label = (spec.name, wl.sessions, report.truncation_reason)
                assert report.truncated == (report is not whole), label
                live = 0
                for key in report.keys:
                    state.load_value_key(decoded_key(report, key)[0])
                    live += len(state.live_pids())
                assert report.transitions == live, label


def test_single_process_single_path():
    report = explore(build_glb(1), Workload([[1]]))
    assert report.clean
    # one path: states = steps + 1
    state = SystemState(build_glb(1), Workload([[1]]))
    from gmesim import RoundRobin
    result = run_collected(state, RoundRobin(), step_cap=100)
    assert report.states == len(result.trace.events) + 1


def value_keys(report) -> list:
    """Each stored state's value key, in state id order."""
    return [decoded_key(report, key)[0] for key in report.keys]


def test_glb_n2_matches_independent_interleaver():
    spec = build_glb(2)
    wl = Workload([[1], [2]])
    report = explore(spec, wl)
    assert report.clean
    keys, me, deadlocks = crosscheck_reachable(spec, wl)
    assert keys == set(value_keys(report))
    assert me == 0 and deadlocks == 0


def test_bl_n2_matches_independent_interleaver():
    spec = build_bl(2)
    wl = Workload([[1], [2]])
    report = explore(spec, wl)
    keys, me, deadlocks = crosscheck_reachable(spec, wl)
    assert report.clean and me == 0 and deadlocks == 0
    assert keys == set(value_keys(report))


def test_bwbgme_n2_matches_independent_interleaver():
    spec = build_bwbgme(2)
    wl = Workload([[1], [2]])
    report = explore(spec, wl)
    keys, me, deadlocks = crosscheck_reachable(spec, wl)
    assert report.clean and me == 0 and deadlocks == 0
    assert keys == set(value_keys(report))
    assert report.max_token == 2


def assert_fields_fit(report, label):
    """explore() fixes the field width before the search from a bound on
    the ids: every table it interned must fit, however early a cap
    stopped the search, and every key must unpack and repack to itself."""
    for table in (report.stores, report.runtimes, report.monitor_states):
        assert len(table) < 2 ** report.width, label
    for key in report.keys:
        fields = unpacked(report, key)
        assert sum(f << (i * report.width) for i, f in enumerate(fields)) == key, label


def test_bwbgme_n3_packed_keys_match_independent_interleaver():
    # Decoding every packed key gives exactly the value keys a search
    # that keeps plain value keys reaches.
    spec = build_bwbgme(3)
    wl = Workload([[1], [1], [2]])
    report = explore(spec, wl)
    keys, me, deadlocks = crosscheck_reachable(spec, wl)
    assert report.clean and not report.truncated and me == 0 and deadlocks == 0
    assert keys == set(value_keys(report))
    assert_fields_fit(report, "bwbgme {1,1,2}")


def test_packing_width_holds_every_id():
    # Every cap, from the narrowest width (one state) up, at N=2 with two
    # invocations per process and on the two N=3 configs; glb {1,2,1}
    # interns 592 stores.
    runs = [(build(2), explored_workload(), dict(max_states=cap))
            for build in (build_glb, build_bwbgme) for cap in (1, 2, 50, 2_000_000)]
    runs += [(build_glb(3), Workload([[1], [2], [1]]), dict(max_states=cap))
             for cap in (1, 2, 50, 2_000_000)]
    runs += [(build_bwbgme(3), Workload([[1], [1], [2]]), dict(max_states=cap))
             for cap in (1, 2, 50)]
    for spec, wl, caps in runs:
        report = explore(spec, wl, **caps)
        assert report.truncated == (caps != dict(max_states=2_000_000)), (spec.name, caps)
        assert_fields_fit(report, (spec.name, caps))


def test_fold_and_explorer_step_the_same_monitors():
    # bl is not FCFS: the fold of an adversarial run, whose entries do
    # overtake, must not step the fcfs monitor the explorer leaves out.
    state = SystemState(build_bl(4), bl_adversarial_workload(4))
    trace = run_collected(state, bl_adversarial_schedule(4), step_cap=100_000).trace
    assert set(build_invocations(trace).first) <= set(online_props("bl"))
    for build in (build_glb, build_bwbgme, build_bl):
        report = explore(build(2), Workload([[1], [2]]), max_states=1)
        root_key = next(iter(report.keys))
        assert len(decoded_key(report, root_key)[1]) == len(online_props(report.algorithm))


def test_reported_states_replay_as_scripts():
    # Explorer soundness: walking any parent chain as a scripted schedule
    # reproduces the state's value key.
    spec = build_bwbgme(2)
    wl = Workload([[1], [2]])
    report = explore(spec, wl)
    keys = list(report.keys)
    assert len(keys) == report.states
    for nid in range(0, report.states, 37):
        path, vkey = report.path_of(nid), decoded_key(report, keys[nid])[0]
        state = SystemState(spec, wl)
        result = run_collected(state, Scripted(path, spec.n), step_cap=len(path) + 1)
        assert len(result.trace.events) == len(path)
        assert state.value_key() == vkey


def test_live_state_is_each_new_state(monkeypatch):
    # The explorer steps each successor on one live state, loading only
    # the store and the stepped runtime before the step.  Its deadlock
    # check, as a state is expanded, reads no live state: the store and
    # runtimes it is given must form a stored state's value key, each at
    # most once (value keys repeat across monitor states, and the
    # verdict is memoized), and give the verdict a fresh load of that
    # value key gives.
    for spec, wl in ((build_glb(3), Workload([[1], [2], [1]])),
                     (build_bwbgme(3), Workload([[1], [1], [2]]))):
        fresh = SystemState(spec, wl)
        seen = []

        def recording(spec, store, runtimes):
            vkey = (store, tuple(runtimes))
            seen.append(vkey)
            fresh.load_value_key(vkey)
            blocked = all_active_blocked(spec, store, vkey[1])
            assert blocked == all_blocked(fresh), vkey
            return blocked

        monkeypatch.setattr(gmesim.explorer, "all_active_blocked", recording)
        report = explore(spec, wl)
        assert report.clean and not report.truncated
        assert seen and not Counter(seen) - Counter(set(value_keys(report)))


def quiet_states(spec, wl, report) -> list:
    """The stored states whose every active process's step reads
    without passing: the ones the explorer's deadlock check must see."""
    state = SystemState(spec, wl)
    quiet = []
    for vkey in value_keys(report):
        moves = False
        for pid in range(1, spec.n + 1):
            state.load_value_key(vkey)
            if state.envs[pid - 1].pc == PC_REMAINDER:
                continue
            ev = named(step(state, pid))
            moves = moves or ev.kind != "read" or ev.outcome == "pass"
        if not moves:
            quiet.append(vkey)
    return quiet


def test_deadlock_check_matches_full_scan_on_every_state(monkeypatch):
    # The check runs only on the states whose every active step reads
    # without passing, once per distinct value key among them (its
    # verdict is memoized across monitor states), and there agrees with
    # the full scan over the hand-written wait conditions; every other
    # stored state has a process that writes, steps locally or passes,
    # and the full scan finds no deadlock there either.
    for spec, sessions in ((build_glb(2), [[1, 2], [2, 1]]),
                           (build_bwbgme(2), [[1, 2], [2, 1]]),
                           (build_bl(2), [[1, 1], [2]])):
        wl = Workload(sessions)
        state = SystemState(spec, wl)
        checked = []

        def checking(spec, store, runtimes):
            vkey = (store, tuple(runtimes))
            blocked = all_active_blocked(spec, store, vkey[1])
            state.load_value_key(vkey)
            assert blocked == full_scan(state), vkey
            checked.append(vkey)
            return blocked

        monkeypatch.setattr(gmesim.explorer, "all_active_blocked", checking)
        report = explore(spec, wl)
        assert report.clean
        assert Counter(checked) == Counter(set(quiet_states(spec, wl, report)))
        for vkey in value_keys(report):
            state.load_value_key(vkey)
            assert not full_scan(state), vkey


def test_explorer_finds_every_deadlock_of_a_planted_bug():
    # glb whose line 8 never passes: the deadlock counts are pinned, and
    # each witness, replayed as a script, ends with every active process
    # blocked.
    for sessions, deadlocks in (([[1], [2]], 7), ([[1], [2], [1]], 57)):
        spec, wl = stuck_glb_spec(len(sessions)), Workload(sessions)
        report = explore(spec, wl)
        assert not report.truncated
        assert report.deadlocks == report.violation_count() == deadlocks
        for witness in report.violations["deadlock"]:
            state = SystemState(spec, wl)
            for pid in witness.path:
                step(state, pid)
            assert all_blocked(state), witness.path


def merged_paths(spec, wl, report, limit):
    """Up to limit pairs of different pid scripts that reach one value
    key: a stored state's path, and one step off the path of another
    stored state."""
    vkeys = value_keys(report)
    state_of = {vkey: nid for nid, vkey in enumerate(vkeys)}
    work = SystemState(spec, wl)
    pairs = []
    for nid, vkey in enumerate(vkeys):
        work.load_value_key(vkey)
        for pid in live_pids(work):
            work.load_value_key(vkey)
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
    wl = Workload([[1], [2]])
    merges = merged_paths(spec, wl, explore(spec, wl), limit=25)
    assert len(merges) == 25
    suffix = [1, 2] * 20
    for path_a, path_b in merges:
        values = []
        for path in (path_a, path_b):
            state = SystemState(spec, wl)
            run_collected(state, Scripted(path, spec.n), step_cap=len(path) + 1)
            tail = run_collected(state, Scripted(suffix, spec.n), step_cap=len(suffix) + 1)
            values.append([(e.pid, e.kind, e.reg, e.value) for e in tail.trace.events])
        assert values[0] == values[1]


# Digest of each algorithm's N=2 report with two invocations per process
# (util.report_digest).  Swapping sessions 1 and 2 maps one exploration
# onto the other state for state, so both workloads give one digest.
TWO_INVOCATION_REPORTS = {"glb": "d81869f8abc2ff9b", "bwbgme": "2bfaf21e48800781"}


def test_two_invocation_reports_pinned_under_session_relabeling():
    for name, build in (("glb", build_glb), ("bwbgme", build_bwbgme)):
        for sessions in ([[1, 2], [2, 1]], [[2, 1], [1, 2]]):
            report = explore(build(2), Workload(sessions))
            assert report.clean and not report.truncated, (name, sessions)
            assert report.max_token <= 4, (name, sessions)  # the invocation count
            assert report_digest(report) == TWO_INVOCATION_REPORTS[name], (name, sessions)


def test_max_token_is_the_largest_token_the_oracle_reaches():
    # explore reads max_token off its interned store table; an
    # independent search must reach a store that holds that number, and
    # none that holds more.  No token exceeds the workload's invocation
    # count, 4: a doorway reads only tokens written before it, so the
    # k-th token written is at most k (Lamport's ticket argument), and
    # explore needs no token cap.
    wl = explored_workload()
    for i, spec in enumerate(explored_specs()):
        if spec.name == "bl":
            continue
        names = SystemState(spec, wl).mem.names
        tokens = [slot for slot, name in enumerate(names) if name.startswith("Token[")]
        keys, _, _ = crosscheck_reachable(spec, wl)
        largest = max(token_number(store[slot]) for store, _ in keys for slot in tokens)
        report = explore(spec, wl)
        assert not report.truncated and report.max_token == largest <= 4, i


def test_max_states_cap_reports_truncation():
    report = explore(build_glb(3), distinct_sessions(3), max_states=50)
    assert report.truncated and report.truncation_reason == "max_states"
    assert report.states <= 50


def test_max_depth_cap_reports_truncation():
    report = explore(build_glb(2), distinct_sessions(2), max_depth=5)
    assert report.truncated and report.truncation_reason == "max_depth"
    # The counts pin which states the cap keeps: each lies at most 20
    # steps from the root along the DFS path that first stored it.
    for spec, sessions, states, transitions in (
            (build_glb(3), [[1], [2], [1]], 10_875, 32_616),
            (build_bwbgme(3), [[1], [1], [2]], 3_142, 9_426)):
        report = explore(spec, Workload(sessions), max_depth=20)
        assert (report.states, report.transitions, report.max_depth) \
            == (states, transitions, 20), spec.name
        assert report.truncated and report.truncation_reason == "max_depth"


def assert_witnesses_replay(spec, wl, report):
    """Explorer/checker agreement: every reported witness path, replayed
    as a script, yields a trace that the batch checker of the same
    property fails."""
    for prop, violations in report.violations.items():
        for v in violations:
            state = SystemState(spec, wl)
            result = run_collected(state, Scripted(v.path, spec.n), step_cap=len(v.path) + 1)
            assert check(MONITORS[prop], result.trace).status == FAIL, (prop, v)


# Digest of each mutant's report at sessions {1,1,1} (util.report_digest).
MUTANT_REPORTS = {"no_number_guard": "e3a0433d85be33e9",
                  "unconditional_flip": "b8e4e72460826cf9"}


def test_guard_mutant_violation_found_and_replays():
    wl = Workload([[1], [1], [1]])
    for mutant in ("no_number_guard", "unconditional_flip"):
        spec = build_bwbgme(3, mutant=mutant)
        report = explore(spec, wl)
        assert report.violation_count("flip")
        assert report.violation_count() == report.violation_count("flip")
        assert report_digest(report) == MUTANT_REPORTS[mutant], mutant
        assert_witnesses_replay(spec, wl, report)


# The bwbgme mutant kill matrix at N=2, the same in both colours.  The
# configs in the order they are tried, smallest first.
KILL_CONFIGS = ([[1], [1]], [[1], [2]], [[1, 1], [1]], [[1, 2], [1]], [[1, 1], [2]],
                [[1], [1, 1]])
# Per killed mutant: its first killing config, that report's state count
# and its violations per property.
KILLS = {"unconditional_flip": ([[1], [1]], 572, {"flip": 2}),
         "no_number_guard": ([[1, 1], [1]], 1951, {"flip": 17})}
# Mutants that no explored check kills on KILL_CONFIGS, with the reason
# each stays listed.
UNKILLED = {"no_opposite_scan": "clean on every config, but not state-equivalent to the "
                                "algorithm ({1},{2}: 746 states against 750), so a check "
                                "explore lacks may yet kill it"}


def test_bwbgme_mutant_kill_matrix_at_n2():
    for color in (WHITE, BLACK):
        for config in KILL_CONFIGS:
            for mutant in (None, *UNKILLED):
                assert explore(build_bwbgme(2, color, mutant), Workload(config)).clean, \
                    (mutant, color, config)
        assert [explore(build_bwbgme(2, color, mutant), Workload([[1], [2]])).states
                for mutant in (None, "no_opposite_scan")] == [750, 746]
        for mutant, (killer, states, kills) in KILLS.items():
            for config in KILL_CONFIGS[:KILL_CONFIGS.index(killer)]:
                assert explore(build_bwbgme(2, color, mutant), Workload(config)).clean, \
                    (mutant, color, config)
            spec, wl = build_bwbgme(2, color, mutant), Workload(killer)
            report = explore(spec, wl)
            assert (report.states, report.deadlocks) == (states, 0), (mutant, color)
            assert {prop: len(vs) for prop, vs in report.violations.items()} == kills
            assert_witnesses_replay(spec, wl, report)


def planted_skip_spec():
    """glb N=2 with a planted bug: P2 goes from its line-6 write straight
    to the CS, skipping the waiting room, so it can both overlap P1 in
    the CS and overtake it."""
    spec = build_glb(2)
    inner = spec.step_fn
    cs_pc = next(pc for pc, (section, _) in spec.pcs.items() if section is Section.CS)

    def step_fn(env, p, value):
        out = inner(env, p, value)
        if p == 1 and out[0] == 6:
            env.pc = cs_pc
        return out

    spec.step_fn = step_fn
    return spec, Workload([[1], [2]])


def test_planted_me_and_fcfs_witnesses_replay():
    spec, wl = planted_skip_spec()
    report = explore(spec, wl)
    # ME is an edge check: each step into the CS beside another
    # session is one witness
    assert report.violation_count("me") == 3
    assert report.violation_count("fcfs") == 8
    assert_witnesses_replay(spec, wl, report)


def planted_token_spec():
    """bwbgme N=2 with a planted bug: line 13 adds 2 to mynumber, so a
    token committed after a conflicting one can carry N+2."""
    spec = build_bwbgme(2)
    inner = spec.step_fn

    def step_fn(env, p, value):
        out = inner(env, p, value)
        if out[0] == 13:
            env.mynumber += 1
        return out

    spec.step_fn = step_fn
    return spec, Workload([[1], [2]])


def test_planted_token_bound_witnesses_replay():
    # Only some of the Token writes at one line and monitor state carry
    # a number above N+1: the explorer must tell them apart by value.
    spec, wl = planted_token_spec()
    report = explore(spec, wl)
    assert report.violation_count("token_bound") == 45
    assert report.violation_count() == 45 and report.max_token == 4
    assert_witnesses_replay(spec, wl, report)


def test_unmutated_counterpart_is_clean():
    report = explore(build_bwbgme(3), Workload([[1], [1], [1]]))
    assert report.clean
