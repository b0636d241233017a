"""Bounded exhaustive exploration of all interleavings, with deadlock
detection and safety monitors evaluated at every state.

States are keyed on (global store, all process runtimes, workload
positions); the reader sets (which processes hold a valid copy of each
register) are excluded because they change only the cost of a read,
never its value.  Temporal properties (FCFS precedence, the GlobalColor
flip windows) ride along as explicit monitor state inside the key, so
merging states never loses a pending obligation.

Every reported state is reproducible: the DFS keeps a parent edge per
state, and path_of() turns any state id into the pid script that
reaches it from the initial state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .machine import (CS_ENTER, DOORWAY_START, EXIT_COMPLETE, Section,
                      SystemState, Workload, all_active_blocked, step)

DEFAULT_CHECKS = {
    "glb": ("me", "fcfs", "deadlock"),
    "bwbgme": ("me", "fcfs", "deadlock", "flip", "token_bound"),
    "bl": ("me", "deadlock"),
}


@dataclass
class Violation:
    prop: str
    path: tuple  # pid script from the initial state
    detail: str


@dataclass
class ExplorationReport:
    algorithm: str
    n: int
    states: int = 0
    transitions: int = 0
    max_depth: int = 0
    violations: dict = field(default_factory=dict)  # prop -> [Violation]
    deadlocks: int = 0
    max_token: int = 0
    token_cap_hits: int = 0
    truncated: bool = False
    truncation_reason: str = ""
    value_keys: Optional[set] = None
    samples: list = field(default_factory=list)  # (path, value_key) probes
    merges: list = field(default_factory=list)   # (path_a, path_b) to equal keys

    def violation_count(self, prop: str = None) -> int:
        if prop is not None:
            return len(self.violations.get(prop, []))
        return sum(len(v) for v in self.violations.values())

    @property
    def clean(self) -> bool:
        return self.violation_count() == 0 and self.deadlocks == 0


def _env_live(env_key: tuple, per_proc: list) -> bool:
    pc, inv = env_key[0], env_key[6]
    return pc != 0 or inv + 1 < len(per_proc)


def explore(spec, workload: Workload, *, max_states: int = 2_000_000,
            max_depth: Optional[int] = None, token_cap: Optional[int] = None,
            checks=None, collect_keys: bool = False,
            stop_on_violation: bool = False, collect_samples: int = 0,
            collect_merges: int = 0) -> ExplorationReport:
    """Depth-first search over every enabled-process choice.

    Caps are reported as truncation, never as a property failure.  For
    glb the unbounded tokens get a ceiling (default 4 * N * invocations);
    paths that exceed it are cut and counted in token_cap_hits.
    """
    n = spec.n
    if checks is None:
        checks = DEFAULT_CHECKS[spec.name]
    checks = set(checks)
    report = ExplorationReport(spec.name, n)

    total_inv = sum(len(per) for per in workload.invocations)
    token_slots = spec.meta.get("unbounded_token_slots")
    if token_slots and token_cap is None:
        token_cap = 4 * n * max(1, total_inv)

    is_bw = spec.name == "bwbgme"
    work = SystemState(spec, workload)
    gc_slot = work.mem.slot_of.get(("GlobalColor", None))
    track_fcfs = "fcfs" in checks
    track_flip = "flip" in checks and is_bw

    def mon_initial() -> tuple:
        masks = (0,) * n if track_fcfs else None
        wins = (-1,) * n if track_flip else None
        return (masks, wins)

    root_key = (work.value_key(), mon_initial())
    ids = {root_key: 0}
    keys = [root_key]
    parent = [-1]
    parent_pid = [0]
    depth = [0]
    stack = [0]

    def path_of(nid: int) -> tuple:
        out = []
        while nid > 0:
            out.append(parent_pid[nid])
            nid = parent[nid]
        return tuple(reversed(out))

    def add_violation(prop: str, nid: int, detail: str) -> None:
        report.violations.setdefault(prop, []).append(
            Violation(prop, path_of(nid), detail))

    def add_edge_violation(prop: str, nid: int, pid: int, detail: str) -> None:
        report.violations.setdefault(prop, []).append(
            Violation(prop, path_of(nid) + (pid,), detail))

    def state_checks(nid: int, st: SystemState) -> None:
        if "me" in checks:
            sessions = set()
            pids_in_cs = []
            for p, env in enumerate(st.envs):
                if spec.sections[env.pc] is Section.CS:
                    sessions.add(env.mysession)
                    pids_in_cs.append(p + 1)
            if len(sessions) > 1:
                add_violation("me", nid,
                              f"processes {pids_in_cs} in CS with sessions {sorted(sessions)}")
        if "deadlock" in checks and all_active_blocked(st):
            report.deadlocks += 1
            add_violation("deadlock", nid, "every active process is blocked")

    state_checks(0, work)

    while stack:
        nid = stack.pop()
        vkey, mon = keys[nid]
        masks, wins = mon
        env_keys = vkey[1]
        for pid in range(1, n + 1):
            p = pid - 1
            if not _env_live(env_keys[p], workload.invocations[p]):
                continue
            work.load_value_key(vkey)
            ev = step(work, pid)
            report.transitions += 1

            new_masks, new_wins = masks, wins
            if track_fcfs:
                if DOORWAY_START in ev.markers:
                    bit = 0
                    me_env = work.envs[p]
                    for q, env_q in enumerate(work.envs):
                        if q != p and env_q.mysession != me_env.mysession \
                                and spec.sections[env_q.pc] is Section.WAITING:
                            bit |= 1 << q
                    new_masks = masks[:p] + (bit,) + masks[p + 1:]
                if CS_ENTER in ev.markers:
                    if new_masks[p]:
                        waited_on = [q + 1 for q in range(n) if new_masks[p] >> q & 1]
                        add_edge_violation("fcfs", nid, pid,
                                           f"P{pid} entered the CS overtaking {waited_on}")
                    keep = ~(1 << p)
                    new_masks = tuple((m & keep) if q != p else 0
                                      for q, m in enumerate(new_masks))
            if track_flip:
                if ev.line == 5 and ev.kind == "read":
                    new_wins = wins[:p] + (0,) + wins[p + 1:]
                elif ev.kind == "write" and ev.reg == "GlobalColor" \
                        and ev.value != vkey[0][gc_slot]:
                    bumped = []
                    flip_violation = False
                    for q, w in enumerate(new_wins):
                        if w >= 0:
                            bumped.append(w + 1)
                            if w + 1 >= 2:
                                flip_violation = True
                        else:
                            bumped.append(w)
                    new_wins = tuple(bumped)
                    if flip_violation:
                        victims = [q + 1 for q, w in enumerate(new_wins) if w >= 2]
                        add_edge_violation("flip", nid, pid,
                                           f"second GlobalColor flip inside window of {victims}")
                if EXIT_COMPLETE in ev.markers and new_wins is not None \
                        and new_wins[p] >= 0:
                    new_wins = new_wins[:p] + (-1,) + new_wins[p + 1:]

            if ev.kind == "write" and ev.reg and ev.reg.startswith("Token["):
                number = ev.value[2] if is_bw else ev.value
                if number > report.max_token:
                    report.max_token = number
                if is_bw and "token_bound" in checks and number > n + 1:
                    add_edge_violation("token_bound", nid, pid,
                                       f"P{pid} committed token number {number} > {n + 1}")
                if token_cap is not None and number > token_cap:
                    report.token_cap_hits += 1
                    report.truncated = True
                    report.truncation_reason = "token cap"
                    continue

            child_key = (work.value_key(), (new_masks, new_wins))
            known = ids.get(child_key)
            if known is not None:
                if collect_merges and len(report.merges) < collect_merges:
                    report.merges.append((path_of(known), path_of(nid) + (pid,)))
                continue
            if len(keys) >= max_states:
                report.truncated = True
                report.truncation_reason = "max_states"
                continue
            child_depth = depth[nid] + 1
            if max_depth is not None and child_depth > max_depth:
                report.truncated = True
                report.truncation_reason = "max_depth"
                continue
            cid = len(keys)
            ids[child_key] = cid
            keys.append(child_key)
            parent.append(nid)
            parent_pid.append(pid)
            depth.append(child_depth)
            if child_depth > report.max_depth:
                report.max_depth = child_depth
            if collect_samples and cid % collect_samples == 0:
                report.samples.append((path_of(cid), child_key[0]))
            state_checks(cid, work)
            stack.append(cid)
        if stop_on_violation and (report.violation_count() or report.deadlocks):
            break

    report.states = len(keys)
    if collect_keys:
        report.value_keys = {k[0] for k in keys}
    return report


def crosscheck_reachable(spec, workload: Workload, *, max_states: int = 500_000):
    """Independent breadth-first interleaver over the same step semantics.

    Uses none of explore()'s bookkeeping: a plain frontier queue over
    value keys (no monitor product), checking only the state predicates.
    Returns (frozenset of value keys, me_violations, deadlocks).
    """
    n = spec.n
    work = SystemState(spec, workload)
    root = work.value_key()
    seen = {root}
    queue = deque([root])
    me_violations = 0
    deadlocks = 0

    def predicates(st: SystemState) -> tuple:
        sessions = {env.mysession for env in st.envs
                    if spec.sections[env.pc] is Section.CS}
        return (len(sessions) > 1, all_active_blocked(st))

    me0, dl0 = predicates(work)
    me_violations += me0
    deadlocks += dl0

    while queue:
        vkey = queue.popleft()
        for pid in range(1, n + 1):
            if not _env_live(vkey[1][pid - 1], workload.invocations[pid - 1]):
                continue
            work.load_value_key(vkey)
            step(work, pid)
            child = work.value_key()
            if child in seen:
                continue
            if len(seen) >= max_states:
                raise RuntimeError("crosscheck exceeded max_states")
            seen.add(child)
            me_bad, dl = predicates(work)
            me_violations += me_bad
            deadlocks += dl
            queue.append(child)
    return frozenset(seen), me_violations, deadlocks
