"""Bounded exhaustive exploration of all interleavings, with deadlock
detection and the online safety monitors folded along every edge.

States are keyed on (global store, all process runtimes, workload
positions) plus the state of each online monitor the algorithm checks
(`gmesim.monitors.ONLINE`): the same definitions `gmesim run` folds
over a trace.  The reader sets (which processes hold a valid copy of
each register) are excluded because they change only the cost of a
read, never its value.  Pending obligations (FCFS precedence, the
GlobalColor flip windows) live in the monitor states, so merging states
never loses one.  Every property, mutual exclusion included, is checked
on the edge whose event violates it.

Every reported state is reproducible: the DFS keeps a parent edge per
state, and path_of() turns any state id into the pid script that
reaches it from the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .machine import SystemState, Workload, all_active_blocked, step
from .monitors import DEFAULT_MONITORS, ONLINE, advance, monitored, token_number


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


def default_token_cap(n: int, invocations: int) -> int:
    """explore()'s ceiling on glb's unbounded token numbers, unless given."""
    return 4 * n * max(1, invocations)


def explore(spec, workload: Workload, *, max_states: int = 2_000_000,
            max_depth: Optional[int] = None, token_cap: Optional[int] = None,
            collect_keys: bool = False, collect_samples: int = 0,
            collect_merges: int = 0) -> ExplorationReport:
    """Depth-first search over every enabled-process choice.

    Checks deadlock plus every default monitor of the algorithm that has
    an online form.  Caps are reported as truncation, never as a
    property failure.  For glb the unbounded tokens get a ceiling
    (default_token_cap); paths that exceed it are cut and counted in
    token_cap_hits.
    """
    n = spec.n
    report = ExplorationReport(spec.name, n)

    if spec.meta.get("unbounded_token_slots") and token_cap is None:
        token_cap = default_token_cap(n, sum(map(len, workload.invocations)))

    work = SystemState(spec, workload)
    props = [prop for prop in DEFAULT_MONITORS[spec.name] if prop in ONLINE]
    sessions = [[s for s, _ in per] for per in workload.invocations]
    color = spec.meta.get("initial_color")
    starts, mon_steps, describe = zip(*(ONLINE[prop](n, sessions, color) for prop in props))

    root_key = (work.value_key(), starts)
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

    def add_violation(prop: str, path: tuple, detail: str) -> None:
        report.violations.setdefault(prop, []).append(Violation(prop, path, detail))

    def check_deadlock(nid: int) -> None:
        if all_active_blocked(work):
            report.deadlocks += 1
            add_violation("deadlock", path_of(nid), "every active process is blocked")

    check_deadlock(0)

    while stack:
        nid = stack.pop()
        vkey, mon = keys[nid]
        env_keys = vkey[1]
        for pid in range(1, n + 1):
            pc, inv = env_keys[pid - 1][0], env_keys[pid - 1][6]
            if pc == 0 and inv + 1 >= len(workload.invocations[pid - 1]):
                continue  # the process has finished its last invocation
            work.load_value_key(vkey)
            ev = step(work, pid)
            report.transitions += 1

            child_mon = mon
            if monitored(ev):
                child_mon, hits = advance(mon_steps, mon, ev)
                for i, culprits in hits:
                    add_violation(props[i], path_of(nid) + (pid,),
                                  describe[i](ev, culprits))

            if ev.kind == "write" and ev.reg.startswith("Token["):
                number = token_number(ev.value)
                if number > report.max_token:
                    report.max_token = number
                if token_cap is not None and number > token_cap:
                    report.token_cap_hits += 1
                    report.truncated = True
                    report.truncation_reason = "token cap"
                    continue

            child_key = (work.value_key(), child_mon)
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
            check_deadlock(cid)
            stack.append(cid)

    report.states = len(keys)
    if collect_keys:
        report.value_keys = {k[0] for k in keys}
    return report
