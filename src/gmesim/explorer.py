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

The search steps and undoes instead of copying state in.  Each popped
state is loaded into one live SystemState once.  Each successor steps
one process on it, and its key is spliced from the parent's: a step
changes only its own process's runtime and, if it writes, the store,
so the child shares the parent's store tuple unless the step wrote, and
every other process's runtime tuple.  Before the next successor the
step is undone: the store is restored, the reader sets emptied (so
every successor's reads cost what they would from a fresh load) and
the runtime of the process that stepped is reloaded.

Every reported state is reproducible: the report keeps the state table
the DFS builds (each state's key and parent edge), and path_of() turns
any state id into the pid script that reaches it from the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .machine import PC_REMAINDER, SystemState, Workload, all_active_blocked, step
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
    # The state table, indexed by state id (0 is the initial state):
    # (value key, monitor states), the parent's id and the pid stepped from it.
    keys: list = field(default_factory=list, repr=False)
    parent: list = field(default_factory=list, repr=False)
    parent_pid: list = field(default_factory=list, repr=False)

    def path_of(self, nid: int) -> tuple:
        """The pid script that reaches state nid from the initial state."""
        out = []
        while nid > 0:
            out.append(self.parent_pid[nid])
            nid = self.parent[nid]
        return tuple(reversed(out))

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
            max_depth: Optional[int] = None,
            token_cap: Optional[int] = None) -> ExplorationReport:
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
    keys = report.keys = [root_key]
    parent = report.parent = [-1]
    parent_pid = report.parent_pid = [0]
    depth = [0]
    stack = [0]
    path_of = report.path_of
    mem, envs = work.mem, work.envs
    no_readers = [0] * len(mem.store)
    last_inv = [len(per) - 1 for per in workload.invocations]

    def add_violation(prop: str, path: tuple, detail: str) -> None:
        report.violations.setdefault(prop, []).append(Violation(prop, path, detail))

    def check_deadlock(nid: int) -> None:
        # The live state is state nid: the root, or the child just stepped.
        if all_active_blocked(work):
            report.deadlocks += 1
            add_violation("deadlock", path_of(nid), "every active process is blocked")

    check_deadlock(0)

    while stack:
        nid = stack.pop()
        vkey, mon = keys[nid]
        store, env_keys = vkey
        work.load_value_key(vkey)
        stepped = -1  # the 0-based process whose step the live state still holds
        for p, env_key in enumerate(env_keys):
            if env_key[0] == PC_REMAINDER and env_key[6] >= last_inv[p]:
                continue  # the process has finished its last invocation
            if stepped >= 0:  # undo the previous successor's step
                mem.store[:] = store
                mem.valid[:] = no_readers
                envs[stepped].load_key(env_keys[stepped])
            stepped = p
            pid = p + 1
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

            child_store = tuple(mem.store) if ev.kind == "write" else store
            child_envs = env_keys[:p] + (envs[p].key(),) + env_keys[p + 1:]
            child_key = ((child_store, child_envs), child_mon)
            if child_key in ids:
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
            check_deadlock(cid)
            stack.append(cid)

    report.states = len(keys)
    return report
