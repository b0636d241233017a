"""Bounded exhaustive exploration of all interleavings, with deadlock
detection and the online safety monitors folded along every edge.

A state is the global store, all process runtimes (with their workload
positions) and the state of each online monitor the algorithm checks
(`gmesim.monitors.online_props`): the same definitions `gmesim run` folds
over a trace.  The reader sets (which processes hold a valid copy of
each register) are excluded because they change only the cost of a
read, never its value.  Pending obligations (FCFS precedence, the
GlobalColor flip windows) live in the monitor states, so merging states
never loses one.  Every property, mutual exclusion included, is checked
on the edge whose event violates it.

Each component is stored once, in one of three interned tables (the
stores, the `ProcEnv.key()` runtimes, which the live state keeps, and
the monitor-state tuples), and a state's key packs their small-int ids
into one int, as in SPIN's collapse compression: field i (store id,
runtime id of P1..Pn, monitor-state id) sits at shift i*width.  The
width is fixed before the search from a bound no id can reach (see
`explore`).  The visited table is the state list: an insertion-ordered
dict whose i-th key is state i's, beside array columns of each state's
parent and the pid that stepped to it.

One live SystemState serves every state, in interned mode
(`SystemState.intern`), where each step is memoized but its access.  A
step reads only the store and its own process's runtime, so the search
loads a popped state's store once, if the live state holds another, and
undoes each write in place once the child's store id is known; it sets
the stepped process's runtime id before each step.  Each successor makes
its one `machine.step`, and so its one memory access, on empty reader
sets (the slot it accessed is emptied after it), so its reads cost what
they would from a fresh load, and what the shared event in the step's
record says.  `access` and `step_fn` are pure in the runtime, so (pid,
runtime id, value accessed) fixes the whole record, and with it the note
the search makes for it once, whose fields follow the event in the
record: the slot, whether the step moves an active process, the key's
change in the runtime field, two memos (shared by the notes that write
the same value to the same slot and by those of the same monitored
event), and whether the process has then finished its last invocation.
A write's child store id follows from the parent's store id, and since
`advance` is pure, each monitor-state id is stepped over each monitored
event once, giving the child's monitor-state id and the violations it
reports.  A successor's key is the parent's plus the change of each
field that moved.  The DFS stack carries each state's fields, depth and
live pids (those not yet finished, the only ones stepped) beside its id
and key, so a popped key is never unpacked.

A state is a deadlock when some process is active and every active one
spins (`machine.all_active_blocked`).  It is checked when the state is
expanded, and only if every active process's step from it was a read
that did not pass: a write, a local step or a pass is a process that
does not spin.  The check reads the interned store and runtime values,
not the live state, and is memoized on the key's store and runtime
fields, so each quiet value key is checked once however many monitor
states it is stored with.

Every reported state is reproducible: the report keeps the state table
the DFS builds (each state's key and parent edge) with the three
tables, and path_of() turns any state id into the pid script that
reaches it from the initial state.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from .machine import PC_REMAINDER, Interned, SystemState, Workload, all_active_blocked, step
from .monitors import ONLINE, advance, monitored, online_props, token_number

PROGRESS_EVERY = 1 << 20  # stored states between two calls of explore's progress


@dataclass
class Violation:
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
    max_token: int = 0  # the largest token number a Token register held
    truncation_reason: str = ""  # the cap that stopped the search, if one did
    # The state table, by state id (0 is the initial state): the packed
    # keys in id order, each state's parent and the pid stepped from it.
    width: int = 0
    keys: dict = field(default_factory=dict, repr=False)
    parent: array = field(default_factory=lambda: array("i"), repr=False)
    parent_pid: array = field(default_factory=lambda: array("i"), repr=False)
    stores: list = field(default_factory=list, repr=False)  # tuple(mem.store) values
    runtimes: list = field(default_factory=list, repr=False)  # ProcEnv.key() values
    monitor_states: list = field(default_factory=list, repr=False)  # per-monitor state tuples

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
    def deadlocks(self) -> int:
        return self.violation_count("deadlock")

    @property
    def truncated(self) -> bool:
        return self.truncation_reason != ""

    @property
    def clean(self) -> bool:
        return self.violation_count() == 0


def _typecode(bound: int) -> str:
    """The narrowest signed array typecode that holds every int in [-1, bound]."""
    return next(t for t in "bhiq" if bound < 1 << (8 * array(t).itemsize - 1))


def explore(spec, workload: Workload, *, max_states: int = 2_000_000,
            max_depth: Optional[int] = None, progress=None) -> ExplorationReport:
    """Depth-first search over every enabled-process choice.

    Checks deadlock plus the algorithm's online monitors
    (`online_props`); deadlock witnesses are listed in expansion order.
    Caps are reported as truncation, never as a property failure.
    glb's unbounded tokens need no cap: over a finite workload none
    exceeds the invocation count.  `max_token` is read once the search
    ends, off the store table, which holds every store a write produced.
    `progress(states, transitions, max_depth)`, if given, is called each
    time PROGRESS_EVERY more states are stored; its transitions include
    every step of the state being expanded.
    """
    n = spec.n
    report = ExplorationReport(spec.name, n)

    work = SystemState(spec, workload)
    props = online_props(spec.name)
    color = spec.meta.get("initial_color")
    starts, mon_steps, describe = zip(*(ONLINE[prop](n, workload.sessions, color)
                                        for prop in props))

    store_ids, monitor_ids = Interned(), Interned()
    stores = report.stores = store_ids.table
    monitor_states = report.monitor_states = monitor_ids.table
    # (slot, value written) -> {store id: child store id}
    store_memos = defaultdict(dict)
    # event fields -> {monitor-state id: (child id, (i, culprits) per violated i)}
    monitor_memos = defaultdict(dict)
    blocked = {}  # a key's store and runtime fields -> all_active_blocked's verdict

    # The root interns one value in each table and a transition at most
    # one more per table.  At most max(max_states, 1) states are stored,
    # each stepped by at most n processes, so no table reaches 2**width
    # values and every id fits in its field.
    stored = max(max_states, 1)
    width = report.width = (1 + stored * n).bit_length()
    monitor_shift = (n + 1) * width
    value_mask = (1 << monitor_shift) - 1
    last_inv = [len(per) - 1 for per in workload.sessions]

    def note(ev, rid, child):
        """A step's slot (0 if none), whether it moves an active process (a
        write, a local step or a pass), its key delta, its two memos, and
        whether the step finished the process's last invocation."""
        _, pid, inv, line, kind, reg, value, _, _, markers, outcome, _ = ev
        slot = mem.names.index(reg) if reg else 0
        after = runtimes[child]
        return (slot, runtimes[rid][0] != PC_REMAINDER and (kind != "read" or outcome == "pass"),
                (child - rid) << (pid * width),
                store_memos[slot, value] if kind == "write" else None,
                monitor_memos[pid, inv, line, kind, reg, value, markers]
                if monitored(ev) else None,
                after[0] == PC_REMAINDER and after[6] >= last_inv[pid - 1])

    work.intern(note)
    runtimes = report.runtimes = work.runtime_ids.table
    mem, rids, valid = work.mem, work.rids, work.mem.valid
    store = mem.store
    root = [store_ids[tuple(store)], *rids, monitor_ids[starts]]
    root_key = sum(f << (i * width) for i, f in enumerate(root))
    ids = report.keys = {root_key: None}
    parent = report.parent = array(_typecode(stored), [-1])
    parent_pid = report.parent_pid = array(_typecode(n), [0])
    # (state id, key, its fields, its depth, its live pids: those that have
    # not finished their last invocation), per state to expand.  Every
    # process starts in the remainder, finished if it has no invocation.
    stack = [(0, root_key, root, 0, tuple(p for p in range(1, n + 1) if last_inv[p - 1] >= 0))]
    path_of = report.path_of
    held = root[0]  # the id of the store the live state holds
    # No state is deeper than the count of states stored before it, so
    # without a depth cap, `stored` never stops the search.
    depth_cap = stored if max_depth is None else max_depth
    deepest = 0
    # The state id on which progress is next called (never, without one).
    progress_at = PROGRESS_EVERY - 1 if progress is not None else -1

    def add_violation(prop: str, path: tuple, detail: str) -> None:
        report.violations.setdefault(prop, []).append(Violation(path, detail))

    transitions = 0
    while stack:
        nid, key, fields, depth, live = stack.pop()
        sid, mid = fields[0], fields[-1]
        # The store is loaded once per state: each write is undone after its step.
        parent_store = stores[sid]
        if held != sid:
            store[:] = parent_store
            held = sid
        transitions += len(live)
        quiet = True  # no active process has written, stepped locally or passed
        for pid in live:
            rids[pid - 1] = fields[pid]
            child_rid, ev, slot, moves, delta, store_memo, monitor_memo, done = step(work, pid)
            if moves:
                quiet = False
            valid[slot] = 0  # no process holds a copy before the next step
            child = key + delta
            child_sid = sid
            if store_memo is not None:
                child_sid = store_memo.get(sid)
                if child_sid is None:
                    child_sid = store_memo[sid] = store_ids[tuple(store)]
                store[slot] = parent_store[slot]
                child += child_sid - sid
            child_mid = mid
            if monitor_memo is not None:
                hit = monitor_memo.get(mid)
                if hit is None:
                    after, hits = advance(mon_steps, monitor_states[mid], ev)
                    hit = monitor_memo[mid] = (monitor_ids[after], hits)
                child_mid, hits = hit
                for i, culprits in hits:
                    add_violation(props[i], path_of(nid) + (pid,),
                                  describe[i](ev, culprits))
                child += (child_mid - mid) << monitor_shift

            if child in ids:
                continue
            cid = len(ids)
            if cid >= max_states:
                report.truncation_reason = "max_states"
                continue
            if depth >= depth_cap:
                report.truncation_reason = "max_depth"
                continue
            ids[child] = None
            parent.append(nid)
            parent_pid.append(pid)
            if depth >= deepest:
                deepest = depth + 1
            if cid == progress_at:
                progress(cid + 1, transitions, deepest)
                progress_at += PROGRESS_EVERY
            child_fields = fields.copy()
            child_fields[0], child_fields[pid], child_fields[-1] = child_sid, child_rid, child_mid
            stack.append((cid, child, child_fields, depth + 1,
                          tuple(q for q in live if q != pid) if done else live))

        if quiet:
            value_key = key & value_mask
            stuck = blocked.get(value_key)
            if stuck is None:
                stuck = blocked[value_key] = all_active_blocked(
                    spec, stores[sid], (runtimes[r] for r in fields[1:-1]))
            if stuck:
                add_violation("deadlock", path_of(nid), "every active process is blocked")

    report.states = len(ids)
    report.max_depth = deepest
    report.transitions = transitions
    tokens = [slot for slot, name in enumerate(mem.names) if name.startswith("Token[")]
    report.max_token = max((token_number(store[slot]) for store in stores for slot in tokens),
                           default=0)
    return report
