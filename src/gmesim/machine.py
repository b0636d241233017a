"""Step-level execution of N asynchronous processes over shared memory.

Each process is a small state machine compiled from an algorithm's
pseudocode.  The algorithm declares each program counter once, as its
section and the step's one shared access (or none), and moves the
program counter given the value accessed; `step` makes the access in
between, so a step makes at most one shared access and its event
reports it, by construction.  A section is its own rank, the order in
which an invocation passes through the sections, so the section a step
lands in also says which markers it announces.  Wait-until lines are
compiled to polling, where every evaluation re-reads its shared
variables left to right with short-circuiting and a false outcome
leaves the program counter at the wait line.  A process is blocked when
its own steps alone would poll forever (`spins`), so "blocked" has no
definition besides the step machine's.

A step's event is a plain tuple in `TraceEvent`'s field order.  It
carries the `rmr` flag its access reported; those flags are the only
RMR ledger, and every RMR figure is a sum of them.

`explore` steps an interned state, on which `step` looks up all of a
step but its access (`SystemState.intern`).  `run` steps plain states,
which intern nothing: glb's tokens grow without bound over a long run.

The scheduler owns all interleaving; there are no real threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .errors import ConfigurationError
from .memory import Memory, RegisterDecl

PC_REMAINDER = 0


class Section(IntEnum):
    """The part of an invocation a pc belongs to, valued by its rank: the
    order in which an invocation passes through them, the remainder last.
    Traces name a section in lower case (`section.name.lower()`)."""

    DOORWAY = 1
    WAITING = 2
    CS = 3
    EXIT = 4
    REMAINDER = 5


DOORWAY_START = "doorway-start"
DOORWAY_COMPLETE = "doorway-complete"
CS_ENTER = "cs-enter"
CS_EXIT = "cs-exit"
EXIT_COMPLETE = "exit-complete"

# The marker of section rank k is _MARKERS[k - 1].  A step's rank is the
# section its pc lands in; every step starts inside the entry, CS or exit
# code, so landing in the remainder completes the exit, rank 5.  A step
# announces the markers of the ranks above the highest one its
# invocation announced so far, so each marker fires at most once per
# invocation (a goto back into the doorway, as in Burns-Lamport, must
# not announce the doorway again).
_MARKERS = (DOORWAY_START, DOORWAY_COMPLETE, CS_ENTER, CS_EXIT, EXIT_COMPLETE)
_REMAINDER = Section.REMAINDER


class TraceEvent(NamedTuple):
    """The fields of the observable record of one atomic step, in order.

    `step` and `run` make each event as a plain tuple in this order, not
    as an instance: building and reading a plain tuple costs a fraction
    of a named one, so gmesim reads events by position.  A reader that
    wants the names views an event as `TraceEvent._make(ev)`.  The
    positions: index 0, pid 1, inv 2, line 3, kind 4, reg 5, value 6,
    rmr 7, section 8, markers 9, outcome 10, j 11.
    """

    index: int
    pid: int
    inv: int  # 0-based invocation ordinal of this process, -1 if none
    line: int  # pseudocode line number of the executed instruction, 0 for none
    kind: str  # "read" | "write" | "local" | "noop" | "deadlock"
    reg: Optional[str]
    value: Any
    rmr: bool
    section: Section
    markers: tuple
    outcome: Optional[str]  # for wait-line steps: "pass" | "fail" | None
    j: Optional[int]  # loop target of a wait evaluation (1-based pid)


@dataclass
class Trace:
    """A run's events plus the context monitors need.

    The events of a trace `run` returns are the run itself, made one
    step at a time as they are taken and kept by nobody; a caller that
    needs them all (a trace file, a test) makes them a list first.
    """

    algorithm: str
    n: int
    events: Iterable
    meta: dict = field(default_factory=dict)


class Workload:
    """Per process, the session number of each of its invocations, in
    order; every invocation spends cs_steps local steps in the CS."""

    def __init__(self, sessions: list[list[int]], cs_steps: int = 1):
        if any(s <= 0 for per_proc in sessions for s in per_proc):
            raise ConfigurationError("session numbers must be positive")
        if cs_steps < 0:
            raise ConfigurationError("cs_steps must be >= 0")
        self.sessions = [list(per_proc) for per_proc in sessions]
        self.cs_steps = cs_steps

    @property
    def n(self) -> int:
        return len(self.sessions)


def finishes(ev: tuple, workload: Workload) -> bool:
    """Whether event ev completes the exit of its process's last
    invocation: the process never leaves the remainder again."""
    return EXIT_COMPLETE in ev[9] and ev[2] + 1 == len(workload.sessions[ev[1] - 1])


class ProcEnv:
    """One process's private runtime: program counter, locals, position."""

    __slots__ = ("pc", "j", "mysession", "mycolor", "mynumber", "acc", "inv",
                 "cs_left", "marks")

    def __init__(self):
        self.pc = PC_REMAINDER
        self.j = 0
        self.mysession = 0
        self.mycolor = ""
        self.mynumber = 0
        self.acc = 0
        self.inv = -1
        self.cs_left = 0
        self.marks = 0  # highest section rank announced this invocation

    def key(self) -> tuple:
        return (self.pc, self.j, self.mysession, self.mycolor, self.mynumber,
                self.acc, self.inv, self.cs_left, self.marks)

    def load_key(self, k: tuple) -> None:
        (self.pc, self.j, self.mysession, self.mycolor, self.mynumber,
         self.acc, self.inv, self.cs_left, self.marks) = k


@dataclass
class AlgorithmSpec:
    """An algorithm compiled to a step-level state machine.

    `pcs` declares each program counter once: pcs[pc] is (section,
    access), and pc 0 is (Section.REMAINDER, None).  A step of 0-based
    process p whose env.pc is inside the entry/CS/exit code belongs to
    the section of that pc, and has two halves that never see the memory.
    access(env, p) names its one shared access: None, ("read", slot) or
    ("write", slot, value).  step_fn(env, p, value) takes the value read
    or written (None for a local step), moves env on and returns (line,
    outcome, target_j).
    """

    name: str
    n: int
    registers: list[RegisterDecl]
    entry_pc: int
    pcs: dict[int, tuple]  # pc -> (section, access(env, p) of the step at pc)
    step_fn: Callable
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigurationError("need at least one process")


class Interned(dict):
    """Value -> small int id, handing out the next id to each new value;
    `table` lists the values in id order."""

    def __init__(self):
        super().__init__()
        self.table = []

    def __missing__(self, value):
        self[value] = i = len(self.table)
        self.table.append(value)
        return i


class SystemState:
    """Global store, reader sets, and every process's runtime."""

    __slots__ = ("spec", "mem", "envs", "workload", "step_index",
                 "runtime_ids", "rids", "rows", "note")

    def __init__(self, spec: AlgorithmSpec, workload: Workload):
        if workload.n != spec.n:
            raise ConfigurationError(
                f"workload has {workload.n} processes, algorithm has {spec.n}")
        self.spec = spec
        self.mem = Memory(spec.n, spec.registers)
        self.envs = [ProcEnv() for _ in range(spec.n)]
        self.workload = workload
        self.step_index = 0
        # Interned mode only (see `intern`).
        self.runtime_ids = self.rids = self.rows = self.note = None

    def intern(self, note: Callable) -> None:
        """Switch this state to interned mode, the one `explore` steps in.

        Each runtime is then named by an id: `runtime_ids` maps each
        `ProcEnv.key()` tuple to its id, in first-seen order (the current
        runtimes first, P1's first), and its `table` lists the tuples by
        id.  `rids` holds each process's runtime id: the caller sets it
        and a step only reads it.  `envs` no longer follows the steps, nor
        does what reads it (`live_pids`, `value_key`), and `step_index`
        no longer counts them.

        A step is then memoized, and still makes its one access through
        the memory.  `rows[p]` maps a runtime id to the access process p
        makes from it, and that row maps each value accessed to the step's
        record, one flat tuple: (child runtime id, event, *note(event,
        runtime id, child runtime id)), so `note` returns a tuple.  When
        either row is missing, the step loads the runtime into `envs[p]`
        and takes the plain step, whose record every later hit returns.
        The shared event has index 0, and its `rmr` is right only if each
        step starts on empty reader sets, as the caller keeps them.
        """
        self.runtime_ids = ids = Interned()
        self.rids = [ids[env.key()] for env in self.envs]
        self.rows = [{} for _ in self.envs]
        self.note = note

    def live_pids(self) -> list:
        """The ascending pids of the processes not yet finished (`finishes`)."""
        sessions = self.workload.sessions
        return [pid for pid, env in enumerate(self.envs, 1)
                if env.pc != PC_REMAINDER or env.inv + 1 < len(sessions[pid - 1])]

    # -- value-state keys (exclude reader sets) -------------------------

    def value_key(self) -> tuple:
        return (tuple(self.mem.store), tuple(e.key() for e in self.envs))

    def load_value_key(self, key: tuple) -> None:
        """Reset this state in place to a value key.

        Reader sets restart empty: the key deliberately excludes them,
        since which processes hold a valid copy never affects the values
        reads return, only their cost.
        """
        store, env_keys = key
        mem = self.mem
        mem.store = list(store)
        mem.valid = [0] * len(store)
        for env, k in zip(self.envs, env_keys):
            env.load_key(k)
        self.step_index = 0


def step(state: SystemState, pid: int) -> tuple:
    """Execute one atomic step of process pid; return its event, a plain
    tuple in `TraceEvent`'s field order.  On an interned state (see
    `SystemState.intern`) the step is looked up, all but its access, and
    returns its record: (child runtime id, event, note)."""
    p = pid - 1
    rows = state.rows
    if rows is not None:
        # Interned: the access follows from (pid, runtime id) alone, the
        # rest of the step from those and the value accessed, which a read
        # takes off the store before it is made.
        rid = state.rids[p]
        row = rows[p].get(rid)
        if row is not None:
            kind, slot, value, after = row
            mem = state.mem
            record = after.get(mem.store[slot] if kind == "read" else value)
            if record is not None:
                if kind == "read":
                    mem.read_slot(p, slot)
                elif kind == "write":
                    mem.write_slot(p, slot, value)
                return record
        # A miss: take the plain step from the runtime, and learn it.
        # Explore has no trace order, so a learned event's index is 0.
        state.envs[p].load_key(state.runtime_ids.table[rid])
        state.step_index = 0

    spec = state.spec
    env = state.envs[p]
    mem = state.mem
    index = state.step_index
    state.step_index = index + 1

    if env.pc == PC_REMAINDER:
        per_proc = state.workload.sessions[p]
        if env.inv + 1 >= len(per_proc):
            ev = (index, pid, -1, 0, "noop", None, None, False, _REMAINDER, (), None, None)
            return ev if rows is None else _learn(state, p, None, ev)
        # Zero-step transition out of the remainder: starting an invocation
        # immediately executes the first doorway instruction.
        env.inv += 1
        env.mysession, env.cs_left = per_proc[env.inv], state.workload.cs_steps
        env.pc = spec.entry_pc
        env.marks = 0

    # The event belongs to the section of the instruction it executed;
    # its markers are those of the section ranks it newly reached.
    pcs = spec.pcs
    section, declared = pcs[env.pc]
    access = declared(env, p)
    if access is None:
        kind, reg, value, rmr = "local", None, None, False
    else:
        kind, slot = access[0], access[1]
        reg = mem.names[slot]
        if kind == "read":
            value, rmr = mem.read_slot(p, slot)
        else:
            value, rmr = access[2], True
            mem.write_slot(p, slot, value)
    line, outcome, target_j = spec.step_fn(env, p, value)

    rank = pcs[env.pc][0]
    if rank > env.marks:
        markers = _MARKERS[env.marks:rank]
        env.marks = rank
    else:
        markers = ()
    ev = (index, pid, env.inv, line, kind, reg, value, rmr, section, markers,
          outcome, target_j)
    return ev if rows is None else _learn(state, p, access, ev)


def _learn(state: SystemState, p: int, access, ev: tuple) -> tuple:
    """Record the plain step 0-based process p just took on an interned
    state, given its access and event: the access row of its runtime id
    if it is new, and in it the record of the value accessed, which it
    returns."""
    rows = state.rows[p]
    rid = state.rids[p]
    row = rows.get(rid)
    if row is None:
        kind = ev[4]
        row = rows[rid] = (kind, 0 if access is None else access[1],
                           ev[6] if kind == "write" else None, {})
    child = state.runtime_ids[state.envs[p].key()]
    record = row[3][ev[6]] = (child, ev, *state.note(ev, rid, child))
    return record


def spins(spec: AlgorithmSpec, runtime: tuple, store, p: int) -> bool:
    """True iff 0-based process p, stepped alone from `runtime` (a
    `ProcEnv.key()` tuple) over this store, polls forever.

    A runtime loaded from the tuple takes the steps, each read straight
    from the store.  It spins once it comes back to a (pc, j) it has
    already visited before it writes, takes a local step or passes an
    evaluation: with nothing written, the same evaluation comes out the
    same way again.
    """
    copy = ProcEnv()
    copy.load_key(runtime)
    pcs, step_fn = spec.pcs, spec.step_fn
    seen = set()
    while (at := (copy.pc, copy.j)) not in seen:
        seen.add(at)
        acc = pcs[copy.pc][1](copy, p)
        if acc is None or acc[0] != "read":
            return False
        if step_fn(copy, p, store[acc[1]])[1] == "pass":
            return False
    return True


def all_active_blocked(spec: AlgorithmSpec, store, runtimes: Iterable) -> bool:
    """True iff some process is active and every active one spins, over
    this store, given every process's runtime (`ProcEnv.key()` tuples,
    P1's first).

    Active means outside the remainder section.  A spinning process
    never writes, and a process entering from the remainder cannot make
    a spinning evaluation pass, so such a state is a deadlock.  The
    runtimes are taken one at a time, so a generator of them is made
    only up to the first process that does not spin.
    """
    any_active = False
    for p, runtime in enumerate(runtimes):
        if runtime[0] == PC_REMAINDER:
            continue
        if not spins(spec, runtime, store, p):
            return False
        any_active = True
    return any_active


@dataclass
class RunResult:
    """A run's trace, and how the run ended: known once its events are spent."""

    trace: Trace
    completed: bool = False
    deadlocked: bool = False
    cap_hit: bool = False
    steps: int = 0  # events made, the deadlock event included


def run(state: SystemState, schedule, step_cap: int = 1_000_000) -> RunResult:
    """Drive the system under a schedule until done, stuck, or capped.

    Returns before any step: the run happens as its trace's events are
    taken, one `step` per event in schedule order, plus a last
    "deadlock" event when every active process is blocked.  Taking the
    last event sets `completed`, `deadlocked`, `cap_hit` and `steps`,
    on the result and in the trace meta.  Checking the events is the
    caller's job (see `gmesim.monitors`).
    """
    spec = state.spec
    workload_sessions = state.workload.sessions
    # The end flags keep their place in the meta's key order until the
    # run settles them.
    meta = dict(spec.meta, completed=False, deadlocked=False, cap_hit=False,
                sessions=sorted({s for per_proc in workload_sessions for s in per_proc}),
                workload_sessions=workload_sessions)
    result = RunResult(Trace(spec.name, spec.n, None, meta))
    result.trace.events = _events(state, schedule, step_cap, result)
    return result


def _events(state: SystemState, schedule, step_cap: int, result: RunResult):
    """The events of `run`'s result, each made as it is taken."""
    steps = 0
    deadlocked = False
    cap_hit = False
    # The ascending pids a schedule picks from.  Only the stepped process
    # can finish, on the step that completes its last exit.
    live = state.live_pids()
    # Bit pid is set once pid fails an evaluation, and every bit clears
    # on any step but a read that does not pass.  A deadlock needs every
    # live process to spin, so the check waits until each has failed since.
    failed = 0
    next_pid = schedule.next
    while live:
        if steps >= step_cap:
            cap_hit = True
            break
        pid = next_pid(live)
        if pid is None:
            break
        ev = step(state, pid)
        steps += 1
        yield ev
        outcome = ev[10]  # the event's outcome; ev[4] is its kind
        if outcome == "fail":
            failed |= 1 << pid
            if failed.bit_count() == len(live) and all_active_blocked(
                    state.spec, state.mem.store, (env.key() for env in state.envs)):
                steps += 1
                yield (state.step_index, 0, -1, 0, "deadlock", None, None, False,
                       _REMAINDER, (), None, None)
                state.step_index += 1
                deadlocked = True
                break
        elif outcome or ev[4] != "read":
            failed = 0
        if finishes(ev, state.workload):
            live.remove(pid)

    completed = not live
    result.completed, result.deadlocked, result.cap_hit = completed, deadlocked, cap_hit
    result.steps = steps
    result.trace.meta.update(completed=completed, deadlocked=deadlocked, cap_hit=cap_hit)
