"""Step-level execution of N asynchronous processes over shared memory.

Each process is a small state machine compiled from an algorithm's
pseudocode.  One step performs at most one shared read or one shared
write (plus any amount of local computation); wait-until lines are
compiled to polling, where every evaluation re-reads its shared
variables left to right with short-circuiting and a false outcome
leaves the program counter at the wait line.

The scheduler owns all interleaving; there are no real threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from .errors import ConfigurationError
from .memory import Memory, RegisterDecl

PC_REMAINDER = 0


class Section(Enum):
    REMAINDER = "remainder"
    DOORWAY = "doorway"
    WAITING = "waiting"
    CS = "cs"
    EXIT = "exit"


_RANK = {
    Section.REMAINDER: 0,
    Section.DOORWAY: 1,
    Section.WAITING: 2,
    Section.CS: 3,
    Section.EXIT: 4,
}

DOORWAY_START = "doorway-start"
DOORWAY_COMPLETE = "doorway-complete"
CS_ENTER = "cs-enter"
CS_EXIT = "cs-exit"
EXIT_COMPLETE = "exit-complete"

_MARKER_BIT = {DOORWAY_START: 1, DOORWAY_COMPLETE: 2, CS_ENTER: 4,
               CS_EXIT: 8, EXIT_COMPLETE: 16}


def _markers_for(prev: Section, new: Section) -> tuple:
    if prev is Section.EXIT and new is Section.REMAINDER:
        return (EXIT_COMPLETE,)
    a, b = _RANK[prev], _RANK[new]
    if b <= a:
        return ()
    out = []
    if a < 1 <= b:
        out.append(DOORWAY_START)
    if a < 2 <= b:
        out.append(DOORWAY_COMPLETE)
    if a < 3 <= b:
        out.append(CS_ENTER)
    if a < 4 <= b:
        out.append(CS_EXIT)
    return tuple(out)


# Marker tuple per (prev, new) section pair, computed once.  Each marker
# fires at most once per invocation (a goto back into the doorway, as in
# Burns-Lamport, must not announce the doorway again).
_MARKERS = {
    (p, q): _markers_for(p, q) for p in Section for q in Section
}


@dataclass(slots=True)
class TraceEvent:
    """Observable record of one atomic step."""

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
    """A full run's event sequence plus the context monitors need."""

    algorithm: str
    n: int
    events: list
    meta: dict = field(default_factory=dict)
    # gmesim.monitors' cached pass along the events, not part of the value
    online_pass: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


class Workload:
    """Per-process finite sequences of invocations (session, cs_steps)."""

    def __init__(self, invocations: list[list[tuple[int, int]]]):
        for per_proc in invocations:
            for session, cs_steps in per_proc:
                if session <= 0:
                    raise ConfigurationError("session numbers must be positive")
                if cs_steps < 0:
                    raise ConfigurationError("cs_steps must be >= 0")
        self.invocations = [list(per_proc) for per_proc in invocations]

    @classmethod
    def from_sessions(cls, sessions: list[list[int]], cs_steps: int = 1) -> "Workload":
        return cls([[(s, cs_steps) for s in per_proc] for per_proc in sessions])

    @classmethod
    def uniform(cls, n: int, session_of: Callable[[int], int], invocations: int = 1,
                cs_steps: int = 1) -> "Workload":
        return cls([[(session_of(pid), cs_steps)] * invocations for pid in range(1, n + 1)])

    @property
    def n(self) -> int:
        return len(self.invocations)


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
        self.marks = 0  # section markers already emitted this invocation

    def key(self) -> tuple:
        return (self.pc, self.j, self.mysession, self.mycolor, self.mynumber,
                self.acc, self.inv, self.cs_left, self.marks)

    def load_key(self, k: tuple) -> None:
        (self.pc, self.j, self.mysession, self.mycolor, self.mynumber,
         self.acc, self.inv, self.cs_left, self.marks) = k


@dataclass
class AlgorithmSpec:
    """An algorithm compiled to a step-level state machine.

    step_fn(state, p, env) executes exactly one step for 0-based process
    p whose env.pc is already inside the entry/CS/exit code, performing
    at most one shared access, and returns
    (kind, line, slot, value, rmr, outcome, target_j).
    """

    name: str
    n: int
    registers: list[RegisterDecl]
    entry_pc: int
    step_fn: Callable
    sections: dict[int, Section]
    wait_conds: dict[int, Callable]  # pc -> cond(env, store) over the global store
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigurationError("need at least one process")
        # Doorway certification: no wait line may carry a doorway label.
        for pc in self.wait_conds:
            if self.sections[pc] is not Section.WAITING:
                raise ConfigurationError(
                    f"{self.name}: wait pc {pc} labeled {self.sections[pc]}, "
                    "wait lines may only appear in the waiting room"
                )


class SystemState:
    """Global store, reader sets, RMR ledger, and every process's runtime."""

    __slots__ = ("spec", "mem", "envs", "workload", "step_index")

    def __init__(self, spec: AlgorithmSpec, workload: Workload):
        if workload.n != spec.n:
            raise ConfigurationError(
                f"workload has {workload.n} processes, algorithm has {spec.n}")
        self.spec = spec
        self.mem = Memory(spec.n, spec.registers)
        self.envs = [ProcEnv() for _ in range(spec.n)]
        self.workload = workload
        self.step_index = 0

    # -- liveness -------------------------------------------------------

    def exhausted(self, pid: int) -> bool:
        env = self.envs[pid - 1]
        return env.pc == PC_REMAINDER and env.inv + 1 >= len(self.workload.invocations[pid - 1])

    def live_pids(self) -> list:
        return [pid for pid in range(1, self.spec.n + 1) if not self.exhausted(pid)]

    def all_done(self) -> bool:
        return not self.live_pids()

    # -- value-state keys (exclude reader sets and ledger) -----------------

    def value_key(self) -> tuple:
        return (tuple(self.mem.store), tuple(e.key() for e in self.envs))

    def load_value_key(self, key: tuple) -> None:
        """Reset this state in place to a value key.

        Reader sets and RMR totals restart empty: the key deliberately
        excludes them, since which processes hold a valid copy never
        affects the values reads return, only their cost.
        """
        store, env_keys = key
        mem = self.mem
        mem.store = list(store)
        mem.valid = [0] * len(store)
        for p in range(len(mem.totals)):
            mem.totals[p] = 0
        mem.access_count = 0
        for env, k in zip(self.envs, env_keys):
            env.load_key(k)
        self.step_index = 0


def step(state: SystemState, pid: int) -> TraceEvent:
    """Execute one atomic step of process pid and record it."""
    spec = state.spec
    env = state.envs[pid - 1]
    mem = state.mem

    if env.pc == PC_REMAINDER:
        per_proc = state.workload.invocations[pid - 1]
        if env.inv + 1 >= len(per_proc):
            ev = TraceEvent(state.step_index, pid, -1, 0, "noop", None, None,
                            False, Section.REMAINDER, (), None, None)
            state.step_index += 1
            return ev
        # Zero-step transition out of the remainder: starting an invocation
        # immediately executes the first doorway instruction.
        env.inv += 1
        env.mysession, env.cs_left = per_proc[env.inv]
        env.pc = spec.entry_pc
        env.marks = 0
        prev_section = Section.REMAINDER
    else:
        prev_section = spec.sections[env.pc]

    # The event belongs to the section of the instruction it executed;
    # markers are derived from the section transition it caused.
    exec_section = spec.sections[env.pc]
    before = mem.access_count
    kind, line, slot, value, rmr, outcome, target_j = spec.step_fn(state, pid - 1, env)
    if mem.access_count - before > 1:
        raise AssertionError(f"{spec.name}: pc executed more than one shared access")

    new_section = spec.sections[env.pc]
    markers = _MARKERS[(prev_section, new_section)]
    if markers:
        fresh = tuple(m for m in markers if not env.marks & _MARKER_BIT[m])
        for m in fresh:
            env.marks |= _MARKER_BIT[m]
        markers = fresh
    ev = TraceEvent(
        state.step_index, pid, env.inv, line, kind,
        None if slot is None else mem.names[slot],
        value, rmr, exec_section, markers,
        outcome, target_j,
    )
    state.step_index += 1
    return ev


def all_active_blocked(state: SystemState) -> bool:
    """True iff some process is active and every active one is blocked.

    Active means outside the remainder section.  Blocked processes never
    write, and a process entering from the remainder cannot make any
    currently-false wait condition true, so such a state is a deadlock.
    """
    spec = state.spec
    any_active = False
    for pid in range(1, spec.n + 1):
        env = state.envs[pid - 1]
        if env.pc == PC_REMAINDER:
            continue
        any_active = True
        cond = spec.wait_conds.get(env.pc)
        if cond is None or cond(env, state.mem.store, pid):
            return False
    return any_active


@dataclass
class RunResult:
    trace: Trace
    rmr_totals: list  # RMRs charged to each process, indexed by pid - 1
    completed: bool
    deadlocked: bool
    cap_hit: bool


def run(state: SystemState, schedule, step_cap: int = 1_000_000) -> RunResult:
    """Drive the system under a schedule until done, stuck, or capped.

    Steps execute in schedule order; checking the trace is the caller's
    job (see `gmesim.monitors`).
    """
    events: list[TraceEvent] = []
    deadlocked = False
    cap_hit = False
    while True:
        if state.all_done():
            break
        if len(events) >= step_cap:
            cap_hit = True
            break
        pid = schedule.next(state)
        if pid is None:
            break
        ev = step(state, pid)
        events.append(ev)
        if ev.outcome == "fail" and all_active_blocked(state):
            events.append(TraceEvent(state.step_index, 0, -1, 0, "deadlock", None,
                                     None, False, Section.REMAINDER, (), None, None))
            state.step_index += 1
            deadlocked = True
            break

    completed = state.all_done()
    trace = Trace(state.spec.name, state.spec.n, events,
                  meta=dict(state.spec.meta))
    trace.meta["completed"] = completed
    trace.meta["deadlocked"] = deadlocked
    trace.meta["cap_hit"] = cap_hit
    workload_sessions = [[s for s, _ in per_proc] for per_proc in state.workload.invocations]
    trace.meta["sessions"] = sorted({s for per_proc in workload_sessions for s in per_proc})
    trace.meta["workload_sessions"] = workload_sessions
    return RunResult(trace, list(state.mem.totals), completed, deadlocked, cap_hit)
