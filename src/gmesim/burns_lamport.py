"""Burns-Lamport one-bit mutual exclusion (algorithm "bl").

Shared state: Competing[1..N] (bool), one bit per process.  Sessions in
the workload are ignored by the algorithm (classical mutual exclusion);
they only matter to the monitors, so scenarios normally give every
process a distinct session.

Entry: set own bit (line 1, label L); scan lower-numbered processes
(line 3) and on finding a set bit, reset own bit (line 4), wait for
that bit to clear (line 5), and goto L, which re-executes the bit-set
write and restarts the downward scan from j=1.  Then wait on each
higher-numbered bit in turn (line 10) without resetting the own bit.
Exit is the single write Competing[i] := false (line 12).

block_events counts, per process, how many times it transitions into
waiting at line 5 or line 10, i.e. evaluations that came out false on
arrival; repeated polls of the same stuck wait count once.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .machine import AlgorithmSpec, Section, Trace
from .memory import RegisterDecl

_L1 = 1        # Competing[i] := true
_DOWN = 2      # read Competing[j], j < i
_RESET = 3     # Competing[i] := false
_WAIT_LOW = 4  # wait until not Competing[j], then goto L
_WAIT_HIGH = 5  # wait until not Competing[j], j > i
_CS = 6
_EXIT = 7      # Competing[i] := false

_SECTIONS = {
    0: Section.REMAINDER,
    _L1: Section.DOORWAY,
    _DOWN: Section.WAITING, _RESET: Section.WAITING,
    _WAIT_LOW: Section.WAITING, _WAIT_HIGH: Section.WAITING,
    _CS: Section.CS,
    _EXIT: Section.EXIT,
}


def build_bl(n: int) -> AlgorithmSpec:
    """Compile the algorithm for n processes into a step machine."""
    if n < 1:
        raise ConfigurationError("bl needs n >= 1")

    registers = [RegisterDecl("Competing", "bool", n, False)]

    def enter_cs(env) -> None:
        env.pc = _CS if env.cs_left > 0 else _EXIT

    def start_upscan(env, i1: int) -> None:
        env.j = i1 + 1
        if env.j > n:
            enter_cs(env)
        else:
            env.pc = _WAIT_HIGH

    def step_fn(state, p, env):
        mem = state.mem
        pc = env.pc
        i1 = p + 1

        if pc == _L1:
            mem.write_slot(p, p, True)
            if i1 == 1:
                start_upscan(env, i1)
            else:
                env.j = 1
                env.pc = _DOWN
            return ("write", 1, p, True, True, None, None)

        if pc == _DOWN:
            jj = env.j
            v, rmr = mem.read_slot(p, jj - 1)
            if v:
                env.pc = _RESET
            else:
                env.j += 1
                if env.j >= i1:
                    start_upscan(env, i1)
            return ("read", 3, jj - 1, v, rmr, None, None)

        if pc == _RESET:
            mem.write_slot(p, p, False)
            env.pc = _WAIT_LOW
            return ("write", 4, p, False, True, None, None)

        if pc == _WAIT_LOW:
            jj = env.j
            v, rmr = mem.read_slot(p, jj - 1)
            if v:
                return ("read", 5, jj - 1, v, rmr, "fail", jj)
            env.pc = _L1  # goto L
            return ("read", 5, jj - 1, v, rmr, "pass", jj)

        if pc == _WAIT_HIGH:
            jj = env.j
            v, rmr = mem.read_slot(p, jj - 1)
            if v:
                return ("read", 10, jj - 1, v, rmr, "fail", jj)
            env.j += 1
            if env.j > n:
                enter_cs(env)
            return ("read", 10, jj - 1, v, rmr, "pass", jj)

        if pc == _CS:
            env.cs_left -= 1
            if env.cs_left == 0:
                env.pc = _EXIT
            return ("local", 11, None, None, False, None, None)

        if pc == _EXIT:
            mem.write_slot(p, p, False)
            env.pc = 0
            return ("write", 12, p, False, True, None, None)

        raise ConfigurationError(f"bl: invalid pc {pc}")

    def cond_wait(env, store, i1):
        return not store[env.j - 1]

    spec = AlgorithmSpec(
        name="bl",
        n=n,
        registers=registers,
        entry_pc=_L1,
        step_fn=step_fn,
        sections=dict(_SECTIONS),
        wait_conds={_WAIT_LOW: cond_wait, _WAIT_HIGH: cond_wait},
        meta={},
    )
    spec.validate()
    return spec


def block_events(trace: Trace):
    """Per-process block counts from a bl trace.

    Returns (totals, by_blocker): totals[pid] is how often pid
    transitioned into waiting at line 5 or line 10; by_blocker[(pid, j)]
    splits that by the process whose bit was observed set.
    """
    if trace.algorithm != "bl":
        raise ConfigurationError(f"block_events needs a bl trace, got {trace.algorithm!r}")
    totals = {pid: 0 for pid in range(1, trace.n + 1)}
    by_blocker: dict = {}
    waiting_at: dict = {}
    for ev in trace.events:
        if ev.pid == 0:
            continue
        if ev.line in (5, 10) and ev.outcome == "fail":
            key = (ev.inv, ev.line, ev.j)
            if waiting_at.get(ev.pid) != key:
                waiting_at[ev.pid] = key
                totals[ev.pid] += 1
                by_blocker[(ev.pid, ev.j)] = by_blocker.get((ev.pid, ev.j), 0) + 1
        else:
            waiting_at.pop(ev.pid, None)
    return totals, by_blocker
