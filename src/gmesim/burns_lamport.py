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
Exit is the single write Competing[i] := false (line 12).  So the
doorway is line 1, the waiting room lines 3-10 and the CS line 11.

block_counts counts, per process, how many times it transitions into
waiting at line 5 or line 10, i.e. evaluations that came out false on
arrival; repeated polls of the same stuck wait count once.
"""

from __future__ import annotations

from .machine import AlgorithmSpec, Section
from .memory import RegisterDecl

_L1 = 1        # Competing[i] := true
_DOWN = 2      # read Competing[j], j < i
_RESET = 3     # Competing[i] := false
_WAIT_LOW = 4  # wait until not Competing[j], then goto L
_WAIT_HIGH = 5  # wait until not Competing[j], j > i
_CS = 6
_EXIT = 7      # Competing[i] := false


def build_bl(n: int) -> AlgorithmSpec:
    """Compile the algorithm for n processes into a step machine."""
    registers = [RegisterDecl("Competing", n, False)]

    def enter_cs(env) -> None:
        env.pc = _CS if env.cs_left > 0 else _EXIT

    def start_upscan(env, i1: int) -> None:
        env.j = i1 + 1
        if env.j > n:
            enter_cs(env)
        else:
            env.pc = _WAIT_HIGH

    W = Section.WAITING
    pcs = {
        0: (Section.REMAINDER, None),
        _L1: (Section.DOORWAY, lambda env, p: ("write", p, True)),
        _DOWN: (W, lambda env, p: ("read", env.j - 1)),
        _RESET: (W, lambda env, p: ("write", p, False)),
        _WAIT_LOW: (W, lambda env, p: ("read", env.j - 1)),
        _WAIT_HIGH: (W, lambda env, p: ("read", env.j - 1)),
        _CS: (Section.CS, lambda env, p: None),
        _EXIT: (Section.EXIT, lambda env, p: ("write", p, False)),
    }

    def step_fn(env, p, v):
        pc = env.pc
        i1 = p + 1

        if pc == _L1:
            if i1 == 1:
                start_upscan(env, i1)
            else:
                env.j = 1
                env.pc = _DOWN
            return (1, None, None)

        if pc == _DOWN:
            if v:
                env.pc = _RESET
            else:
                env.j += 1
                if env.j >= i1:
                    start_upscan(env, i1)
            return (3, None, None)

        if pc == _RESET:
            env.pc = _WAIT_LOW
            return (4, None, None)

        jj = env.j
        if pc == _WAIT_LOW:
            if v:
                return (5, "fail", jj)
            env.pc = _L1  # goto L
            return (5, "pass", jj)

        if pc == _WAIT_HIGH:
            if v:
                return (10, "fail", jj)
            env.j += 1
            if env.j > n:
                enter_cs(env)
            return (10, "pass", jj)

        if pc == _CS:
            env.cs_left -= 1
            if env.cs_left == 0:
                env.pc = _EXIT
            return (11, None, None)

        env.pc = 0  # _EXIT
        return (12, None, None)

    spec = AlgorithmSpec(
        name="bl",
        n=n,
        registers=registers,
        entry_pc=_L1,
        pcs=pcs,
        step_fn=step_fn,
        meta={},
    )
    spec.validate()
    return spec


def block_counts(n: int, records) -> dict:
    """Per-process block counts of a bl run, from its invocation records
    (`gmesim.monitors.build_invocations`): pid -> how often it began a
    wait pass at line 5 or line 10 with a false evaluation, for every
    pid 1..n."""
    totals = dict.fromkeys(range(1, n + 1), 0)
    for rec in records:
        totals[rec.pid] += rec.blocked
    return totals
