"""Generalized Lamport bakery for group mutual exclusion (algorithm "glb").

Shared state: Session[1..N] (int), Token[1..N] (unbounded int),
Choosing[1..N] (bool).  Doorway is lines 3-6, waiting room lines 7-10,
exit lines 12-13.  Token numbers are semantically unbounded; Python
integers carry that without overflow.

Line 5 ("1 + max of other token numbers") compiles to N-1 sequential
reads of the other tokens, a local max, then one write.  The two wait
lines compile to one read per referenced shared variable per
evaluation, left to right with short-circuiting:

  line 8: read Choosing[j]; only if true, read Session[j]
  line 9: read Token[i] (own cache, value acc + 1), read Token[j];
          only if both order disjuncts fail, read Session[j]
"""

from __future__ import annotations

from .machine import AlgorithmSpec, Section
from .memory import RegisterDecl

# Micro program counters.  One wait-line evaluation spans several pcs.
_D3 = 1        # Choosing[i] := true
_D4 = 2        # Session[i] := mysession
_D5_READ = 3   # scan other tokens for the max
_D5_WRITE = 4  # Token[i] := max + 1
_D6 = 5        # Choosing[i] := false
_W8_CHOOSING = 6
_W8_SESSION = 7
_W9_OWN = 8
_W9_TOKEN = 9
_W9_SESSION = 10
_CS = 11
_X12 = 12
_X13 = 13


def build_glb(n: int) -> AlgorithmSpec:
    """Compile the algorithm for n processes into a step machine."""
    registers = [
        RegisterDecl("Session", n, 0),
        RegisterDecl("Token", n, 0),
        RegisterDecl("Choosing", n, False),
    ]
    sess0, tok0, cho0 = 0, n, 2 * n

    def next_other(j: int, i1: int) -> int:
        """The next pid after j other than i1, 0 when none is left."""
        j += 1
        if j == i1:
            j += 1
        return j if j <= n else 0

    def advance_j(env) -> None:
        env.j += 1
        if env.j > n:
            env.pc = _CS if env.cs_left > 0 else _X12
        else:
            env.pc = _W8_CHOOSING

    D, W, X = Section.DOORWAY, Section.WAITING, Section.EXIT
    pcs = {
        0: (Section.REMAINDER, None),
        _D3: (D, lambda env, p: ("write", cho0 + p, True)),
        _D4: (D, lambda env, p: ("write", sess0 + p, env.mysession)),
        _D5_READ: (D, lambda env, p: ("read", tok0 + env.j - 1)),
        _D5_WRITE: (D, lambda env, p: ("write", tok0 + p, env.acc + 1)),
        _D6: (D, lambda env, p: ("write", cho0 + p, False)),
        _W8_CHOOSING: (W, lambda env, p: ("read", cho0 + env.j - 1)),
        _W8_SESSION: (W, lambda env, p: ("read", sess0 + env.j - 1)),
        _W9_OWN: (W, lambda env, p: ("read", tok0 + p)),
        _W9_TOKEN: (W, lambda env, p: ("read", tok0 + env.j - 1)),
        _W9_SESSION: (W, lambda env, p: ("read", sess0 + env.j - 1)),
        _CS: (Section.CS, lambda env, p: None),
        _X12: (X, lambda env, p: ("write", tok0 + p, 0)),
        _X13: (X, lambda env, p: ("write", sess0 + p, 0)),
    }

    def step_fn(env, p, v):
        pc = env.pc
        jj = env.j

        if pc == _W8_CHOOSING:
            if not v:
                env.pc = _W9_OWN
                return (8, "pass", jj)
            env.pc = _W8_SESSION
            return (8, None, jj)

        if pc == _W8_SESSION:
            if v == 0 or v == env.mysession:
                env.pc = _W9_OWN
                return (8, "pass", jj)
            env.pc = _W8_CHOOSING
            return (8, "fail", jj)

        if pc == _W9_OWN:
            env.pc = _W9_TOKEN
            return (9, None, jj)

        if pc == _W9_TOKEN:
            # Own token from the runtime: only process i writes Token[i],
            # and it holds the acc + 1 written at line 5 until line 12.
            if (env.acc + 1, p + 1) < (v, jj) or v == 0:
                advance_j(env)
                return (9, "pass", jj)
            env.pc = _W9_SESSION
            return (9, None, jj)

        if pc == _W9_SESSION:
            if v == 0 or v == env.mysession:
                advance_j(env)
                return (9, "pass", jj)
            env.pc = _W9_OWN
            return (9, "fail", jj)

        if pc == _D3:
            env.pc = _D4
            return (3, None, None)

        if pc == _D4:
            env.acc = 0
            env.j = next_other(0, p + 1)
            env.pc = _D5_READ if env.j else _D5_WRITE
            return (4, None, None)

        if pc == _D5_READ:
            if v > env.acc:
                env.acc = v
            env.j = next_other(jj, p + 1)
            if not env.j:
                env.pc = _D5_WRITE
            return (5, None, None)

        if pc == _D5_WRITE:
            env.pc = _D6
            return (5, None, None)

        if pc == _D6:
            env.j = 1
            env.pc = _W8_CHOOSING
            return (6, None, None)

        if pc == _CS:
            env.cs_left -= 1
            if env.cs_left == 0:
                env.pc = _X12
            return (11, None, None)

        if pc == _X12:
            env.pc = _X13
            return (12, None, None)

        env.pc = 0  # _X13
        return (13, None, None)

    spec = AlgorithmSpec(
        name="glb",
        n=n,
        registers=registers,
        entry_pc=_D3,
        pcs=pcs,
        step_fn=step_fn,
    )
    spec.validate()
    return spec
