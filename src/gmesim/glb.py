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
  line 9: read Token[i] (own cache), read Token[j]; only if both
          order disjuncts fail, read Session[j]
"""

from __future__ import annotations

from .errors import ConfigurationError
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

_SECTIONS = {
    0: Section.REMAINDER,
    _D3: Section.DOORWAY, _D4: Section.DOORWAY, _D5_READ: Section.DOORWAY,
    _D5_WRITE: Section.DOORWAY, _D6: Section.DOORWAY,
    _W8_CHOOSING: Section.WAITING, _W8_SESSION: Section.WAITING,
    _W9_OWN: Section.WAITING, _W9_TOKEN: Section.WAITING, _W9_SESSION: Section.WAITING,
    _CS: Section.CS,
    _X12: Section.EXIT, _X13: Section.EXIT,
}


def build_glb(n: int) -> AlgorithmSpec:
    """Compile the algorithm for n processes into a step machine."""
    registers = [
        RegisterDecl("Session", n, 0),
        RegisterDecl("Token", n, 0),
        RegisterDecl("Choosing", n, False),
    ]
    sess0, tok0, cho0 = 0, n, 2 * n

    def first_other(i1: int) -> int:
        j = 1 if i1 != 1 else 2
        return j if j <= n else 0

    def next_other(j: int, i1: int) -> int:
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

    def step_fn(state, p, env):
        mem = state.mem
        pc = env.pc
        i1 = p + 1
        s = env.mysession

        if pc == _W8_CHOOSING:
            jj = env.j
            v, rmr = mem.read_slot(p, cho0 + jj - 1)
            if not v:
                env.pc = _W9_OWN
                return ("read", 8, cho0 + jj - 1, v, rmr, "pass", jj)
            env.pc = _W8_SESSION
            return ("read", 8, cho0 + jj - 1, v, rmr, None, jj)

        if pc == _W8_SESSION:
            jj = env.j
            v, rmr = mem.read_slot(p, sess0 + jj - 1)
            if v == 0 or v == s:
                env.pc = _W9_OWN
                return ("read", 8, sess0 + jj - 1, v, rmr, "pass", jj)
            env.pc = _W8_CHOOSING
            return ("read", 8, sess0 + jj - 1, v, rmr, "fail", jj)

        if pc == _W9_OWN:
            v, rmr = mem.read_slot(p, tok0 + p)
            env.pc = _W9_TOKEN
            return ("read", 9, tok0 + p, v, rmr, None, env.j)

        if pc == _W9_TOKEN:
            jj = env.j
            tj, rmr = mem.read_slot(p, tok0 + jj - 1)
            # Own token re-fetched locally: only process i writes Token[i],
            # so the value read one step earlier is still the store value.
            ti = mem.store[tok0 + p]
            if (ti, i1) < (tj, jj) or tj == 0:
                advance_j(env)
                return ("read", 9, tok0 + jj - 1, tj, rmr, "pass", jj)
            env.pc = _W9_SESSION
            return ("read", 9, tok0 + jj - 1, tj, rmr, None, jj)

        if pc == _W9_SESSION:
            jj = env.j
            v, rmr = mem.read_slot(p, sess0 + jj - 1)
            if v == 0 or v == s:
                advance_j(env)
                return ("read", 9, sess0 + jj - 1, v, rmr, "pass", jj)
            env.pc = _W9_OWN
            return ("read", 9, sess0 + jj - 1, v, rmr, "fail", jj)

        if pc == _D3:
            mem.write_slot(p, cho0 + p, True)
            env.pc = _D4
            return ("write", 3, cho0 + p, True, True, None, None)

        if pc == _D4:
            mem.write_slot(p, sess0 + p, s)
            env.acc = 0
            env.j = first_other(i1)
            env.pc = _D5_READ if env.j else _D5_WRITE
            return ("write", 4, sess0 + p, s, True, None, None)

        if pc == _D5_READ:
            jj = env.j
            v, rmr = mem.read_slot(p, tok0 + jj - 1)
            if v > env.acc:
                env.acc = v
            env.j = next_other(jj, i1)
            if not env.j:
                env.pc = _D5_WRITE
            return ("read", 5, tok0 + jj - 1, v, rmr, None, None)

        if pc == _D5_WRITE:
            v = env.acc + 1
            mem.write_slot(p, tok0 + p, v)
            env.pc = _D6
            return ("write", 5, tok0 + p, v, True, None, None)

        if pc == _D6:
            mem.write_slot(p, cho0 + p, False)
            env.j = 1
            env.pc = _W8_CHOOSING
            return ("write", 6, cho0 + p, False, True, None, None)

        if pc == _CS:
            env.cs_left -= 1
            if env.cs_left == 0:
                env.pc = _X12
            return ("local", 11, None, None, False, None, None)

        if pc == _X12:
            mem.write_slot(p, tok0 + p, 0)
            env.pc = _X13
            return ("write", 12, tok0 + p, 0, True, None, None)

        if pc == _X13:
            mem.write_slot(p, sess0 + p, 0)
            env.pc = 0
            return ("write", 13, sess0 + p, 0, True, None, None)

        raise ConfigurationError(f"glb: invalid pc {pc}")

    def cond_line8(env, store, i1):
        jj = env.j
        return (not store[cho0 + jj - 1]) or store[sess0 + jj - 1] in (0, env.mysession)

    def cond_line9(env, store, i1):
        jj = env.j
        tj = store[tok0 + jj - 1]
        ti = store[tok0 + i1 - 1]
        return ((ti, i1) < (tj, jj) or tj == 0
                or store[sess0 + jj - 1] in (0, env.mysession))

    spec = AlgorithmSpec(
        name="glb",
        n=n,
        registers=registers,
        entry_pc=_D3,
        step_fn=step_fn,
        sections=dict(_SECTIONS),
        wait_conds={
            _W8_CHOOSING: cond_line8,
            _W8_SESSION: cond_line8,
            _W9_OWN: cond_line9,
            _W9_TOKEN: cond_line9,
            _W9_SESSION: cond_line9,
        },
        meta={"unbounded_token_slots": list(range(tok0, tok0 + n))},
    )
    spec.validate()
    return spec
