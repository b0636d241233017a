"""Black-and-white bakery for group mutual exclusion (algorithm "bwbgme").

Shared state: GlobalColor (multi-writer bit), Token[1..N] (atomic
triple (session, color, number)), Choosing[1..N] (bool).  Doorway is
lines 3-15, waiting room lines 16-23, exit lines 25-34.  Token numbers
stay bounded by N+1.

Wait-line read order, one read per referenced variable per evaluation:

  line 17: read Choosing[j]; only if true, read Token[j].  The line-18
           branch reuses the token read by the evaluation that passed
           line 17; if line 17 passed on Choosing alone, line 18
           performs a fresh Token[j] read.
  line 19: read Token[j] (all three disjuncts use it)
  line 21: read GlobalColor; only if it equals mycolor, read Token[j]

The exit path checks the token-number guard (line 25), then runs the
opposite-color scan (line 26, early return on the first hit), then
conditionally flips GlobalColor in a single write (line 28/30), and
finally resets the token (line 34).  The ``mutant`` knob disables the
guard, the scan, or both; it exists so tests can confirm the property
monitors catch the failure modes each check prevents.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .machine import AlgorithmSpec, Section
from .memory import BLACK, BOTTOM, WHITE, RegisterDecl

MUTANTS = (None, "no_number_guard", "no_opposite_scan", "unconditional_flip")

_D3 = 1          # Token[i] := (mysession, bottom, 0)
_D4 = 2          # Choosing[i] := true
_D5 = 3          # mycolor := GlobalColor
_D6 = 4          # mynumber := 0 (local)
_D8 = 5          # scan Token[j] for same-color conflicting max
_D13 = 6         # mynumber := mynumber + 1 (local)
_D14 = 7         # Token[i] := (mysession, mycolor, mynumber)
_D15 = 8         # Choosing[i] := false
_W17_CHOOSING = 9
_W17_TOKEN = 10
_W18 = 11        # fresh Token[j] read for the branch
_W19 = 12
_W21_COLOR = 13
_W21_TOKEN = 14
_CS = 15
_X25 = 16        # token-number guard (local)
_X26 = 17        # opposite-color scan
_X_FLIP = 18     # GlobalColor := opposite(mycolor)
_X34 = 19        # Token[i] := (0, bottom, 0)

_SECTIONS = {
    0: Section.REMAINDER,
    _D3: Section.DOORWAY, _D4: Section.DOORWAY, _D5: Section.DOORWAY,
    _D6: Section.DOORWAY, _D8: Section.DOORWAY, _D13: Section.DOORWAY,
    _D14: Section.DOORWAY, _D15: Section.DOORWAY,
    _W17_CHOOSING: Section.WAITING, _W17_TOKEN: Section.WAITING,
    _W18: Section.WAITING, _W19: Section.WAITING,
    _W21_COLOR: Section.WAITING, _W21_TOKEN: Section.WAITING,
    _CS: Section.CS,
    _X25: Section.EXIT, _X26: Section.EXIT, _X_FLIP: Section.EXIT, _X34: Section.EXIT,
}


class UndefinedColorError(ValueError):
    """opposite_color is undefined for the bottom color."""


def opposite_color(c: str) -> str:
    if c == BLACK:
        return WHITE
    if c == WHITE:
        return BLACK
    raise UndefinedColorError("opposite color is undefined for bottom")


def build_bwbgme(n: int, initial_color: str = WHITE, mutant: str = None) -> AlgorithmSpec:
    """Compile the algorithm for n processes into a step machine."""
    if n < 1:
        raise ConfigurationError("bwbgme needs n >= 1")
    if initial_color not in (BLACK, WHITE):
        raise ConfigurationError("initial GlobalColor must be black or white")
    if mutant not in MUTANTS:
        raise ConfigurationError(f"unknown mutant {mutant!r}")

    registers = [
        RegisterDecl("GlobalColor", "color", None, initial_color),
        RegisterDecl("Token", "triple", n, (0, BOTTOM, 0)),
        RegisterDecl("Choosing", "bool", n, False),
    ]
    gc_slot, tok0, cho0 = 0, 1, 1 + n

    def advance_j(env) -> None:
        env.j += 1
        if env.j > n:
            env.pc = _CS if env.cs_left > 0 else _X25
        else:
            env.pc = _W17_CHOOSING

    def branch_line18(env, color) -> None:
        env.pc = _W19 if color == env.mycolor else _W21_COLOR

    def begin_exit(env) -> None:
        if mutant == "unconditional_flip":
            env.pc = _X_FLIP
        elif mutant == "no_number_guard":
            env.j = 1
            env.pc = _X26
        elif mutant == "no_opposite_scan":
            env.pc = _X_FLIP if env.mynumber != 1 else _X34
        elif env.mynumber != 1:
            env.j = 1
            env.pc = _X26
        else:
            env.pc = _X34

    def step_fn(state, p, env):
        mem = state.mem
        pc = env.pc
        s = env.mysession

        if pc == _W17_CHOOSING:
            jj = env.j
            v, rmr = mem.read_slot(p, cho0 + jj - 1)
            if not v:
                env.pc = _W18
                return ("read", 17, cho0 + jj - 1, v, rmr, "pass", jj)
            env.pc = _W17_TOKEN
            return ("read", 17, cho0 + jj - 1, v, rmr, None, jj)

        if pc == _W17_TOKEN:
            jj = env.j
            tok, rmr = mem.read_slot(p, tok0 + jj - 1)
            if tok[0] == s:
                branch_line18(env, tok[1])
                return ("read", 17, tok0 + jj - 1, tok, rmr, "pass", jj)
            env.pc = _W17_CHOOSING
            return ("read", 17, tok0 + jj - 1, tok, rmr, "fail", jj)

        if pc == _W18:
            jj = env.j
            tok, rmr = mem.read_slot(p, tok0 + jj - 1)
            branch_line18(env, tok[1])
            return ("read", 18, tok0 + jj - 1, tok, rmr, None, jj)

        if pc == _W19:
            jj = env.j
            tok, rmr = mem.read_slot(p, tok0 + jj - 1)
            session, color, number = tok
            if ((env.mynumber, p + 1) < (number, jj) or color != env.mycolor
                    or session in (0, s)):
                advance_j(env)
                return ("read", 19, tok0 + jj - 1, tok, rmr, "pass", jj)
            return ("read", 19, tok0 + jj - 1, tok, rmr, "fail", jj)

        if pc == _W21_COLOR:
            jj = env.j
            v, rmr = mem.read_slot(p, gc_slot)
            if v != env.mycolor:
                advance_j(env)
                return ("read", 21, gc_slot, v, rmr, "pass", jj)
            env.pc = _W21_TOKEN
            return ("read", 21, gc_slot, v, rmr, None, jj)

        if pc == _W21_TOKEN:
            jj = env.j
            tok, rmr = mem.read_slot(p, tok0 + jj - 1)
            session, color, _ = tok
            if color == env.mycolor or session in (0, s):
                advance_j(env)
                return ("read", 21, tok0 + jj - 1, tok, rmr, "pass", jj)
            env.pc = _W21_COLOR
            return ("read", 21, tok0 + jj - 1, tok, rmr, "fail", jj)

        if pc == _D3:
            v = (s, BOTTOM, 0)
            mem.write_slot(p, tok0 + p, v)
            env.pc = _D4
            return ("write", 3, tok0 + p, v, True, None, None)

        if pc == _D4:
            mem.write_slot(p, cho0 + p, True)
            env.pc = _D5
            return ("write", 4, cho0 + p, True, True, None, None)

        if pc == _D5:
            v, rmr = mem.read_slot(p, gc_slot)
            env.mycolor = v
            env.pc = _D6
            return ("read", 5, gc_slot, v, rmr, None, None)

        if pc == _D6:
            env.mynumber = 0
            env.j = 1
            env.pc = _D8
            return ("local", 6, None, None, False, None, None)

        if pc == _D8:
            jj = env.j
            tok, rmr = mem.read_slot(p, tok0 + jj - 1)
            session, color, number = tok
            if color == env.mycolor and session not in (0, s) and number > env.mynumber:
                env.mynumber = number
            env.j += 1
            if env.j > n:
                env.pc = _D13
            return ("read", 8, tok0 + jj - 1, tok, rmr, None, None)

        if pc == _D13:
            env.mynumber += 1
            env.pc = _D14
            return ("local", 13, None, None, False, None, None)

        if pc == _D14:
            v = (s, env.mycolor, env.mynumber)
            mem.write_slot(p, tok0 + p, v)
            env.pc = _D15
            return ("write", 14, tok0 + p, v, True, None, None)

        if pc == _D15:
            mem.write_slot(p, cho0 + p, False)
            env.j = 1
            env.pc = _W17_CHOOSING
            return ("write", 15, cho0 + p, False, True, None, None)

        if pc == _CS:
            env.cs_left -= 1
            if env.cs_left == 0:
                env.pc = _X25
            return ("local", 24, None, None, False, None, None)

        if pc == _X25:
            begin_exit(env)
            return ("local", 25, None, None, False, None, None)

        if pc == _X26:
            jj = env.j
            tok, rmr = mem.read_slot(p, tok0 + jj - 1)
            session, color, _ = tok
            if session != 0 and color == opposite_color(env.mycolor):
                env.pc = _X34  # found: do not flip
            else:
                env.j += 1
                if env.j > n:
                    env.pc = _X_FLIP  # nobody opposite: flip
            return ("read", 26, tok0 + jj - 1, tok, rmr, None, None)

        if pc == _X_FLIP:
            v = opposite_color(env.mycolor)
            mem.write_slot(p, gc_slot, v)
            env.pc = _X34
            line = 28 if v == WHITE else 30
            return ("write", line, gc_slot, v, True, None, None)

        if pc == _X34:
            v = (0, BOTTOM, 0)
            mem.write_slot(p, tok0 + p, v)
            env.pc = 0
            return ("write", 34, tok0 + p, v, True, None, None)

        raise ConfigurationError(f"bwbgme: invalid pc {pc}")

    def cond_line17(env, store, i1):
        jj = env.j
        return (not store[cho0 + jj - 1]) or store[tok0 + jj - 1][0] == env.mysession

    def cond_line19(env, store, i1):
        jj = env.j
        session, color, number = store[tok0 + jj - 1]
        return ((env.mynumber, i1) < (number, jj) or color != env.mycolor
                or session in (0, env.mysession))

    def cond_line21(env, store, i1):
        jj = env.j
        session, color, _ = store[tok0 + jj - 1]
        return (store[gc_slot] != env.mycolor or color == env.mycolor
                or session in (0, env.mysession))

    spec = AlgorithmSpec(
        name="bwbgme",
        n=n,
        registers=registers,
        entry_pc=_D3,
        step_fn=step_fn,
        sections=dict(_SECTIONS),
        wait_conds={
            _W17_CHOOSING: cond_line17,
            _W17_TOKEN: cond_line17,
            _W19: cond_line19,
            _W21_COLOR: cond_line21,
            _W21_TOKEN: cond_line21,
        },
        meta={"initial_color": initial_color, "mutant": mutant},
    )
    spec.validate()
    return spec
