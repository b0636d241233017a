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
guard, the scan, or both.  The flip monitor catches no_number_guard and
unconditional_flip; no_opposite_scan explores clean on every N=3
one-invocation workload in both colours; whether it breaks anything is open.
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


# A process reads mycolor from GlobalColor (line 5) before any exit step
# asks for its opposite, so bottom has none.
opposite_color = {BLACK: WHITE, WHITE: BLACK}


def build_bwbgme(n: int, initial_color: str = WHITE, mutant: str = None) -> AlgorithmSpec:
    """Compile the algorithm for n processes into a step machine."""
    if initial_color not in (BLACK, WHITE):
        raise ConfigurationError("initial GlobalColor must be black or white")
    if mutant not in MUTANTS:
        raise ConfigurationError(f"unknown mutant {mutant!r}")

    registers = [
        RegisterDecl("GlobalColor", None, initial_color),
        RegisterDecl("Token", n, (0, BOTTOM, 0)),
        RegisterDecl("Choosing", n, False),
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

    def read_token_j(env, p):
        return ("read", tok0 + env.j - 1)

    D, W, X = Section.DOORWAY, Section.WAITING, Section.EXIT
    pcs = {
        0: (Section.REMAINDER, None),
        _D3: (D, lambda env, p: ("write", tok0 + p, (env.mysession, BOTTOM, 0))),
        _D4: (D, lambda env, p: ("write", cho0 + p, True)),
        _D5: (D, lambda env, p: ("read", gc_slot)),
        _D6: (D, lambda env, p: None),
        _D8: (D, read_token_j),
        _D13: (D, lambda env, p: None),
        _D14: (D, lambda env, p: ("write", tok0 + p, (env.mysession, env.mycolor, env.mynumber))),
        _D15: (D, lambda env, p: ("write", cho0 + p, False)),
        _W17_CHOOSING: (W, lambda env, p: ("read", cho0 + env.j - 1)),
        _W17_TOKEN: (W, read_token_j),
        _W18: (W, read_token_j),
        _W19: (W, read_token_j),
        _W21_COLOR: (W, lambda env, p: ("read", gc_slot)),
        _W21_TOKEN: (W, read_token_j),
        _CS: (Section.CS, lambda env, p: None),
        _X25: (X, lambda env, p: None),
        _X26: (X, read_token_j),
        _X_FLIP: (X, lambda env, p: ("write", gc_slot, opposite_color[env.mycolor])),
        _X34: (X, lambda env, p: ("write", tok0 + p, (0, BOTTOM, 0))),
    }

    def step_fn(env, p, v):
        pc = env.pc
        jj = env.j
        s = env.mysession

        if pc == _W17_CHOOSING:
            if not v:
                env.pc = _W18
                return (17, "pass", jj)
            env.pc = _W17_TOKEN
            return (17, None, jj)

        if pc == _W17_TOKEN:
            if v[0] == s:
                branch_line18(env, v[1])
                return (17, "pass", jj)
            env.pc = _W17_CHOOSING
            return (17, "fail", jj)

        if pc == _W18:
            branch_line18(env, v[1])
            return (18, None, jj)

        if pc == _W19:
            session, color, number = v
            if ((env.mynumber, p + 1) < (number, jj) or color != env.mycolor
                    or session in (0, s)):
                advance_j(env)
                return (19, "pass", jj)
            return (19, "fail", jj)

        if pc == _W21_COLOR:
            if v != env.mycolor:
                advance_j(env)
                return (21, "pass", jj)
            env.pc = _W21_TOKEN
            return (21, None, jj)

        if pc == _W21_TOKEN:
            session, color, _ = v
            if color == env.mycolor or session in (0, s):
                advance_j(env)
                return (21, "pass", jj)
            env.pc = _W21_COLOR
            return (21, "fail", jj)

        if pc == _D3:
            env.pc = _D4
            return (3, None, None)

        if pc == _D4:
            env.pc = _D5
            return (4, None, None)

        if pc == _D5:
            env.mycolor = v
            env.pc = _D6
            return (5, None, None)

        if pc == _D6:
            env.mynumber = 0
            env.j = 1
            env.pc = _D8
            return (6, None, None)

        if pc == _D8:
            session, color, number = v
            if color == env.mycolor and session not in (0, s) and number > env.mynumber:
                env.mynumber = number
            env.j += 1
            if env.j > n:
                env.pc = _D13
            return (8, None, None)

        if pc == _D13:
            env.mynumber += 1
            env.pc = _D14
            return (13, None, None)

        if pc == _D14:
            env.pc = _D15
            return (14, None, None)

        if pc == _D15:
            env.j = 1
            env.pc = _W17_CHOOSING
            return (15, None, None)

        if pc == _CS:
            env.cs_left -= 1
            if env.cs_left == 0:
                env.pc = _X25
            return (24, None, None)

        if pc == _X25:
            begin_exit(env)
            return (25, None, None)

        if pc == _X26:
            session, color, _ = v
            if session != 0 and color == opposite_color[env.mycolor]:
                env.pc = _X34  # found: do not flip
            else:
                env.j += 1
                if env.j > n:
                    env.pc = _X_FLIP  # nobody opposite: flip
            return (26, None, None)

        if pc == _X_FLIP:
            env.pc = _X34
            return (28 if v == WHITE else 30, None, None)

        env.pc = 0  # _X34
        return (34, None, None)

    spec = AlgorithmSpec(
        name="bwbgme",
        n=n,
        registers=registers,
        entry_pc=_D3,
        pcs=pcs,
        step_fn=step_fn,
        meta={"initial_color": initial_color, "mutant": mutant},
    )
    spec.validate()
    return spec
