"""Which values each algorithm's registers may hold.

The simulator's store takes any value; these tables state what the
pseudocode declares, so the tests can check the step machines against
it: the initial store and every write of an exhaustive exploration, and
the values the memory tests draw.
"""

from __future__ import annotations

from typing import Any

from gmesim.memory import BLACK, BOTTOM, WHITE

INT = "int"
BOOL = "bool"
COLOR = "color"
TRIPLE = "triple"  # (session, color, number), read/written atomically

# algorithm -> register family -> kind
KINDS = {
    "glb": {"Session": INT, "Token": INT, "Choosing": BOOL},
    "bwbgme": {"GlobalColor": COLOR, "Token": TRIPLE, "Choosing": BOOL},
    "bl": {"Competing": BOOL},
}


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_kind(kind: str, v: Any) -> bool:
    """True iff value v is a well-formed cell value of the given kind."""
    if kind == INT:
        return _is_int(v)
    if kind == BOOL:
        return isinstance(v, bool)
    if kind == COLOR:
        return v in (BLACK, WHITE, BOTTOM)
    if kind == TRIPLE:
        return (
            isinstance(v, tuple)
            and len(v) == 3
            and _is_int(v[0])
            and v[0] >= 0
            and v[1] in (BLACK, WHITE, BOTTOM)
            and _is_int(v[2])
            and v[2] >= 0
        )
    return False


def slot_kinds(spec) -> list[str]:
    """The kind of each of spec's memory slots, in slot order."""
    kinds = KINDS[spec.name]
    return [kinds[decl.family] for decl in spec.registers for _ in decl.ids()]
