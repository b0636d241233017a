"""Cache-coherent shared memory with remote-memory-reference accounting.

Models a single global memory module plus one local cache per process.
A read hits the cache when the reader holds a valid copy of the
register (0 RMR) and otherwise fetches from global memory (1 RMR) and
gains a valid copy.  A write always goes to global memory (1 RMR) and
invalidates every other process's copy; the writer keeps a valid copy,
so re-reading a register you just wrote is free.

Every valid copy equals the store, so the cache state is just the set
of processes holding a valid copy of each register: one reader bitmask
per slot, bit p set iff process p holds a valid copy.  Caches never
evict: a copy stays valid until some other process writes the register.
There is no capacity, latency, or DSM modeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .errors import KindMismatchError, UnknownRegisterError

# Token / GlobalColor colors.  BOTTOM is the "no color yet" marker.
BLACK = "black"
WHITE = "white"
BOTTOM = "bottom"

# Register value kinds.
KIND_INT = "int"
KIND_BOOL = "bool"
KIND_COLOR = "color"
KIND_TRIPLE = "triple"  # (session, color, number), read/written atomically


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_kind(kind: str, v: Any) -> bool:
    """True iff value v is a well-formed cell value of the given kind."""
    if kind == KIND_INT:
        return _is_int(v)
    if kind == KIND_BOOL:
        return isinstance(v, bool)
    if kind == KIND_COLOR:
        return v in (BLACK, WHITE, BOTTOM)
    if kind == KIND_TRIPLE:
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


@dataclass(frozen=True)
class RegisterId:
    """A register family name plus an index when the family is an array.

    Scalar registers (GlobalColor) carry index None; array registers
    carry a 1-based process index.
    """

    family: str
    index: Optional[int] = None

    def __str__(self) -> str:
        if self.index is None:
            return self.family
        return f"{self.family}[{self.index}]"


@dataclass(frozen=True)
class RegisterDecl:
    """Declaration of one register family: kind, arity, and initial value."""

    family: str
    kind: str
    count: Optional[int]  # None for a scalar register
    initial: Any

    def ids(self):
        if self.count is None:
            yield RegisterId(self.family)
        else:
            for i in range(1, self.count + 1):
                yield RegisterId(self.family, i)


class Memory:
    """Global store + per-slot reader bitmasks + per-process RMR totals.

    Slots are resolved once from RegisterId to a dense integer index;
    the algorithm step machines use the slot-level entry points directly.
    """

    __slots__ = ("n", "names", "kinds", "slot_of", "store", "valid", "totals", "access_count")

    def __init__(self, n: int, decls: list[RegisterDecl]):
        self.n = n
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.slot_of: dict[tuple[str, Optional[int]], int] = {}
        initials = []
        for decl in decls:
            for reg in decl.ids():
                self.slot_of[(reg.family, reg.index)] = len(self.names)
                self.names.append(str(reg))
                self.kinds.append(decl.kind)
                initials.append(decl.initial)
        self.store: list[Any] = initials
        # valid[slot]: bit p set iff process p holds a valid copy of slot.
        self.valid: list[int] = [0] * len(initials)
        self.totals: list[int] = [0] * n
        self.access_count = 0

    # -- resolution ---------------------------------------------------

    def resolve(self, reg: RegisterId) -> int:
        try:
            return self.slot_of[(reg.family, reg.index)]
        except KeyError:
            raise UnknownRegisterError(f"no such register: {reg}") from None

    # -- public register-level interface ------------------------------

    def read(self, pid: int, reg: RegisterId):
        """Read a register as process pid.  Returns (value, rmr)."""
        return self.read_slot(pid - 1, self.resolve(reg))

    def write(self, pid: int, reg: RegisterId, value: Any) -> None:
        """Write a register as process pid.  Always costs one RMR."""
        self.write_slot(pid - 1, self.resolve(reg), value)

    # -- slot-level hot path (0-based process index) -------------------

    def read_slot(self, p: int, slot: int):
        self.access_count += 1
        bit = 1 << p
        valid = self.valid
        if valid[slot] & bit:
            return self.store[slot], False
        valid[slot] |= bit
        self.totals[p] += 1
        return self.store[slot], True

    def write_slot(self, p: int, slot: int, value: Any) -> None:
        if not check_kind(self.kinds[slot], value):
            raise KindMismatchError(
                f"{self.names[slot]} holds {self.kinds[slot]}, got {value!r}"
            )
        self.access_count += 1
        self.store[slot] = value
        self.valid[slot] = 1 << p
        self.totals[p] += 1

    # -- invariants ----------------------------------------------------

    def check_coherence(self) -> None:
        """Assert every reader bitmask names only processes 0..n-1.

        Values cannot go stale in this representation, so this is the
        whole representation invariant.  Only tests call it; the
        benchmark tracer (perfbench/layers.py) wraps it by name.
        """
        limit = 1 << self.n
        for slot, mask in enumerate(self.valid):
            if not 0 <= mask < limit:
                raise AssertionError(
                    f"reader set of {self.names[slot]} is {mask:#x}, "
                    f"outside {self.n} processes"
                )
