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

The store holds whatever values the step machines write; the test suite
checks each register's values over exhaustive explorations rather than
on every access here.  `machine.step` is the only caller of `read_slot`
and `write_slot`, once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

# Token / GlobalColor colors.  BOTTOM is the "no color yet" marker.
BLACK = "black"
WHITE = "white"
BOTTOM = "bottom"


@dataclass(frozen=True)
class RegisterDecl:
    """Declaration of one register family: arity and initial value."""

    family: str
    count: Optional[int]  # None for a scalar register
    initial: Any

    def ids(self):
        """Slot names in slot order: "GlobalColor", or "Token[1]".."Token[n]"."""
        if self.count is None:
            yield self.family
        else:
            for i in range(1, self.count + 1):
                yield f"{self.family}[{i}]"


class Memory:
    """Global store + per-slot reader bitmasks.

    Registers live in dense integer slots, numbered in declaration order;
    the algorithm step machines address them by slot.  A read returns
    its cost, which `machine.step` copies into its event's `rmr` flag
    (a write always costs one); the memory keeps no totals.
    """

    __slots__ = ("n", "names", "store", "valid")

    def __init__(self, n: int, decls: list[RegisterDecl]):
        self.n = n
        self.names: list[str] = []
        initials = []
        for decl in decls:
            for name in decl.ids():
                self.names.append(name)
                initials.append(decl.initial)
        self.store: list[Any] = initials
        # valid[slot]: bit p set iff process p holds a valid copy of slot.
        self.valid: list[int] = [0] * len(initials)

    # -- hot path (0-based process index) -------------------------------

    def read_slot(self, p: int, slot: int):
        """Read a slot as process p.  Returns (value, rmr)."""
        bit = 1 << p
        valid = self.valid
        if valid[slot] & bit:
            return self.store[slot], False
        valid[slot] |= bit
        return self.store[slot], True

    def write_slot(self, p: int, slot: int, value: Any) -> None:
        """Write a slot as process p.  Always costs one RMR."""
        self.store[slot] = value
        self.valid[slot] = 1 << p

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
