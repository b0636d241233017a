"""Reference model for gmesim.memory.Memory: value-carrying caches.

Each process keeps a dict slot -> last-known value.  A read hits when
the slot is in the reader's dict, and on a hit the cached value is
compared with the store, so a coherence bug fails loudly instead of
being true by construction.  A write drops the slot from every other
process's dict.  This is the memory model gmesim ran before it switched
to per-slot reader bitmasks; the tests drive both with the same
accesses and require equal values, RMR flags and totals.
"""

from __future__ import annotations

from typing import Any

from gmesim.errors import KindMismatchError
from gmesim.memory import RegisterDecl, check_kind


class Memory:
    """Global store + per-process caches + per-process RMR totals,
    addressed by slot like gmesim.memory.Memory."""

    __slots__ = ("n", "names", "kinds", "store", "caches", "totals", "access_count")

    def __init__(self, n: int, decls: list[RegisterDecl]):
        self.n = n
        self.names: list[str] = []
        self.kinds: list[str] = []
        initials = []
        for decl in decls:
            for name in decl.ids():
                self.names.append(name)
                self.kinds.append(decl.kind)
                initials.append(decl.initial)
        self.store: list[Any] = initials
        # Cache = per process dict slot -> last-known value.  Keeping the
        # value (not just membership) lets the coherence invariant be a
        # real check rather than true by construction.
        self.caches: list[dict[int, Any]] = [dict() for _ in range(n)]
        self.totals: list[int] = [0] * n
        self.access_count = 0

    # -- slot-level accesses (0-based process index) -------------------

    def read_slot(self, p: int, slot: int):
        self.access_count += 1
        cache = self.caches[p]
        value = self.store[slot]
        if slot in cache:
            if cache[slot] != value:
                raise AssertionError(
                    f"coherence broken: P{p + 1} cached {self.names[slot]}={cache[slot]!r} "
                    f"but store holds {value!r}"
                )
            return value, False
        cache[slot] = value
        self.totals[p] += 1
        return value, True

    def write_slot(self, p: int, slot: int, value: Any) -> None:
        if not check_kind(self.kinds[slot], value):
            raise KindMismatchError(
                f"{self.names[slot]} holds {self.kinds[slot]}, got {value!r}"
            )
        self.access_count += 1
        self.store[slot] = value
        for q, cache in enumerate(self.caches):
            if q != p:
                cache.pop(slot, None)
        self.caches[p][slot] = value
        self.totals[p] += 1

    # -- invariants ----------------------------------------------------

    def check_coherence(self) -> None:
        """Assert every cached value matches the global store."""
        for p, cache in enumerate(self.caches):
            for slot, value in cache.items():
                if value != self.store[slot]:
                    raise AssertionError(
                        f"coherence broken: P{p + 1} cached {self.names[slot]}={value!r} "
                        f"but store holds {self.store[slot]!r}"
                    )
