"""Reference model for gmesim.memory.Memory: value-carrying caches.

Each process keeps a dict slot -> last-known value.  A read hits when
the slot is in the reader's dict, and on a hit the cached value is
compared with the store, so a coherence bug fails loudly instead of
being true by construction.  A write drops the slot from every other
process's dict.  This is the memory model gmesim ran before it switched
to per-slot reader bitmasks; the tests drive both with the same
accesses and require equal values and RMR flags.  The model also keeps
its own per-process RMR totals, which gmesim does not: the tests compare
them with the sums the invocation fold takes over the events' flags.
"""

from __future__ import annotations

from typing import Any

from gmesim.memory import RegisterDecl


class Memory:
    """Global store + per-process caches + per-process RMR totals,
    addressed by slot like gmesim.memory.Memory."""

    __slots__ = ("n", "names", "store", "caches", "totals")

    def __init__(self, n: int, decls: list[RegisterDecl]):
        self.n = n
        self.names: list[str] = []
        initials = []
        for decl in decls:
            for name in decl.ids():
                self.names.append(name)
                initials.append(decl.initial)
        self.store: list[Any] = initials
        # Cache = per process dict slot -> last-known value.  Keeping the
        # value (not just membership) lets the coherence invariant be a
        # real check rather than true by construction.
        self.caches: list[dict[int, Any]] = [dict() for _ in range(n)]
        self.totals: list[int] = [0] * n

    # -- slot-level accesses (0-based process index) -------------------

    def read_slot(self, p: int, slot: int):
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
