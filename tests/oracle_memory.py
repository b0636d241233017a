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

from typing import Any, Optional

from gmesim.errors import KindMismatchError, UnknownRegisterError
from gmesim.memory import RegisterDecl, RegisterId, check_kind


class Memory:
    """Global store + per-process caches + per-process RMR totals.

    Slots are resolved once from RegisterId to a dense integer index;
    the algorithm step machines use the slot-level entry points directly.
    """

    __slots__ = ("n", "names", "kinds", "slot_of", "store", "caches", "totals", "access_count")

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
        # Cache = per process dict slot -> last-known value.  Keeping the
        # value (not just membership) lets the coherence invariant be a
        # real check rather than true by construction.
        self.caches: list[dict[int, Any]] = [dict() for _ in range(n)]
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
