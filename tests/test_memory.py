"""Cache-coherent memory model: RMR charging, invalidation, reader sets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import build_bwbgme, build_glb
from gmesim.errors import KindMismatchError, UnknownRegisterError
from gmesim.memory import BLACK, BOTTOM, WHITE, Memory, RegisterDecl, RegisterId
from oracle_memory import Memory as OracleMemory


def glb_memory(n=3):
    return Memory(n, [
        RegisterDecl("Session", "int", n, 0),
        RegisterDecl("Token", "int", n, 0),
        RegisterDecl("Choosing", "bool", n, False),
    ])


def test_cold_read_costs_one_rmr():
    mem = glb_memory()
    value, rmr = mem.read(1, RegisterId("Token", 2))
    assert (value, rmr) == (0, True)
    assert mem.totals == [1, 0, 0]


def test_cached_reread_is_free():
    mem = glb_memory()
    mem.read(1, RegisterId("Token", 2))
    value, rmr = mem.read(1, RegisterId("Token", 2))
    assert (value, rmr) == (0, False)
    assert mem.totals == [1, 0, 0]


def test_write_invalidates_other_caches():
    mem = glb_memory()
    mem.read(1, RegisterId("Token", 2))
    mem.write(2, RegisterId("Token", 2), 5)
    value, rmr = mem.read(1, RegisterId("Token", 2))
    assert (value, rmr) == (5, True)


def test_every_write_is_one_rmr():
    mem = glb_memory()
    mem.write(3, RegisterId("Choosing", 3), True)
    assert mem.totals[2] == 1
    mem.write(3, RegisterId("Choosing", 3), False)
    mem.write(3, RegisterId("Choosing", 3), False)
    assert mem.totals[2] == 3


def test_write_invalidates_every_reader():
    # Hand-traced three-process invalidation: P1 and P2 cache Token[3],
    # P3 overwrites, both re-fetch at a cost of one RMR each.
    mem = glb_memory()
    reg = RegisterId("Token", 3)
    mem.read(1, reg)
    mem.read(2, reg)
    assert mem.read(1, reg)[1] is False
    assert mem.read(2, reg)[1] is False
    mem.write(3, reg, 7)
    assert mem.read(1, reg) == (7, True)
    assert mem.read(2, reg) == (7, True)
    assert mem.totals == [2, 2, 1]


def test_writer_keeps_a_valid_copy():
    mem = glb_memory()
    mem.write(1, RegisterId("Token", 1), 4)
    value, rmr = mem.read(1, RegisterId("Token", 1))
    assert (value, rmr) == (4, False)


def test_unknown_register_rejected():
    mem = glb_memory()
    with pytest.raises(UnknownRegisterError):
        mem.read(1, RegisterId("Flag", 1))
    with pytest.raises(UnknownRegisterError):
        mem.read(1, RegisterId("Token", None))


def test_kind_mismatch_rejected():
    mem = glb_memory()
    with pytest.raises(KindMismatchError):
        mem.write(1, RegisterId("Token", 1), True)  # bool is not an int here
    with pytest.raises(KindMismatchError):
        mem.write(1, RegisterId("Choosing", 1), 1)


def test_triple_and_color_kinds():
    mem = Memory(2, [
        RegisterDecl("GlobalColor", "color", None, WHITE),
        RegisterDecl("Token", "triple", 2, (0, BOTTOM, 0)),
    ])
    mem.write(1, RegisterId("Token", 1), (3, BLACK, 2))
    assert mem.read(2, RegisterId("Token", 1))[0] == (3, BLACK, 2)
    with pytest.raises(KindMismatchError):
        mem.write(1, RegisterId("Token", 1), (3, "green", 2))
    with pytest.raises(KindMismatchError):
        mem.write(1, RegisterId("GlobalColor", None), 0)


def test_restore_reproduces_rmr_totals_under_replay():
    # Replay equality: the same 100 random operations on two fresh
    # memories land on the same store, reader sets and totals.
    rng = random.Random(7)
    n_slots = len(glb_memory(4).store)
    ops = []
    for _ in range(100):
        p = rng.randrange(1, 5)
        slot = rng.randrange(n_slots)
        if rng.random() < 0.5:
            ops.append(("r", p, slot))
        else:
            ops.append(("w", p, slot, rng.randrange(50)))

    def apply_ops(mem):
        for op in ops:
            if op[0] == "r":
                mem.read_slot(op[1] - 1, op[2])
            else:
                kind = mem.kinds[op[2]]
                value = bool(op[3] % 2) if kind == "bool" else op[3]
                mem.write_slot(op[1] - 1, op[2], value)
        mem.check_coherence()
        return list(mem.store), list(mem.valid), list(mem.totals)

    assert apply_ops(glb_memory(4)) == apply_ops(glb_memory(4))


@st.composite
def op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    ops = draw(st.lists(st.tuples(
        st.sampled_from("rw"),
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=3 * n - 1),
        st.integers(min_value=0, max_value=9)), max_size=60))
    return n, ops


@settings(max_examples=120, deadline=None)
@given(op_sequences())
def test_rmr_accounting_rules_hold(seq):
    # A read misses exactly when uncached; a write always costs one RMR
    # and leaves only the writer holding a valid copy.
    n, ops = seq
    mem = glb_memory(n)
    cached = [set() for _ in range(n)]
    for kind, p, slot, value in ops:
        before = mem.totals[p]
        if kind == "r":
            _, rmr = mem.read_slot(p, slot)
            assert rmr == (slot not in cached[p])
            assert mem.totals[p] - before == (1 if rmr else 0)
            cached[p].add(slot)
        else:
            if mem.kinds[slot] == "bool":
                value = bool(value % 2)
            mem.write_slot(p, slot, value)
            assert mem.totals[p] - before == 1
            for q in range(n):
                if q != p:
                    cached[q].discard(slot)
            cached[p].add(slot)
        mem.check_coherence()
    for p in range(n):
        assert {slot for slot, mask in enumerate(mem.valid) if mask >> p & 1} == cached[p]


VALUES = {
    "int": st.integers(min_value=0, max_value=9),
    "bool": st.booleans(),
    "color": st.sampled_from([BLACK, WHITE, BOTTOM]),
    "triple": st.tuples(st.integers(min_value=0, max_value=3),
                        st.sampled_from([BLACK, WHITE, BOTTOM]),
                        st.integers(min_value=0, max_value=4)),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([build_glb, build_bwbgme]), st.integers(min_value=1, max_value=8),
       st.data())
def test_reader_bitmasks_match_value_cache_oracle(build, n, data):
    # The value-carrying caches compare every hit with the store; the
    # bitmask model must return the same values and RMR flags and charge
    # the same totals after every operation.
    decls = build(n).registers
    mem, oracle = Memory(n, decls), OracleMemory(n, decls)
    slots = st.integers(min_value=0, max_value=len(mem.store) - 1)
    for _ in range(data.draw(st.integers(min_value=0, max_value=80))):
        p = data.draw(st.integers(min_value=0, max_value=n - 1))
        slot = data.draw(slots)
        if data.draw(st.booleans()):
            assert mem.read_slot(p, slot) == oracle.read_slot(p, slot)
        else:
            value = data.draw(VALUES[mem.kinds[slot]])
            mem.write_slot(p, slot, value)
            oracle.write_slot(p, slot, value)
        assert mem.totals == oracle.totals
        assert mem.store == oracle.store
    oracle.check_coherence()
    mem.check_coherence()
    for slot, mask in enumerate(mem.valid):
        assert mask == sum(1 << p for p in range(n) if slot in oracle.caches[p])
