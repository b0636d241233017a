"""Cache-coherent memory model: RMR charging, invalidation, reader sets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import build_bwbgme, build_glb
from gmesim.memory import BLACK, BOTTOM, WHITE, Memory, RegisterDecl
from oracle_memory import Memory as OracleMemory
from register_kinds import BOOL, COLOR, INT, TRIPLE, check_kind, slot_kinds


def glb_memory(n=3):
    return Memory(n, build_glb(n).registers)


def test_cold_read_costs_one_rmr():
    mem = glb_memory()
    value, rmr = mem.read_slot(0, mem.names.index("Token[2]"))
    assert (value, rmr) == (0, True)


def test_cached_reread_is_free():
    mem = glb_memory()
    slot = mem.names.index("Token[2]")
    assert mem.read_slot(0, slot) == (0, True)
    value, rmr = mem.read_slot(0, slot)
    assert (value, rmr) == (0, False)


def test_write_invalidates_other_caches():
    mem = glb_memory()
    slot = mem.names.index("Token[2]")
    mem.read_slot(0, slot)
    mem.write_slot(1, slot, 5)
    value, rmr = mem.read_slot(0, slot)
    assert (value, rmr) == (5, True)


def test_every_write_is_one_rmr():
    # A write reports no cost: every write event is flagged as an RMR
    # (test_machine.test_step_makes_the_declared_access).  Here: however
    # often it is repeated, it leaves only the writer's copy valid.
    mem = glb_memory()
    slot = mem.names.index("Choosing[3]")
    for value in (True, False, False):
        mem.read_slot(0, slot)
        mem.write_slot(2, slot, value)
        assert mem.valid[slot] == 1 << 2
        assert mem.read_slot(0, slot) == (value, True)


def test_write_invalidates_every_reader():
    # Hand-traced three-process invalidation: P1 and P2 cache Token[3],
    # P3 overwrites, both re-fetch at a cost of one RMR each.
    mem = glb_memory()
    slot = mem.names.index("Token[3]")
    mem.read_slot(0, slot)
    mem.read_slot(1, slot)
    assert mem.read_slot(0, slot)[1] is False
    assert mem.read_slot(1, slot)[1] is False
    mem.write_slot(2, slot, 7)
    assert mem.read_slot(0, slot) == (7, True)
    assert mem.read_slot(1, slot) == (7, True)


def test_writer_keeps_a_valid_copy():
    mem = glb_memory()
    slot = mem.names.index("Token[1]")
    mem.write_slot(0, slot, 4)
    value, rmr = mem.read_slot(0, slot)
    assert (value, rmr) == (4, False)


def test_kind_mismatch_rejected():
    kinds = slot_kinds(build_glb(3))
    names = glb_memory().names
    assert kinds[names.index("Token[1]")] == INT
    assert kinds[names.index("Choosing[1]")] == BOOL
    assert check_kind(INT, 4) and check_kind(BOOL, False)
    assert not check_kind(INT, True)  # bool is not an int here
    assert not check_kind(BOOL, 1)


def test_triple_and_color_kinds():
    mem = Memory(2, [
        RegisterDecl("GlobalColor", None, WHITE),
        RegisterDecl("Token", 2, (0, BOTTOM, 0)),
    ])
    assert mem.names == ["GlobalColor", "Token[1]", "Token[2]"]
    mem.write_slot(0, 1, (3, BLACK, 2))
    assert mem.read_slot(1, 1)[0] == (3, BLACK, 2)
    assert slot_kinds(build_bwbgme(2)) == [COLOR, TRIPLE, TRIPLE, BOOL, BOOL]
    assert check_kind(TRIPLE, (3, BLACK, 2)) and check_kind(COLOR, BOTTOM)
    assert not check_kind(TRIPLE, (3, "green", 2))
    assert not check_kind(TRIPLE, (-1, BLACK, 2))
    assert not check_kind(TRIPLE, (3, BLACK))
    assert not check_kind(COLOR, 0)


def test_restore_reproduces_rmr_totals_under_replay():
    # Replay equality: the same 100 random operations on two fresh
    # memories land on the same store, reader sets and RMR flags.
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

    kinds = slot_kinds(build_glb(4))

    def apply_ops(mem):
        rmrs = []
        for op in ops:
            if op[0] == "r":
                rmrs.append(mem.read_slot(op[1] - 1, op[2])[1])
            else:
                value = bool(op[3] % 2) if kinds[op[2]] == BOOL else op[3]
                mem.write_slot(op[1] - 1, op[2], value)
        mem.check_coherence()
        return list(mem.store), list(mem.valid), rmrs

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
    # A read misses exactly when uncached; a write leaves only the
    # writer holding a valid copy.
    n, ops = seq
    mem = glb_memory(n)
    kinds = slot_kinds(build_glb(n))
    cached = [set() for _ in range(n)]
    for kind, p, slot, value in ops:
        if kind == "r":
            _, rmr = mem.read_slot(p, slot)
            assert rmr == (slot not in cached[p])
            cached[p].add(slot)
        else:
            if kinds[slot] == BOOL:
                value = bool(value % 2)
            mem.write_slot(p, slot, value)
            for q in range(n):
                if q != p:
                    cached[q].discard(slot)
            cached[p].add(slot)
        mem.check_coherence()
    for p in range(n):
        assert {slot for slot, mask in enumerate(mem.valid) if mask >> p & 1} == cached[p]


VALUES = {
    INT: st.integers(min_value=0, max_value=9),
    BOOL: st.booleans(),
    COLOR: st.sampled_from([BLACK, WHITE, BOTTOM]),
    TRIPLE: st.tuples(st.integers(min_value=0, max_value=3),
                      st.sampled_from([BLACK, WHITE, BOTTOM]),
                      st.integers(min_value=0, max_value=4)),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([build_glb, build_bwbgme]), st.integers(min_value=1, max_value=8),
       st.data())
def test_reader_bitmasks_match_value_cache_oracle(build, n, data):
    # The value-carrying caches compare every hit with the store; the
    # bitmask model must return the same values and RMR flags, and those
    # flags, plus one per write, must add up to the oracle's own totals
    # after every operation.
    spec = build(n)
    kinds = slot_kinds(spec)
    mem, oracle = Memory(n, spec.registers), OracleMemory(n, spec.registers)
    totals = [0] * n
    slots = st.integers(min_value=0, max_value=len(mem.store) - 1)
    for _ in range(data.draw(st.integers(min_value=0, max_value=80))):
        p = data.draw(st.integers(min_value=0, max_value=n - 1))
        slot = data.draw(slots)
        if data.draw(st.booleans()):
            value, rmr = mem.read_slot(p, slot)
            assert (value, rmr) == oracle.read_slot(p, slot)
            totals[p] += rmr
        else:
            value = data.draw(VALUES[kinds[slot]])
            assert check_kind(kinds[slot], value)
            mem.write_slot(p, slot, value)
            oracle.write_slot(p, slot, value)
            totals[p] += 1
        assert totals == oracle.totals
        assert mem.store == oracle.store
    oracle.check_coherence()
    mem.check_coherence()
    for slot, mask in enumerate(mem.valid):
        assert mask == sum(1 << p for p in range(n) if slot in oracle.caches[p])
