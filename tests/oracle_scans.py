"""Reference versions of the fair random schedule and the deadlock test.

The schedule rescans every process on every call: it ignores the live
list the run loop hands it, reads the live set off the state it holds
(`live_pids`, its own statement of which processes have finished) and
ages every live process by one step, as gmesim did before it kept the
pick stamps across calls.  The
deadlock test reads each wait line's condition, written a second time
by hand, where gmesim steps the process alone (`machine.spins`).  The
tests require the same picks and the same verdicts from both.
"""

from __future__ import annotations

import functools
import random

from gmesim import burns_lamport, bwbgme, glb
from gmesim.machine import PC_REMAINDER, SystemState


class RandomSchedule:
    """Seeded random choice with a hard fairness window: an overdue
    process (one that has waited w - n steps) is picked longest-waiting
    first, ties to the lowest pid; otherwise a live pid at random."""

    def __init__(self, state: SystemState, seed: int, window: int):
        self.state = state
        self.threshold = window - state.spec.n
        self.rng = random.Random(seed)
        self.since: dict = {}  # pid -> steps since it was last picked

    def next(self, _):
        live = live_pids(self.state)
        if not live:
            return None
        since = self.since
        if not since:
            since.update(dict.fromkeys(live, 0))
        overdue = [pid for pid in live if since[pid] >= self.threshold]
        if overdue:
            pick = max(overdue, key=lambda p: (since[p], -p))
        else:
            pick = self.rng.choice(live)
        for pid in live:
            since[pid] += 1
        since[pick] = 0
        return pick


def live_pids(state: SystemState) -> list:
    """The pids of the processes that still have an invocation to start
    or finish, ascending, read off their runtimes and the workload."""
    return [pid for pid in range(1, state.spec.n + 1)
            if state.envs[pid - 1].pc != PC_REMAINDER
            or state.envs[pid - 1].inv < len(state.workload.sessions[pid - 1]) - 1]


def wait_conds(spec) -> dict:
    """pc -> cond(env, store, i1) at each pc of spec's algorithm from
    which a process may spin, written by hand over the global store and
    true iff it gets past: at a wait-line evaluation, the line's whole
    condition for the runtime's j; at bwbgme's line-18 branch, the
    condition of the line it branches to; at bl's downward scan, that
    it resets its bit, enters the CS or passes its first line-10 wait."""
    return _wait_conds(spec.name, spec.n)


@functools.cache
def _wait_conds(name: str, n: int) -> dict:
    if name == "glb":
        sess0, tok0, cho0 = 0, n, 2 * n

        def line8(env, store, i1):
            jj = env.j
            return (not store[cho0 + jj - 1]) or store[sess0 + jj - 1] in (0, env.mysession)

        def line9(env, store, i1):
            jj = env.j
            tj = store[tok0 + jj - 1]
            return ((env.acc + 1, i1) < (tj, jj) or tj == 0
                    or store[sess0 + jj - 1] in (0, env.mysession))

        return {glb._W8_CHOOSING: line8, glb._W8_SESSION: line8, glb._W9_OWN: line9,
                glb._W9_TOKEN: line9, glb._W9_SESSION: line9}

    if name == "bwbgme":
        gc_slot, tok0, cho0 = 0, 1, 1 + n

        def line17(env, store, i1):
            jj = env.j
            return (not store[cho0 + jj - 1]) or store[tok0 + jj - 1][0] == env.mysession

        def line19(env, store, i1):
            jj = env.j
            session, color, number = store[tok0 + jj - 1]
            return ((env.mynumber, i1) < (number, jj) or color != env.mycolor
                    or session in (0, env.mysession))

        def line21(env, store, i1):
            jj = env.j
            session, color, _ = store[tok0 + jj - 1]
            return (store[gc_slot] != env.mycolor or color == env.mycolor
                    or session in (0, env.mysession))

        def line18(env, store, i1):
            same = store[tok0 + env.j - 1][1] == env.mycolor
            return (line19 if same else line21)(env, store, i1)

        return {bwbgme._W17_CHOOSING: line17, bwbgme._W17_TOKEN: line17, bwbgme._W18: line18,
                bwbgme._W19: line19, bwbgme._W21_COLOR: line21, bwbgme._W21_TOKEN: line21}

    def competing_clear(env, store, i1):
        return not store[env.j - 1]

    def down(env, store, i1):
        # Competing[j..i-1] holds a set bit, or the upward scan is empty,
        # or its first wait, on Competing[i+1], passes.
        return any(store[env.j - 1:i1 - 1]) or i1 == n or not store[i1]

    return {burns_lamport._DOWN: down, burns_lamport._WAIT_LOW: competing_clear,
            burns_lamport._WAIT_HIGH: competing_clear}


def all_active_blocked(state: SystemState) -> bool:
    """True iff some process is active and every active one sits at a
    wait line whose condition is false."""
    conds = wait_conds(state.spec)
    any_active = False
    for pid in range(1, state.spec.n + 1):
        env = state.envs[pid - 1]
        if env.pc == PC_REMAINDER:
            continue
        any_active = True
        cond = conds.get(env.pc)
        if cond is None or cond(env, state.mem.store, pid):
            return False
    return any_active
