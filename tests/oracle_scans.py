"""Reference versions of the per-step scans gmesim.machine and
gmesim.schedules no longer run.

Both rescan every process on every call: the fair random schedule reads
the live set from the state and ages every live process by one step,
and the deadlock test checks every active process's wait condition.
This is how gmesim ran before it kept the live set, the pick stamps and
a deadlock witness across calls; the tests require the same picks and
the same verdicts from both.
"""

from __future__ import annotations

import random

from gmesim.machine import PC_REMAINDER, SystemState


class RandomSchedule:
    """Seeded random choice with a hard fairness window: an overdue
    process (one that has waited w - n steps) is picked longest-waiting
    first, ties to the lowest pid; otherwise a live pid at random."""

    def __init__(self, seed: int, window: int):
        self.window = window
        self.rng = random.Random(seed)
        self.since: dict = {}  # pid -> steps since it was last picked

    def next(self, state: SystemState):
        live = state.live_pids()
        if not live:
            return None
        since = self.since
        if not since:
            since.update(dict.fromkeys(live, 0))
        threshold = self.window - state.spec.n
        overdue = [pid for pid in live if since[pid] >= threshold]
        if overdue:
            pick = max(overdue, key=lambda p: (since[p], -p))
        else:
            pick = self.rng.choice(live)
        for pid in live:
            since[pid] += 1
        since[pick] = 0
        return pick


def all_active_blocked(state: SystemState) -> bool:
    """True iff some process is active and every active one is blocked."""
    spec = state.spec
    any_active = False
    for pid in range(1, spec.n + 1):
        env = state.envs[pid - 1]
        if env.pc == PC_REMAINDER:
            continue
        any_active = True
        cond = spec.wait_conds.get(env.pc)
        if cond is None or cond(env, state.mem.store, pid):
            return False
    return any_active
