"""Schedule sources: scripted, round-robin, fair seeded-random, and the
adversarial pid sequence that realizes the quadratic Burns-Lamport cost.

A schedule yields one pid per call; the machine executes exactly one
step per pid.  Replaying the same schedule object (or an equal one) on
an equal initial state reproduces the run bit for bit.
"""

from __future__ import annotations

import random

from .burns_lamport import build_bl
from .errors import ConfigurationError, ConsistencyError
from .machine import EXIT_COMPLETE, SystemState, Workload, step


class Scripted:
    """Fixed pid sequence; returns None when the script is exhausted."""

    def __init__(self, pids):
        self.pids = list(pids)
        self.pos = 0

    def next(self, state: SystemState):
        if self.pos >= len(self.pids):
            return None
        pid = self.pids[self.pos]
        self.pos += 1
        if not 1 <= pid <= state.spec.n:
            raise ConfigurationError(f"scripted pid {pid} outside 1..{state.spec.n}")
        return pid


class RoundRobin:
    """Cycle over processes, skipping the ones whose workload finished."""

    def __init__(self):
        self.cursor = 0

    def next(self, state: SystemState):
        n = state.spec.n
        for _ in range(n):
            pid = self.cursor % n + 1
            self.cursor += 1
            if not state.exhausted(pid):
                return pid
        return None


class RandomSchedule:
    """Seeded random choice with a hard fairness window.

    Every live process is scheduled at least once in any w consecutive
    steps: once a process has waited w - n steps it is overdue, and the
    one that has waited longest (the lowest pid among those never
    picked) goes first, which keeps each gap <= w (random_schedule
    checks w >= n).  Otherwise it picks a live pid at random, drawn as
    `random.Random.choice` draws it: `getrandbits(k)`, for k the live
    count's bit length, until a draw falls below that count.

    The caller steps each pid this returns, and nothing else, before the
    next call: only the previous pick can have run out of invocations,
    so the live set is kept here instead of rescanned from the state.
    """

    def __init__(self, seed: int, window: int):
        self.window = window
        self.getrandbits = random.Random(seed).getrandbits
        self.live = None  # ascending live pids, set on the first call
        self.slack = 0  # w - n, the wait that makes a process overdue
        # pid -> call count at its last pick (0 if never picked), kept in
        # order of last pick, so the first entry has waited longest.
        self.stamps: dict = {}
        self.calls = 0
        self.last = 0

    def next(self, state: SystemState):
        live = self.live
        if live is None:
            # A process that runs out of invocations never becomes live
            # again, so the first call's live set covers every later one.
            live = self.live = state.live_pids()
            self.stamps = dict.fromkeys(live, 0)
            self.slack = self.window - state.spec.n
        elif live and state.exhausted(self.last):
            live.remove(self.last)
            del self.stamps[self.last]
        if not live:
            return None
        stamps = self.stamps
        calls = self.calls
        oldest = next(iter(stamps))
        if calls - stamps[oldest] >= self.slack:
            pick = oldest
        else:
            count = len(live)
            k = count.bit_length()
            getrandbits = self.getrandbits
            r = getrandbits(k)
            while r >= count:
                r = getrandbits(k)
            pick = live[r]
        del stamps[pick]
        self.calls = stamps[pick] = calls + 1
        self.last = pick
        return pick


def random_schedule(n: int, seed: int, window: int = None) -> RandomSchedule:
    """Fair random schedule; window defaults to 4n and must be >= n."""
    if window is None:
        window = 4 * n
    if window < n:
        raise ConfigurationError(f"fairness window {window} < n={n}")
    return RandomSchedule(seed, window)


def bl_adversarial_workload(n: int, cs_steps: int = 1) -> Workload:
    """One invocation per process, all sessions distinct (session = pid)."""
    return Workload([[pid] for pid in range(1, n + 1)], cs_steps=cs_steps)


def bl_adversarial_schedule(n: int, cs_steps: int = 1) -> Scripted:
    """The worst-case pid sequence for Burns-Lamport, generalized to n.

    Round r (r = 1..n) lets P_r win while higher-numbered processes are
    re-woken so that each block lands exactly where the quadratic count
    needs it: P_n ends up blocked by P_j exactly j times for every
    j < n, a total of n(n-1)/2 blocks.

    The sequence is produced by steering a private simulation, so it is
    valid step-by-step by construction; replaying it through run() on a
    fresh state with bl_adversarial_workload(n) reproduces it exactly.
    """
    if n < 2:
        raise ConfigurationError("the adversarial schedule needs n >= 2")
    spec = build_bl(n)
    state = SystemState(spec, bl_adversarial_workload(n, cs_steps))
    pids: list = []
    budget = 200 * n * n + 10_000

    def drive(pid: int, until) -> None:
        for _ in range(budget):
            ev = step(state, pid)
            pids.append(pid)
            if until(ev):
                return
        raise ConsistencyError(f"adversarial driver stalled on P{pid}")

    def bit_set(ev) -> bool:
        return ev[3] == 1 and ev[4] == "write"  # line, kind

    def blocked(ev) -> bool:
        return ev[10] == "fail"  # outcome

    def finished(ev) -> bool:
        return EXIT_COMPLETE in ev[9]  # markers

    for r in range(1, n + 1):
        drive(n, bit_set)
        for k in range(n - 1, r - 1, -1):
            drive(k, bit_set)
            drive(k + 1, blocked)
            if n > k + 1:
                drive(n, blocked)
        if r < n:
            drive(r, finished)
        else:
            drive(n, finished)
    if not state.all_done():
        raise ConsistencyError("adversarial schedule left work unfinished")
    return Scripted(pids)
