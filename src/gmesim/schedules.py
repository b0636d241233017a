"""Schedule sources: scripted, round-robin, fair seeded-random, and the
adversarial pid sequence that realizes the quadratic Burns-Lamport cost.

A schedule's `next(live)` returns the next pid to step, or None to end
the run, given the ascending pids the run loop keeps of the processes
not yet finished (`machine.finishes`).  Replaying the same schedule
object (or an equal one) on an equal initial state reproduces the run
bit for bit.
"""

from __future__ import annotations

import bisect
import random

from .burns_lamport import build_bl
from .errors import ConfigurationError, ConsistencyError
from .machine import EXIT_COMPLETE, SystemState, Workload, step


class Scripted:
    """Fixed pid sequence, each in 1..n; None once the script is spent."""

    def __init__(self, pids, n: int):
        pids = list(pids)
        for pid in pids:
            if not 1 <= pid <= n:
                raise ConfigurationError(f"scripted pid {pid} outside 1..{n}")
        self.rest = iter(pids)

    def next(self, live: list):
        return next(self.rest, None)


class RoundRobin:
    """Cycle over the live processes: the first after the last pick, wrapping."""

    def __init__(self):
        self.last = 0

    def next(self, live: list):
        if not live:
            return None
        self.last = pid = live[bisect.bisect_right(live, self.last) % len(live)]
        return pid


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
    next call, and hands it the live pids: only the previous pick can
    have left them since the last call.
    """

    def __init__(self, n: int, seed: int, window: int):
        self.getrandbits = random.Random(seed).getrandbits
        self.slack = window - n  # the wait that makes a process overdue
        # pid -> call count at its last pick (0 if never picked), kept in
        # order of last pick, so the first entry has waited longest.
        # Filled on the first call, with the pids live then.
        self.stamps: dict = {}
        self.calls = 0
        self.last = 0

    def next(self, live: list):
        if not live:
            return None
        stamps = self.stamps
        if len(stamps) != len(live):  # the last pick finished, or this is the first call
            if stamps:
                del stamps[self.last]
            else:
                stamps.update(dict.fromkeys(live, 0))
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
    return RandomSchedule(n, seed, window)


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
    if state.live_pids():
        raise ConsistencyError("adversarial schedule left work unfinished")
    return Scripted(pids, n)
