"""Property monitors: pure functions from a trace and its invocation fold
to a verdict.

The caller folds the trace once with `build_invocations` and hands the
same record list to every monitor, as `monitor(trace, records)`; no
monitor rebuilds the fold or mutates the records, so running a monitor
twice on the same inputs always yields the same verdict.  Mutual
exclusion and FCFS are single sweeps in trace order.  A failing verdict
carries a witness naming the event indices and processes that realize
a violation; for `me` and `fcfs` it is the earliest one in trace order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter, itemgetter
from typing import Optional

from .errors import ConfigurationError, ConsistencyError
from .machine import (CS_ENTER, CS_EXIT, DOORWAY_COMPLETE, DOORWAY_START,
                      EXIT_COMPLETE, Section, Trace)

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

_INF = float("inf")

# Wait lines whose per-pass RMR the accounting tracks, per algorithm.
_WAIT_LINES = {"glb": (8, 9), "bwbgme": (17, 19, 21), "bl": (5, 10)}

# Per-pass RMR ceilings: a single pass of the line for a fixed j may
# charge at most this many remote references under any schedule.
_PASS_RMR_BOUNDS = {"glb": {8: 5, 9: 5}, "bwbgme": {17: 5, 19: 2}}


@dataclass
class Verdict:
    """Outcome of one property check over one trace."""

    prop: str
    status: str
    witness: Optional[tuple] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL


@dataclass
class WaitPass:
    """One stay at a wait line for a fixed j, until the condition passed."""

    line: int
    j: int
    rmr: int = 0
    blocked: bool = False  # some evaluation came out false
    completed: bool = False
    start: int = 0


@dataclass
class InvocationRecord:
    """Everything the monitors need about one invocation of one process."""

    pid: int
    inv: int
    session: int = 0
    ds: Optional[int] = None
    dc: Optional[int] = None
    ce: Optional[int] = None
    cx: Optional[int] = None
    xc: Optional[int] = None
    rmr_by_section: dict = field(default_factory=dict)
    entry_steps: int = 0
    exit_accesses: int = 0
    exit_writes: int = 0
    token_value: object = None
    token_commit: Optional[int] = None
    token_reset: Optional[int] = None
    false_entry_evals: int = 0
    blocked_transitions: list = field(default_factory=list)
    wait_passes: list = field(default_factory=list)
    gc_spurious_refetches: int = 0

    @property
    def rmr_total(self) -> int:
        return sum(self.rmr_by_section.values())

    def rmr_in(self, section: Section) -> int:
        return self.rmr_by_section.get(section, 0)


def build_invocations(trace: Trace) -> list:
    """Fold the event stream into per-invocation records."""
    commit_line = {"glb": 5, "bwbgme": 14, "bl": None}[trace.algorithm]
    reset_line = {"glb": 12, "bwbgme": 34, "bl": None}[trace.algorithm]
    wait_lines = _WAIT_LINES[trace.algorithm]

    records: dict = {}
    order: list = []
    open_pass: dict = {}
    pending_gc_rmr: dict = {}
    workload_sessions = trace.meta.get("workload_sessions")

    for ev in trace.events:
        if ev.pid == 0 or ev.inv < 0:
            continue
        key = (ev.pid, ev.inv)
        rec = records.get(key)
        if rec is None:
            rec = records[key] = InvocationRecord(pid=ev.pid, inv=ev.inv)
            if workload_sessions is not None:
                rec.session = workload_sessions[ev.pid - 1][ev.inv]
            order.append(rec)

        if DOORWAY_START in ev.markers:
            rec.ds = ev.index
        if DOORWAY_COMPLETE in ev.markers:
            rec.dc = ev.index
        if CS_ENTER in ev.markers:
            rec.ce = ev.index
        if CS_EXIT in ev.markers:
            rec.cx = ev.index
        if EXIT_COMPLETE in ev.markers:
            rec.xc = ev.index

        if ev.rmr:
            rec.rmr_by_section[ev.section] = rec.rmr_by_section.get(ev.section, 0) + 1
        if ev.section in (Section.DOORWAY, Section.WAITING):
            rec.entry_steps += 1
            if ev.outcome == "fail":
                rec.false_entry_evals += 1
        if ev.section is Section.EXIT and ev.kind in ("read", "write"):
            rec.exit_accesses += 1
            if ev.kind == "write":
                rec.exit_writes += 1

        if commit_line is not None and ev.line == commit_line and ev.kind == "write":
            rec.token_value = ev.value
            rec.token_commit = ev.index
        if reset_line is not None and ev.line == reset_line and ev.kind == "write":
            rec.token_reset = ev.index

        # Wait-pass segmentation: a process's events at one wait line for
        # one j are consecutive among its own events.
        if ev.line in wait_lines and ev.j is not None:
            cur = open_pass.get(ev.pid)
            if cur is None or cur.line != ev.line or cur.j != ev.j or cur.completed:
                cur = WaitPass(line=ev.line, j=ev.j, start=ev.index)
                open_pass[ev.pid] = cur
                rec.wait_passes.append(cur)
            cur.rmr += 1 if ev.rmr else 0
            if ev.outcome == "fail":
                if not cur.blocked:
                    cur.blocked = True
                    rec.blocked_transitions.append((ev.index, ev.line, ev.j))
            elif ev.outcome == "pass":
                cur.completed = True
        else:
            open_pass.pop(ev.pid, None)

        # Spurious GlobalColor refetches: an RMR on the line-21 color read
        # followed by the evaluation still coming out false.
        if trace.algorithm == "bwbgme" and ev.line == 21:
            if ev.reg == "GlobalColor":
                if ev.outcome == "pass":
                    pending_gc_rmr.pop(ev.pid, None)
                else:
                    pending_gc_rmr[ev.pid] = ev.rmr
            else:
                if ev.outcome == "fail" and pending_gc_rmr.pop(ev.pid, False):
                    rec.gc_spurious_refetches += 1
                elif ev.outcome == "pass":
                    pending_gc_rmr.pop(ev.pid, None)

    return order


def check_mutual_exclusion(trace: Trace, records: list) -> Verdict:
    """No two conflicting invocations may overlap in the critical section.

    One sweep over CS entries in trace order keeps the open CS intervals
    in a heap by exit step, with a count of them per session.  The first
    entry that finds an open interval of another session is the witness,
    paired with the earliest-entered such interval.
    """
    open_cs: list = []  # (exit step or inf, entry step, record)
    open_per_session: dict = {}
    for b in sorted((r for r in records if r.ce is not None), key=attrgetter("ce")):
        while open_cs and open_cs[0][0] < b.ce:
            closed = heappop(open_cs)[2]
            open_per_session[closed.session] -= 1
        if len(open_cs) > open_per_session.get(b.session, 0):
            a = min((r for _, _, r in open_cs if r.session != b.session),
                    key=attrgetter("ce"))
            return Verdict("me", FAIL, witness=(a.ce, b.ce, a.pid, b.pid),
                           detail=f"P{a.pid} (session {a.session}) and P{b.pid} "
                                  f"(session {b.session}) overlap in the CS")
        heappush(open_cs, (_INF if b.cx is None else b.cx, b.ce, b))
        open_per_session[b.session] = open_per_session.get(b.session, 0) + 1
    return Verdict("me", PASS)


def check_fcfs(trace: Trace, records: list) -> Verdict:
    """A doorway-preceding conflicting invocation enters the CS first.

    One sweep over doorway completions and CS entries in trace order
    keeps, per session, a min-heap by doorway completion of the
    invocations that completed their doorway; those that have entered
    since are dropped lazily.  The first entry by an invocation b whose
    doorway began after a still-waiting invocation of another session
    had completed its own fails, with the oldest such invocation as a.
    """
    marks = sorted([(r.dc, 0, r) for r in records if r.dc is not None]
                   + [(r.ce, 1, r) for r in records if r.ce is not None],
                   key=itemgetter(0, 1))
    waiting: dict = {}  # session -> heap of (dc, record)
    for at, entering, b in marks:
        if not entering:
            heappush(waiting.setdefault(b.session, []), (at, b))
            continue
        if b.ds is None:
            continue
        overtaken = []
        for session, heap in waiting.items():
            if session == b.session:
                continue
            while heap and heap[0][1].ce is not None and heap[0][1].ce < at:
                heappop(heap)
            if heap and heap[0][0] < b.ds:
                overtaken.append(heap[0])
        if overtaken:
            a = min(overtaken, key=itemgetter(0))[1]
            return Verdict("fcfs", FAIL, witness=(a.dc, b.ce, a.pid, b.pid),
                           detail=f"P{a.pid} completed its doorway before P{b.pid} "
                                  f"started, yet P{b.pid} entered the CS first")
    return Verdict("fcfs", PASS)


def _default_exit_bound(algorithm: str, n: int):
    if algorithm == "glb":
        return ("exact", 2)
    if algorithm == "bl":
        return ("exact", 1)
    return ("atmost", n + 2)


def check_bounded_exit(trace: Trace, records: list) -> Verdict:
    """Exit sections finish in a bounded number of shared accesses.

    glb: exactly 2 writes; bl: exactly 1 write; bwbgme: at most N+2
    accesses (scan reads, at most one flip, token reset).
    """
    mode, bound = _default_exit_bound(trace.algorithm, trace.n)
    for rec in records:
        if rec.exit_accesses > bound:
            return Verdict("bounded-exit", FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: {rec.exit_accesses} "
                                  f"exit accesses > {bound}")
        if mode == "exact" and rec.xc is not None and rec.exit_accesses != bound:
            return Verdict("bounded-exit", FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: {rec.exit_accesses} "
                                  f"exit accesses, expected exactly {bound}")
    return Verdict("bounded-exit", PASS)


def check_concurrent_entry(trace: Trace, records: list) -> Verdict:
    """With a single session in play, no entry wait may ever come out false."""
    sessions = trace.meta.get("sessions")
    if sessions is None:
        sessions = {r.session for r in records}
    if len(set(sessions)) > 1:
        return Verdict("concurrent-entry", INAPPLICABLE,
                       detail="workload uses more than one session")
    for rec in records:
        if rec.false_entry_evals:
            step, line, j = rec.blocked_transitions[0]
            return Verdict("concurrent-entry", FAIL, witness=(step, rec.pid),
                           detail=f"P{rec.pid} waited at line {line} on P{j} "
                                  "despite a conflict-free workload")
    return Verdict("concurrent-entry", PASS)


def check_flip_invariant(trace: Trace, records: list) -> Verdict:
    """GlobalColor flips at most once inside any process's open window.

    A window opens at the line-5 read of GlobalColor and closes when the
    invocation completes its exit.
    """
    if trace.algorithm != "bwbgme":
        return Verdict("flip", INAPPLICABLE, detail="not a bwbgme trace")
    gc = trace.meta.get("initial_color")
    windows: dict = {}
    flips: list = []
    for ev in trace.events:
        if ev.pid == 0:
            continue
        if ev.kind == "write" and ev.reg == "GlobalColor":
            if ev.value != gc:
                gc = ev.value
                flips.append(ev.index)
                for pid, window in windows.items():
                    window.append(ev.index)
                    if len(window) >= 2:
                        return Verdict(
                            "flip", FAIL, witness=(window[0], window[1], pid),
                            detail=f"GlobalColor flipped twice (steps {window[0]}, "
                                   f"{window[1]}) inside P{pid}'s window")
            else:
                gc = ev.value
        if ev.line == 5 and ev.kind == "read":
            windows[ev.pid] = []
        if EXIT_COMPLETE in ev.markers:
            windows.pop(ev.pid, None)
    return Verdict("flip", PASS, detail=f"{len(flips)} flips observed")


def check_token_bound(trace: Trace, records: list) -> Verdict:
    """Committed token numbers never exceed N+1."""
    if trace.algorithm != "bwbgme":
        return Verdict("token-bound", INAPPLICABLE, detail="not a bwbgme trace")
    n = trace.n
    max_seen = 0
    for ev in trace.events:
        if ev.kind == "write" and ev.reg and ev.reg.startswith("Token["):
            number = ev.value[2]
            if number > max_seen:
                max_seen = number
            if number > n + 1:
                return Verdict("token-bound", FAIL, witness=(ev.index, ev.pid),
                               detail=f"token number {number} > N+1 = {n + 1}")
    return Verdict("token-bound", PASS, detail=f"max token number {max_seen}")


def check_progress(trace: Trace, records: list) -> Verdict:
    """Deadlock and (heuristic) starvation detection.

    Starvation is flagged when an invocation finished its doorway, never
    entered the CS, and at least two invocations of other processes ran
    to completion after that doorway ended.  This is a bounded heuristic
    under a fair schedule, not a liveness proof.
    """
    for ev in trace.events:
        if ev.kind == "deadlock":
            return Verdict("progress", FAIL, witness=(ev.index,),
                           detail="deadlock: every active process is blocked")
    for rec in records:
        if rec.dc is None or rec.ce is not None:
            continue
        overtaken = sum(1 for other in records
                        if other.pid != rec.pid and other.xc is not None
                        and other.xc > rec.dc)
        if overtaken >= 2:
            return Verdict("progress", FAIL, witness=(rec.dc, rec.pid),
                           detail=f"starvation: P{rec.pid} inv {rec.inv} never entered "
                                  f"the CS while {overtaken} later invocations completed")
    return Verdict("progress", PASS)


def check_wait_rmr_bounds(trace: Trace, records: list) -> Verdict:
    """Per-pass RMR ceilings on the wait lines, from the ledger.

    glb: one pass of line 8 or line 9 for a fixed j costs at most 5 RMR.
    bwbgme: line 17 at most 5, line 19 at most 2; additionally the
    spurious GlobalColor refetches while blocked at line 21 stay below N
    per invocation (amortized bound N-1).
    """
    bounds = _PASS_RMR_BOUNDS.get(trace.algorithm)
    if bounds is None:
        return Verdict("wait-rmr", INAPPLICABLE,
                       detail=f"no per-line bounds for {trace.algorithm}")
    for rec in records:
        for wp in rec.wait_passes:
            bound = bounds.get(wp.line)
            if bound is not None and wp.rmr > bound:
                return Verdict("wait-rmr", FAIL, witness=(wp.start, rec.pid),
                               detail=f"P{rec.pid} inv {rec.inv}: line {wp.line} pass "
                                      f"for j={wp.j} cost {wp.rmr} RMR > {bound}")
        if trace.algorithm == "bwbgme" and rec.gc_spurious_refetches > trace.n - 1:
            return Verdict("wait-rmr", FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: {rec.gc_spurious_refetches} "
                                  f"spurious GlobalColor refetches > N-1")
    return Verdict("wait-rmr", PASS)


def check_section_order(trace: Trace, records: list) -> Verdict:
    """Markers appear in invocation order: ds <= dc < ce <= cx <= xc."""
    for rec in records:
        seq = [rec.ds, rec.dc, rec.ce, rec.cx, rec.xc]
        present = [x for x in seq if x is not None]
        if present != sorted(present):
            return Verdict("section-order", FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: markers out of order {seq}")
        # A later marker must not exist without the earlier ones.
        seen_none = False
        for x in seq:
            if x is None:
                seen_none = True
            elif seen_none:
                return Verdict("section-order", FAIL, witness=(rec.pid, rec.inv),
                               detail=f"P{rec.pid} inv {rec.inv}: marker gap {seq}")
    return Verdict("section-order", PASS)


def check_implications(verdicts: dict, trace: Trace) -> None:
    """Cross-verdict sanity: FCFS + deadlock freedom implies no starvation
    on complete traces.  A violation here is a simulator bug, not an
    algorithm property failure.
    """
    fcfs = verdicts.get("fcfs")
    progress = verdicts.get("progress")
    if fcfs is None or progress is None:
        return
    if not trace.meta.get("completed"):
        return
    deadlocked = trace.meta.get("deadlocked")
    if fcfs.status == PASS and not deadlocked and progress.status == FAIL \
            and "starvation" in progress.detail.lower():
        raise ConsistencyError(
            "starvation verdict fired although FCFS held and no deadlock occurred")


MONITORS = {
    "me": check_mutual_exclusion,
    "fcfs": check_fcfs,
    "bounded_exit": check_bounded_exit,
    "concurrent_entry": check_concurrent_entry,
    "flip": check_flip_invariant,
    "token_bound": check_token_bound,
    "progress": check_progress,
    "wait_rmr": check_wait_rmr_bounds,
    "section_order": check_section_order,
}

DEFAULT_MONITORS = {
    "glb": ("me", "fcfs", "bounded_exit", "concurrent_entry", "progress",
            "wait_rmr", "section_order"),
    "bwbgme": ("me", "fcfs", "bounded_exit", "concurrent_entry", "flip",
               "token_bound", "progress", "wait_rmr", "section_order"),
    "bl": ("me", "bounded_exit", "progress", "section_order"),
}


def monitors_for(algorithm: str, names=None) -> list:
    """Resolve monitor names to (name, callable) pairs."""
    if names is None or names == ("default",) or names == ["default"]:
        names = DEFAULT_MONITORS[algorithm]
    out = []
    for name in names:
        fn = MONITORS.get(name)
        if fn is None:
            raise ConfigurationError(f"unknown monitor {name!r}")
        out.append((name, fn))
    return out
