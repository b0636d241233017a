"""Reference checkers, written directly from each property's statement.

`check_mutual_exclusion` and `check_fcfs` are the O(I^2) pairwise
checkers gmesim once ran: each rebuilds the invocation fold and
compares every pair of invocations.  `check_flip_invariant` and
`check_token_bound` are the event scans gmesim ran before these
properties became online monitors.  All four are slow or ad hoc but
obviously faithful to the definitions; the tests require the folds of
the online monitors to agree with them on the verdict status, and on a
witness that these definitions also call a violation.  `block_events`
is the Burns-Lamport block count gmesim once read off the events; the
counts it now reads off the invocation records must equal it.
`wait_passes` is the wait-pass segmentation gmesim once kept in every
invocation record, judged against the ceilings afterwards; the fold now
decides them as it walks, and its verdict must be the same.  `records`
reads each invocation's markers, RMR, step counts and blocked passes off
the events by (pid, inv), where the fold reaches a process's current
record directly; the two must give the same records.
"""

from __future__ import annotations

from gmesim.machine import (CS_ENTER, CS_EXIT, DOORWAY_COMPLETE, DOORWAY_START,
                            EXIT_COMPLETE, Section, Trace)
from gmesim.monitors import FAIL, PASS, Verdict, build_invocations

_INF = float("inf")


def check_mutual_exclusion(trace: Trace) -> Verdict:
    """No two conflicting invocations may overlap in the critical section."""
    records = [r for r in build_invocations(trace) if r.ce is not None]
    for a_i, a in enumerate(records):
        a_end = a.cx if a.cx is not None else _INF
        for b in records[a_i + 1:]:
            if a.pid == b.pid or a.session == b.session:
                continue
            b_end = b.cx if b.cx is not None else _INF
            if a.ce <= b_end and b.ce <= a_end:
                return Verdict(FAIL, witness=(a.ce, b.ce, a.pid, b.pid),
                               detail=f"P{a.pid} (session {a.session}) and P{b.pid} "
                                      f"(session {b.session}) overlap in the CS")
    return Verdict(PASS)


def check_fcfs(trace: Trace) -> Verdict:
    """A doorway-preceding conflicting invocation enters the CS first."""
    records = build_invocations(trace)
    for a in records:
        if a.dc is None:
            continue
        for b in records:
            if b is a or b.pid == a.pid or b.session == a.session:
                continue
            if b.ds is None or a.dc >= b.ds or b.ce is None:
                continue
            if a.ce is None or b.ce < a.ce:
                return Verdict(FAIL, witness=(a.dc, b.ce, a.pid, b.pid),
                               detail=f"P{a.pid} completed its doorway before P{b.pid} "
                                      f"started, yet P{b.pid} entered the CS first")
    return Verdict(PASS)


def check_flip_invariant(trace: Trace) -> Verdict:
    """GlobalColor flips at most once inside any process's open window.

    A window opens at the line-5 read of GlobalColor and closes when the
    invocation completes its exit.
    """
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
                            FAIL, witness=(window[0], window[1], pid),
                            detail=f"GlobalColor flipped twice (steps {window[0]}, "
                                   f"{window[1]}) inside P{pid}'s window")
            else:
                gc = ev.value
        if ev.line == 5 and ev.kind == "read":
            windows[ev.pid] = []
        if EXIT_COMPLETE in ev.markers:
            windows.pop(ev.pid, None)
    return Verdict(PASS, detail=f"{len(flips)} flips observed")


def check_token_bound(trace: Trace) -> Verdict:
    """Committed token numbers never exceed N+1."""
    n = trace.n
    max_seen = 0
    for ev in trace.events:
        if ev.kind == "write" and ev.reg and ev.reg.startswith("Token["):
            number = ev.value[2]
            if number > max_seen:
                max_seen = number
            if number > n + 1:
                return Verdict(FAIL, witness=(ev.index, ev.pid),
                               detail=f"token number {number} > N+1 = {n + 1}")
    return Verdict(PASS, detail=f"max token number {max_seen}")


def block_events(trace: Trace):
    """Per-process block counts from a bl trace.

    Returns (totals, by_blocker): totals[pid] is how often pid
    transitioned into waiting at line 5 or line 10; by_blocker[(pid, j)]
    splits that by the process whose bit was observed set.
    """
    totals = {pid: 0 for pid in range(1, trace.n + 1)}
    by_blocker: dict = {}
    waiting_at: dict = {}
    for ev in trace.events:
        if ev.pid == 0:
            continue
        if ev.line in (5, 10) and ev.outcome == "fail":
            key = (ev.inv, ev.line, ev.j)
            if waiting_at.get(ev.pid) != key:
                waiting_at[ev.pid] = key
                totals[ev.pid] += 1
                by_blocker[(ev.pid, ev.j)] = by_blocker.get((ev.pid, ev.j), 0) + 1
        else:
            waiting_at.pop(ev.pid, None)
    return totals, by_blocker


def wait_passes(trace: Trace, ceilings: dict):
    """The wait_rmr verdict under `ceilings` (line -> RMR per pass), and
    each invocation's spurious GlobalColor refetch count by (pid, inv).

    Every invocation's passes are kept in order, then scanned for the
    first whose whole cost exceeds its line's ceiling; an invocation
    fails on its refetches after its passes.  A pass is a process's
    consecutive events at one wait line for one j, up to a passing
    evaluation.  A refetch is a bwbgme line-21 GlobalColor read charged
    as an RMR, after which the evaluation still comes out false.
    """
    passes: dict = {}     # (pid, inv) -> [[line, j, rmr, start]], in first-step order
    refetches: dict = {}  # (pid, inv) -> count
    open_pass: dict = {}  # pid -> its open pass
    pending: dict = {}    # pid -> whether its line-21 color read was an RMR
    for ev in trace.events:
        if ev.pid == 0 or ev.inv < 0:
            continue
        key = (ev.pid, ev.inv)
        mine = passes.setdefault(key, [])
        refetches.setdefault(key, 0)
        if ev.j is None:
            open_pass.pop(ev.pid, None)
        else:
            cur = open_pass.get(ev.pid)
            if cur is None or cur[:2] != [ev.line, ev.j]:
                cur = open_pass[ev.pid] = [ev.line, ev.j, 0, ev.index]
                mine.append(cur)
            cur[2] += ev.rmr
            if ev.outcome == "pass":
                del open_pass[ev.pid]
        if trace.algorithm == "bwbgme" and ev.line == 21:
            if ev.reg == "GlobalColor" and ev.outcome != "pass":
                pending[ev.pid] = ev.rmr
            elif pending.pop(ev.pid, False) and ev.outcome == "fail":
                refetches[key] += 1
    for (pid, inv), mine in passes.items():
        for line, j, rmr, start in mine:
            if rmr > ceilings.get(line, _INF):
                return Verdict(FAIL, witness=(start, pid),
                               detail=f"P{pid} inv {inv}: line {line} pass for j={j} "
                                      f"cost {rmr} RMR > {ceilings[line]}"), refetches
        if refetches[pid, inv] > trace.n - 1:
            return Verdict(FAIL, witness=(pid, inv),
                           detail=f"P{pid} inv {inv}: {refetches[pid, inv]} "
                                  "spurious GlobalColor refetches > N-1"), refetches
    return Verdict(PASS), refetches


_MARK_FIELDS = {DOORWAY_START: "ds", DOORWAY_COMPLETE: "dc", CS_ENTER: "ce",
                CS_EXIT: "cx", EXIT_COMPLETE: "xc"}


def records(trace: Trace) -> dict:
    """(pid, inv) -> its invocation's fields, in order of first step: the
    index of each marker's step ("ds" .. "xc"), the RMR per section
    ("rmr"), "entry_steps", "exit_accesses", and its blocked wait passes
    ("blocked", and "first_blocked", the first one's (index, line, j) at
    its first false evaluation, or None).

    Each event is filed under its own (pid, inv).  Wait passes are cut
    afterwards from each process's own events: a pass is a run of
    consecutive events at one wait line for one j, ended by a passing
    evaluation; a pass is blocked if one of its evaluations failed.
    """
    out: dict = {}
    mine: dict = {}  # pid -> its events, in order
    for ev in trace.events:
        if ev.pid == 0 or ev.inv < 0:
            continue
        rec = out.setdefault((ev.pid, ev.inv), {
            "ds": None, "dc": None, "ce": None, "cx": None, "xc": None, "rmr": {},
            "entry_steps": 0, "exit_accesses": 0, "blocked": 0, "first_blocked": None})
        for marker in ev.markers:
            rec[_MARK_FIELDS[marker]] = ev.index
        if ev.rmr:
            rec["rmr"][ev.section] = rec["rmr"].get(ev.section, 0) + 1
        if ev.section in (Section.DOORWAY, Section.WAITING):
            rec["entry_steps"] += 1
        if ev.section == Section.EXIT and ev.kind in ("read", "write"):
            rec["exit_accesses"] += 1
        mine.setdefault(ev.pid, []).append(ev)
    for events in mine.values():
        passes, cur = [], None
        for ev in events:
            if ev.j is None:
                cur = None
                continue
            if cur is None or (cur[0].line, cur[0].j) != (ev.line, ev.j):
                cur = []
                passes.append(cur)
            cur.append(ev)
            if ev.outcome == "pass":
                cur = None
        for wait in passes:
            fails = [ev for ev in wait if ev.outcome == "fail"]
            if fails:
                rec = out[fails[0].pid, fails[0].inv]
                rec["blocked"] += 1
                if rec["first_blocked"] is None:
                    rec["first_blocked"] = (fails[0].index, fails[0].line, fails[0].j)
    return out
