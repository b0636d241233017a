"""Reference checkers for mutual exclusion and FCFS: every pair compared.

These are the O(I^2) pairwise checkers gmesim ran before `me` and
`fcfs` became sweeps over the shared invocation fold.  Each rebuilds
the fold from the trace and compares every pair of invocations, which
makes them slow but obviously faithful to the definitions; the tests
require the sweeps to agree with them on the verdict status and to
report a witness pair that these definitions also call a violation.
"""

from __future__ import annotations

from gmesim.machine import Trace
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
                return Verdict("me", FAIL, witness=(a.ce, b.ce, a.pid, b.pid),
                               detail=f"P{a.pid} (session {a.session}) and P{b.pid} "
                                      f"(session {b.session}) overlap in the CS")
    return Verdict("me", PASS)


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
                return Verdict("fcfs", FAIL, witness=(a.dc, b.ce, a.pid, b.pid),
                               detail=f"P{a.pid} completed its doorway before P{b.pid} "
                                      f"started, yet P{b.pid} entered the CS first")
    return Verdict("fcfs", PASS)
