"""Property monitors: pure functions from a trace and its invocation fold
to a verdict.

The caller folds the trace once with `build_invocations` and hands the
same record list to every monitor, as `monitor(trace, records)`; no
monitor rebuilds the fold or mutates the records, so running a monitor
twice on the same inputs always yields the same verdict.

Mutual exclusion, FCFS, the single GlobalColor flip and the N+1 token
bound are each defined once, as an online monitor (`ONLINE`): a small
hashable state and a step over events.  `advance` steps them together:
along a trace in one pass that their four checkers share, each then
looking its witness up in the records; and along every edge that
`explore` takes, which keeps their states in its key.  A failing
verdict carries a witness naming the event indices and processes that
realize a violation; for these four properties it is the first
violating event in trace order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .errors import ConfigurationError, ConsistencyError
from .machine import (CS_ENTER, CS_EXIT, DOORWAY_COMPLETE, DOORWAY_START,
                      EXIT_COMPLETE, Section, Trace)

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

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
    token_value: object = None
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

        if commit_line is not None and ev.line == commit_line and ev.kind == "write":
            rec.token_value = ev.value

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


def token_number(value) -> int:
    """The number a Token write carries: a bwbgme token is a (session,
    color, number) triple, a glb token is the number itself."""
    return value[2] if isinstance(value, tuple) else value


def max_token_number(records: list) -> int:
    """The largest committed token number (every other Token write is 0)."""
    return max((token_number(r.token_value) for r in records
                if r.token_value is not None), default=0)


# -- online monitors ----------------------------------------------------
#
# Called with (n, workload sessions per process, initial GlobalColor), a
# monitor returns a hashable start state, step(state, ev) -> (state,
# culprits), culprits being the pids ev violates the property against,
# and describe(ev, culprits), how an explored edge that violates it
# reads.  A state is a function of the explorer's value key plus the
# obligations it tracks (FCFS masks, flip windows), so carrying it in
# the key never splits a state the explorer would merge.


def monitored(ev) -> bool:
    """Whether ev can move an online monitor: it has markers, touches
    GlobalColor or writes a Token.  Monitors are stepped only over these."""
    return bool(ev.markers or ev.reg == "GlobalColor"
                or ev.kind == "write" and ev.reg.startswith("Token["))


def advance(steps, states, ev):
    """Step every online monitor over one event that `monitored` passes:
    the states after it, and (i, culprits) for each monitor i it violates."""
    after, hits = [], []
    for i, step in enumerate(steps):
        state, culprits = step(states[i], ev)
        after.append(state)
        if culprits:
            hits.append((i, culprits))
    return tuple(after), hits


def _put(values: tuple, i: int, value) -> tuple:
    return values[:i] + (value,) + values[i + 1:]


def me_monitor(n: int, sessions: list, color):
    """Mutual exclusion.  State: each process's session while it is in the
    CS, else 0.  Culprits: the processes of another session in the CS
    when one enters."""
    def step(in_cs, ev):
        if not ev.markers:
            return in_cs, ()
        p = ev.pid - 1
        culprits = ()
        if CS_ENTER in ev.markers:
            s = sessions[p][ev.inv]
            culprits = [q + 1 for q, t in enumerate(in_cs) if t and t != s]
            in_cs = _put(in_cs, p, s)
        if CS_EXIT in ev.markers:
            in_cs = _put(in_cs, p, 0)
        return in_cs, culprits
    return ((0,) * n, step, lambda ev, pids: f"P{ev.pid} entered the CS while {pids} "
                                             "of another session were in it")


def fcfs_monitor(n: int, sessions: list, color):
    """First come, first served.  State: each process's session while it
    waits (doorway complete, CS not entered), else 0; and per process a
    bit mask of the conflicting processes that were waiting when its
    doorway began and have not entered since.  Culprits: the entering
    process's mask."""
    def step(state, ev):
        if not ev.markers:
            return state, ()
        waiting, masks = state
        p = ev.pid - 1
        culprits = ()
        if DOORWAY_START in ev.markers:
            s = sessions[p][ev.inv]
            masks = _put(masks, p, sum(1 << q for q, t in enumerate(waiting)
                                       if t and t != s))
        if DOORWAY_COMPLETE in ev.markers:
            waiting = _put(waiting, p, sessions[p][ev.inv])
        if CS_ENTER in ev.markers:
            culprits = [q + 1 for q in range(n) if masks[p] >> q & 1]
            waiting = _put(waiting, p, 0)
            keep = ~(1 << p)
            masks = tuple(0 if q == p else m & keep for q, m in enumerate(masks))
        return (waiting, masks), culprits
    return (((0,) * n, (0,) * n), step,
            lambda ev, pids: f"P{ev.pid} entered the CS overtaking {pids}")


def flip_monitor(n: int, sessions: list, color):
    """GlobalColor flips at most once inside any process's window, which
    opens at its line-5 read of GlobalColor and closes when its exit
    completes.  State: GlobalColor, and per process the flips inside its
    open window or -1.  Culprits: the processes a flip leaves with two."""
    def step(state, ev):
        gc, wins = state
        p = ev.pid - 1
        culprits = ()
        if ev.reg == "GlobalColor" and ev.kind == "write" and ev.value != gc:
            gc = ev.value
            wins = tuple(w + 1 if w >= 0 else w for w in wins)
            culprits = [q + 1 for q, w in enumerate(wins) if w >= 2]
        elif ev.reg == "GlobalColor" and ev.kind == "read" and ev.line == 5:
            wins = _put(wins, p, 0)
        elif EXIT_COMPLETE not in ev.markers:
            return state, ()
        if EXIT_COMPLETE in ev.markers:
            wins = _put(wins, p, -1)
        return (gc, wins), culprits
    return ((color, (-1,) * n), step,
            lambda ev, pids: f"second GlobalColor flip inside window of {pids}")


def token_bound_monitor(n: int, sessions: list, color):
    """Token numbers never exceed N+1.  Stateless.  Culprit: the process
    whose Token write carries a larger number."""
    def step(state, ev):
        over = (ev.kind == "write" and ev.reg and ev.reg.startswith("Token[")
                and token_number(ev.value) > n + 1)
        return state, [ev.pid] if over else ()
    return ((), step, lambda ev, pids: f"P{ev.pid} committed token number "
                                       f"{token_number(ev.value)} > {n + 1}")


ONLINE = {
    "me": me_monitor,
    "fcfs": fcfs_monitor,
    "flip": flip_monitor,
    "token_bound": token_bound_monitor,
}


def _online_pass(trace: Trace, records: list) -> tuple:
    """Step the online monitors that apply to the trace along it: the first
    violating event and its culprits per violated property, and, up to the
    first flip violation, the steps that flipped GlobalColor and the step
    each open window opened at.  `gmesim run` hands every monitor the same
    trace and records, so the pass is kept on the trace for those records."""
    if trace.online_pass is not None and trace.online_pass[0] is records:
        return trace.online_pass[1]
    props = [p for p in ONLINE if p in ("me", "fcfs") or trace.algorithm == "bwbgme"]
    states, steps, _ = zip(*(ONLINE[p](trace.n, trace.meta["workload_sessions"],
                                       trace.meta.get("initial_color")) for p in props))
    flip = props.index("flip") if "flip" in props else None
    first, flips, opened = {}, [], {}
    for ev in filter(monitored, trace.events):
        before = states
        states, hits = advance(steps, states, ev)
        if flip is not None and "flip" not in first and states[flip] is not before[flip]:
            gc, wins = states[flip]
            if gc != before[flip][0]:
                flips.append(ev.index)
            if wins[ev.pid - 1] < 0:
                opened.pop(ev.pid, None)
            else:
                opened.setdefault(ev.pid, ev.index)
        for i, culprits in hits:
            first.setdefault(props[i], (ev, culprits))
    trace.online_pass = (records, (first, flips, opened))
    return first, flips, opened


def _earliest(records: list, pids, mark: str, at: int) -> InvocationRecord:
    """Of each pid's latest invocation whose `mark` step is at or before
    step `at`, the one whose `mark` step came first."""
    latest = {}
    for r in records:
        step_at = getattr(r, mark)
        if r.pid in pids and step_at is not None and step_at <= at:
            latest[r.pid] = r
    return min(latest.values(), key=attrgetter(mark))


def check_mutual_exclusion(trace: Trace, records: list) -> Verdict:
    """No two conflicting invocations may overlap in the critical section.

    The witness is the first entry that breaks it, paired with the
    earliest-entered invocation of another session still in the CS.
    """
    hit = _online_pass(trace, records)[0].get("me")
    if hit is None:
        return Verdict("me", PASS)
    ev, culprits = hit
    a = _earliest(records, culprits, "ce", ev.index)
    b = _earliest(records, (ev.pid,), "ce", ev.index)
    return Verdict("me", FAIL, witness=(a.ce, b.ce, a.pid, b.pid),
                   detail=f"P{a.pid} (session {a.session}) and P{b.pid} "
                          f"(session {b.session}) overlap in the CS")


def check_fcfs(trace: Trace, records: list) -> Verdict:
    """A doorway-preceding conflicting invocation enters the CS first.

    The witness is the first entry that overtakes, paired with the
    overtaken invocation whose doorway completed first.
    """
    hit = _online_pass(trace, records)[0].get("fcfs")
    if hit is None:
        return Verdict("fcfs", PASS)
    ev, culprits = hit
    a = _earliest(records, culprits, "dc", ev.index)
    return Verdict("fcfs", FAIL, witness=(a.dc, ev.index, a.pid, ev.pid),
                   detail=f"P{a.pid} completed its doorway before P{ev.pid} "
                          f"started, yet P{ev.pid} entered the CS first")


def check_bounded_exit(trace: Trace, records: list) -> Verdict:
    """Exit sections finish in a bounded number of shared accesses.

    glb: exactly 2 writes; bl: exactly 1 write; bwbgme: at most N+2
    accesses (scan reads, at most one flip, token reset).
    """
    mode, bound = {"glb": ("exact", 2), "bl": ("exact", 1)}.get(
        trace.algorithm, ("atmost", trace.n + 2))
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

    The witness names the two flips and, of the processes whose window
    they both fall in, the one whose window opened first.
    """
    if trace.algorithm != "bwbgme":
        return Verdict("flip", INAPPLICABLE, detail="not a bwbgme trace")
    first, flips, opened = _online_pass(trace, records)
    if "flip" not in first:
        return Verdict("flip", PASS, detail=f"{len(flips)} flips observed")
    pid = min(first["flip"][1], key=opened.__getitem__)
    return Verdict("flip", FAIL, witness=(flips[-2], flips[-1], pid),
                   detail=f"GlobalColor flipped twice (steps {flips[-2]}, "
                          f"{flips[-1]}) inside P{pid}'s window")


def check_token_bound(trace: Trace, records: list) -> Verdict:
    """Committed token numbers never exceed N+1."""
    if trace.algorithm != "bwbgme":
        return Verdict("token-bound", INAPPLICABLE, detail="not a bwbgme trace")
    hit = _online_pass(trace, records)[0].get("token_bound")
    if hit is None:
        return Verdict("token-bound", PASS,
                       detail=f"max token number {max_token_number(records)}")
    ev = hit[0]
    return Verdict("token-bound", FAIL, witness=(ev.index, ev.pid),
                   detail=f"token number {token_number(ev.value)} > N+1 = {trace.n + 1}")


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
