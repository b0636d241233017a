"""Property monitors: pure functions from a trace's context (algorithm,
n, meta) and its invocation fold to a verdict.

The caller folds the run's events once with `build_invocations`, the
one walk along them, which takes each event as `run` makes it; it hands
the same records to every monitor, as `monitor(trace, records)`.  No
monitor reads the events, rebuilds the fold or mutates the records, so
running a monitor twice on the same inputs always yields the same
verdict.  `CHECKS` names the monitors (`MONITORS`) each algorithm is
checked for.

Mutual exclusion, FCFS, the single GlobalColor flip and the N+1 token
bound are each defined once, as an online monitor (`ONLINE`): a small
hashable state and a step over events.  `advance` steps them together:
along a trace inside that walk, whose result their four checkers share,
each then taking its witness from what the walk kept at the first
violating event; and along every edge that `explore` takes, which keeps
their states in its key.  A failing verdict carries a witness naming the
event indices and processes that realize a violation; for these four
properties it is the first violating event in trace order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .errors import ConsistencyError
from .machine import (CS_ENTER, CS_EXIT, DOORWAY_COMPLETE, DOORWAY_START,
                      EXIT_COMPLETE, Section, Trace)

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

# Per-pass RMR ceilings: a single pass of the line for a fixed j may
# charge at most this many remote references under any schedule.
_PASS_RMR_BOUNDS = {"glb": {8: 5, 9: 5}, "bwbgme": {17: 5, 19: 2}}
_INF = float("inf")
# Bound once: every `Section.X` is a lookup on the enum class.
_DOORWAY, _WAITING, _EXIT = Section.DOORWAY, Section.WAITING, Section.EXIT
# The record field each marker's step index goes to.
_MARK_FIELDS = {DOORWAY_START: "ds", DOORWAY_COMPLETE: "dc", CS_ENTER: "ce",
                CS_EXIT: "cx", EXIT_COMPLETE: "xc"}


@dataclass
class Verdict:
    """Outcome of one property check over one trace."""

    status: str
    witness: Optional[tuple] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL


@dataclass
class WaitPass:
    """One stay at a wait line for a fixed j, until the condition passed.
    The fold keeps only each process's open pass; a record keeps its
    first pass over a ceiling (`over_ceiling`)."""

    line: int
    j: int
    start: int
    rmr: int = 0
    blocked: bool = False  # some evaluation came out false
    refetch: bool = False  # the last GlobalColor read was an RMR


@dataclass
class InvocationRecord:
    """Everything the monitors need about one invocation of one process.
    `token` is the largest token number its Token writes carried: the
    one it committed, as its doorway's and exit's Token writes carry 0.
    `blocked` counts its wait passes with a false evaluation, and
    `first_blocked` is the first one's (index, line, j) at that
    evaluation, or None.  `over_ceiling` is its first wait pass over its
    line's RMR ceiling, whose `rmr` goes on counting to the pass's end.
    `window` is the step its GlobalColor flip window opened at, or None."""

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
    token: int = 0
    blocked: int = 0
    first_blocked: Optional[tuple] = None
    over_ceiling: Optional[WaitPass] = None
    gc_spurious_refetches: int = 0
    window: Optional[int] = None

    @property
    def rmr_total(self) -> int:
        return sum(self.rmr_by_section.values())

    def rmr_in(self, section: Section) -> int:
        return self.rmr_by_section.get(section, 0)


class Invocations(list):
    """A run's invocation records, in order of their first step, and what
    the same walk along its events found besides: per violated online
    property, taken at its first violating event, that event, its
    process's record, the culprits' records and the step of the
    GlobalColor flip before the latest one (`first`); how often
    GlobalColor flipped (`flips`); and the index of the deadlock event,
    or None (`deadlock_at`)."""

    __slots__ = ("first", "flips", "deadlock_at")

    def __init__(self):
        super().__init__()
        self.first, self.flips, self.deadlock_at = {}, 0, None


def build_invocations(trace: Trace) -> Invocations:
    """Fold the trace's events into per-invocation records, stepping the
    algorithm's online monitors (`online_props`) along them in the same
    walk.  The events may be any iterable: a list, or the stream of a
    run that `run` has not made yet, which this walk then drives.
    A process's events reach its current record directly; only a change
    of invocation looks the record up by (pid, inv)."""
    n = trace.n
    workload_sessions = trace.meta["workload_sessions"]
    ceilings = _PASS_RMR_BOUNDS.get(trace.algorithm, {})

    props = online_props(trace.algorithm)
    states, steps, _ = zip(*(ONLINE[p](n, workload_sessions,
                                       trace.meta.get("initial_color")) for p in props))
    flip = props.index("flip") if "flip" in props else None

    order = Invocations()
    first = order.first
    last_flip = previous_flip = None
    records: dict = {}
    current = [None] * (n + 1)    # pid -> the record of its last event
    open_pass = [None] * (n + 1)  # pid -> its open wait pass, or None

    for ev in trace.events:
        index, pid, inv, line, kind, reg, value, rmr, section, markers, outcome, j = ev
        if pid == 0 or inv < 0:
            if kind == "deadlock":
                order.deadlock_at = index
            continue
        rec = current[pid]
        if rec is None or rec.inv != inv:
            rec = records.get((pid, inv))
            if rec is None:
                rec = records[pid, inv] = InvocationRecord(
                    pid=pid, inv=inv, session=workload_sessions[pid - 1][inv])
                order.append(rec)
            current[pid] = rec
        for marker in markers:
            setattr(rec, _MARK_FIELDS[marker], index)

        if monitored(ev):
            before = states
            states, hits = advance(steps, states, ev)
            if flip is not None and states[flip] is not before[flip]:
                (gc, wins), (gc_before, wins_before) = states[flip], before[flip]
                if gc != gc_before:
                    order.flips += 1
                    previous_flip, last_flip = last_flip, index
                if wins_before[pid - 1] < 0 <= wins[pid - 1]:
                    rec.window = index
            for i, culprits in hits:
                if props[i] not in first:
                    first[props[i]] = (ev, rec, [current[q] for q in culprits],
                                       previous_flip)
            if kind == "write" and reg.startswith("Token["):
                rec.token = max(rec.token, token_number(value))

        if rmr:
            by_section = rec.rmr_by_section
            by_section[section] = by_section.get(section, 0) + 1
        if section is _DOORWAY or section is _WAITING:
            rec.entry_steps += 1
        elif section is _EXIT and kind in ("read", "write"):
            rec.exit_accesses += 1

        # Wait passes: only the waiting room's polling events carry j, and
        # a process's events at one line for one j are consecutive among
        # its own events.  Each RMR a pass charges is checked against its
        # line's ceiling, if the line has one.  A GlobalColor read arms the
        # pass with its RMR, and a false evaluation after an armed read is
        # a spurious refetch.
        if j is not None:
            cur = open_pass[pid]
            if cur is None or cur.line != line or cur.j != j:
                cur = open_pass[pid] = WaitPass(line, j, index)
            if rmr:
                cur.rmr += 1
                if rec.over_ceiling is None and cur.rmr > ceilings.get(line, _INF):
                    rec.over_ceiling = cur
            if reg == "GlobalColor":
                cur.refetch = rmr
            if outcome == "fail":
                rec.gc_spurious_refetches += cur.refetch
                if not cur.blocked:
                    cur.blocked = True
                    rec.first_blocked = rec.first_blocked or (index, line, j)
                    rec.blocked += 1
            elif outcome == "pass":
                open_pass[pid] = None
        else:
            open_pass[pid] = None

    return order


def token_number(value) -> int:
    """The number a Token write carries: a bwbgme token is a (session,
    color, number) triple, a glb token is the number itself."""
    return value[2] if isinstance(value, tuple) else value


def max_token_number(records: list) -> int:
    """The largest token number a Token register held during the run."""
    return max((r.token for r in records), default=0)


# -- online monitors ----------------------------------------------------
#
# Called with (n, workload sessions per process, initial GlobalColor), a
# monitor returns a hashable start state, step(state, ev) -> (state,
# culprits), culprits being the pids ev violates the property against,
# and describe(ev, culprits), how an explored edge that violates it
# reads.  Each reads the event's fields by position (`TraceEvent`): pid
# 1, inv 2, line 3, kind 4, reg 5, value 6, markers 9.  A state is a
# function of the explorer's value key plus the obligations it tracks
# (FCFS masks, flip windows), so carrying it in the key never splits a
# state the explorer would merge.


def monitored(ev) -> bool:
    """Whether ev can move an online monitor: it has markers, touches
    GlobalColor or writes a Token.  Monitors are stepped only over these."""
    reg = ev[5]
    return bool(ev[9] or reg == "GlobalColor" or ev[4] == "write" and reg.startswith("Token["))


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
        markers = ev[9]
        if not markers:
            return in_cs, ()
        p = ev[1] - 1
        culprits = ()
        if CS_ENTER in markers:
            s = sessions[p][ev[2]]
            culprits = [q + 1 for q, t in enumerate(in_cs) if t and t != s]
            in_cs = _put(in_cs, p, s)
        if CS_EXIT in markers:
            in_cs = _put(in_cs, p, 0)
        return in_cs, culprits
    return ((0,) * n, step, lambda ev, pids: f"P{ev[1]} entered the CS while {pids} "
                                             "of another session were in it")


def fcfs_monitor(n: int, sessions: list, color):
    """First come, first served.  State: each process's session while it
    waits (doorway complete, CS not entered), else 0; and per process a
    bit mask of the conflicting processes that were waiting when its
    doorway began and have not entered since.  Culprits: the entering
    process's mask."""
    def step(state, ev):
        markers = ev[9]
        if not markers:
            return state, ()
        waiting, masks = state
        p = ev[1] - 1
        culprits = ()
        if DOORWAY_START in markers:
            s = sessions[p][ev[2]]
            masks = _put(masks, p, sum(1 << q for q, t in enumerate(waiting)
                                       if t and t != s))
        if DOORWAY_COMPLETE in markers:
            waiting = _put(waiting, p, sessions[p][ev[2]])
        if CS_ENTER in markers:
            culprits = [q + 1 for q in range(n) if masks[p] >> q & 1]
            waiting = _put(waiting, p, 0)
            keep = ~(1 << p)
            masks = tuple(0 if q == p else m & keep for q, m in enumerate(masks))
        return (waiting, masks), culprits
    return (((0,) * n, (0,) * n), step,
            lambda ev, pids: f"P{ev[1]} entered the CS overtaking {pids}")


def flip_monitor(n: int, sessions: list, color):
    """GlobalColor flips at most once inside any process's window, which
    opens at its line-5 read of GlobalColor and closes when its exit
    completes.  State: GlobalColor, and per process the flips inside its
    open window or -1.  Culprits: the processes a flip leaves with two."""
    def step(state, ev):
        gc, wins = state
        _, pid, _, line, kind, reg, value, _, _, markers, _, _ = ev
        p = pid - 1
        culprits = ()
        if reg == "GlobalColor" and kind == "write" and value != gc:
            gc = value
            wins = tuple(w + 1 if w >= 0 else w for w in wins)
            culprits = [q + 1 for q, w in enumerate(wins) if w >= 2]
        elif reg == "GlobalColor" and kind == "read" and line == 5:
            wins = _put(wins, p, 0)
        elif EXIT_COMPLETE not in markers:
            return state, ()
        if EXIT_COMPLETE in markers:
            wins = _put(wins, p, -1)
        return (gc, wins), culprits
    return ((color, (-1,) * n), step,
            lambda ev, pids: f"second GlobalColor flip inside window of {pids}")


def token_bound_monitor(n: int, sessions: list, color):
    """Token numbers never exceed N+1.  Stateless.  Culprit: the process
    whose Token write carries a larger number."""
    def step(state, ev):
        reg = ev[5]
        over = (ev[4] == "write" and reg and reg.startswith("Token[")
                and token_number(ev[6]) > n + 1)
        return state, [ev[1]] if over else ()
    return ((), step, lambda ev, pids: f"P{ev[1]} committed token number "
                                       f"{token_number(ev[6])} > {n + 1}")


ONLINE = {
    "me": me_monitor,
    "fcfs": fcfs_monitor,
    "flip": flip_monitor,
    "token_bound": token_bound_monitor,
}


def check_mutual_exclusion(trace: Trace, records: list) -> Verdict:
    """No two conflicting invocations may overlap in the critical section.

    The witness is the first entry that breaks it, paired with the
    earliest-entered invocation of another session still in the CS.
    """
    hit = records.first.get("me")
    if hit is None:
        return Verdict(PASS)
    _, b, culprits, _ = hit
    a = min(culprits, key=attrgetter("ce"))
    return Verdict(FAIL, witness=(a.ce, b.ce, a.pid, b.pid),
                   detail=f"P{a.pid} (session {a.session}) and P{b.pid} "
                          f"(session {b.session}) overlap in the CS")


def check_fcfs(trace: Trace, records: list) -> Verdict:
    """A doorway-preceding conflicting invocation enters the CS first.

    The witness is the first entry that overtakes, paired with the
    overtaken invocation whose doorway completed first.
    """
    hit = records.first.get("fcfs")
    if hit is None:
        return Verdict(PASS)
    ev, _, culprits, _ = hit
    index, pid = ev[0], ev[1]
    a = min(culprits, key=attrgetter("dc"))
    return Verdict(FAIL, witness=(a.dc, index, a.pid, pid),
                   detail=f"P{a.pid} completed its doorway before P{pid} "
                          f"started, yet P{pid} entered the CS first")


def check_bounded_exit(trace: Trace, records: list) -> Verdict:
    """Exit sections finish in a bounded number of shared accesses.

    glb: exactly 2 writes; bl: exactly 1 write; bwbgme: at most N+2
    accesses (scan reads, at most one flip, token reset).
    """
    mode, bound = {"glb": ("exact", 2), "bl": ("exact", 1)}.get(
        trace.algorithm, ("atmost", trace.n + 2))
    for rec in records:
        if rec.exit_accesses > bound:
            return Verdict(FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: {rec.exit_accesses} "
                                  f"exit accesses > {bound}")
        if mode == "exact" and rec.xc is not None and rec.exit_accesses != bound:
            return Verdict(FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: {rec.exit_accesses} "
                                  f"exit accesses, expected exactly {bound}")
    return Verdict(PASS)


def check_concurrent_entry(trace: Trace, records: list) -> Verdict:
    """With a single session in play, no entry wait may ever come out false."""
    if len(trace.meta["sessions"]) > 1:
        return Verdict(INAPPLICABLE, detail="workload uses more than one session")
    for rec in records:
        if rec.first_blocked is not None:
            step, line, j = rec.first_blocked
            return Verdict(FAIL, witness=(step, rec.pid),
                           detail=f"P{rec.pid} waited at line {line} on P{j} "
                                  "despite a conflict-free workload")
    return Verdict(PASS)


def check_flip_invariant(trace: Trace, records: list) -> Verdict:
    """GlobalColor flips at most once inside any process's open window.

    The witness names the two flips and, of the processes whose window
    they both fall in, the one whose window opened first.
    """
    hit = records.first.get("flip")
    if hit is None:
        return Verdict(PASS, detail=f"{records.flips} flips observed")
    ev, _, culprits, previous = hit
    pid = min(culprits, key=attrgetter("window")).pid
    return Verdict(FAIL, witness=(previous, ev[0], pid),
                   detail=f"GlobalColor flipped twice (steps {previous}, "
                          f"{ev[0]}) inside P{pid}'s window")


def check_token_bound(trace: Trace, records: list) -> Verdict:
    """Committed token numbers never exceed N+1."""
    hit = records.first.get("token_bound")
    if hit is None:
        return Verdict(PASS, detail=f"max token number {max_token_number(records)}")
    ev = hit[0]
    return Verdict(FAIL, witness=(ev[0], ev[1]),
                   detail=f"token number {token_number(ev[6])} > N+1 = {trace.n + 1}")


def check_progress(trace: Trace, records: list) -> Verdict:
    """Deadlock and (heuristic) starvation detection.

    Starvation is flagged when an invocation finished its doorway, never
    entered the CS, and at least two invocations of other processes ran
    to completion after that doorway ended.  This is a bounded heuristic
    under a fair schedule, not a liveness proof.
    """
    if records.deadlock_at is not None:
        return Verdict(FAIL, witness=(records.deadlock_at,),
                       detail="deadlock: every active process is blocked")
    for rec in records:
        if rec.dc is None or rec.ce is not None:
            continue
        overtaken = sum(1 for other in records
                        if other.pid != rec.pid and other.xc is not None
                        and other.xc > rec.dc)
        if overtaken >= 2:
            return Verdict(FAIL, witness=(rec.dc, rec.pid),
                           detail=f"starvation: P{rec.pid} inv {rec.inv} never entered "
                                  f"the CS while {overtaken} later invocations completed")
    return Verdict(PASS)


def check_wait_rmr_bounds(trace: Trace, records: list) -> Verdict:
    """Per-pass RMR ceilings on the wait lines, from the ledger.

    glb: one pass of line 8 or line 9 for a fixed j costs at most 5 RMR.
    bwbgme: line 17 at most 5, line 19 at most 2; additionally the
    spurious GlobalColor refetches while blocked at line 21 stay below N
    per invocation (amortized bound N-1).  The fold decides both as it
    walks; no wait line of glb reads GlobalColor.
    """
    for rec in records:
        wp = rec.over_ceiling
        if wp is not None:
            return Verdict(FAIL, witness=(wp.start, rec.pid),
                           detail=f"P{rec.pid} inv {rec.inv}: line {wp.line} pass "
                                  f"for j={wp.j} cost {wp.rmr} RMR > "
                                  f"{_PASS_RMR_BOUNDS[trace.algorithm][wp.line]}")
        if rec.gc_spurious_refetches > trace.n - 1:
            return Verdict(FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: {rec.gc_spurious_refetches} "
                                  f"spurious GlobalColor refetches > N-1")
    return Verdict(PASS)


def check_section_order(trace: Trace, records: list) -> Verdict:
    """Markers appear in invocation order: ds <= dc < ce <= cx <= xc."""
    for rec in records:
        seq = [rec.ds, rec.dc, rec.ce, rec.cx, rec.xc]
        present = [x for x in seq if x is not None]
        if present != sorted(present):
            return Verdict(FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: markers out of order {seq}")
        # A later marker must not exist without the earlier ones.
        if seq[:len(present)] != present:
            return Verdict(FAIL, witness=(rec.pid, rec.inv),
                           detail=f"P{rec.pid} inv {rec.inv}: marker gap {seq}")
    return Verdict(PASS)


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

# The one table of what each algorithm is checked for: `run` prints
# these verdicts in this order, and the fold and the explorer step the
# online ones among them (`online_props`).  bl is not FCFS and has no
# GlobalColor, tokens or per-line RMR ceilings.
CHECKS = {
    "glb": ("me", "fcfs", "bounded_exit", "concurrent_entry", "progress",
            "wait_rmr", "section_order"),
    "bwbgme": ("me", "fcfs", "bounded_exit", "concurrent_entry", "flip",
               "token_bound", "progress", "wait_rmr", "section_order"),
    "bl": ("me", "bounded_exit", "progress", "section_order"),
}


def online_props(algorithm: str) -> tuple:
    """The checks of `algorithm` that have an online monitor, in table order."""
    return tuple(p for p in CHECKS[algorithm] if p in ONLINE)
