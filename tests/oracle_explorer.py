"""Reference interleaver for the explorer: a plain breadth-first search.

`crosscheck_reachable` shares only the step semantics with
`gmesim.explorer.explore`: no monitor states, no parent edges, no caps
beyond a state budget.  It checks mutual exclusion and deadlock as
predicates on each reached state, deadlock by the hand-written wait
conditions (`oracle_scans`), so the tests can compare the explorer's
reachable value keys and verdicts with an independent search.
"""

from __future__ import annotations

from collections import deque

from gmesim.machine import Section, SystemState, Workload, step
from oracle_scans import all_active_blocked, live_pids


def crosscheck_reachable(spec, workload: Workload, *, max_states: int = 500_000,
                         take_step=step):
    """Independent breadth-first interleaver over the same step semantics.

    A plain frontier queue over value keys, checking only the state
    predicates.  take_step(state, pid) takes each step of each live
    process from each reached state; a test may pass one that checks
    the step it takes.  Returns (frozenset of value keys, me_violations,
    deadlocks).
    """
    work = SystemState(spec, workload)
    root = work.value_key()
    seen = {root}
    queue = deque([root])
    me_violations = 0
    deadlocks = 0

    def predicates(st: SystemState) -> tuple:
        sessions = {env.mysession for env in st.envs
                    if spec.pcs[env.pc][0] is Section.CS}
        return (len(sessions) > 1, all_active_blocked(st))

    me0, dl0 = predicates(work)
    me_violations += me0
    deadlocks += dl0

    while queue:
        vkey = queue.popleft()
        work.load_value_key(vkey)
        for pid in live_pids(work):
            work.load_value_key(vkey)
            take_step(work, pid)
            child = work.value_key()
            if child in seen:
                continue
            if len(seen) >= max_states:
                raise RuntimeError("crosscheck exceeded max_states")
            seen.add(child)
            me_bad, dl = predicates(work)
            me_violations += me_bad
            deadlocks += dl
            queue.append(child)
    return frozenset(seen), me_violations, deadlocks
