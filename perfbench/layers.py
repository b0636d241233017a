"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces public functions of the gmesim modules with
wrappers that record one span per call: name, parent span, start and end
(``perf_counter_ns``).  Spans live in flat arrays while the traced jobs
run, are written out at the end, and give each layer's self time as a
span's duration minus the durations of its child spans.

``LAYER_METRICS`` names every per-layer metric with the end-to-end metric
and workload it should move; ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# name -> the end-to-end metric and workload it should move.  Units and
# directions are in BENCHMARK.json.
LAYER_METRICS = {
    "memory.reads": "read/write mix; run_wide vs run_long",
    "memory.read_hits": "read/write mix; run_wide vs run_long",
    "memory.writes": "read/write mix; run_wide vs run_long",
    "memory.hit_ratio": "read/write mix; run_wide vs run_long",
    "memory.read_slot_ns": "steps_per_s, mostly run_long",
    "memory.write_slot_ns": "steps_per_s, mostly run_long",
    "memory.check_coherence_s": "steps_per_s: a lot on run_wide, a little on run_long "
                                "and on explore_n3",
    "memory.check_coherence_share": "as memory.check_coherence_s",
    "memory.rmr_total": "exact simulated count; must not move",
    "schedules.next_s": "steps_per_s on run_wide; little on run_long",
    "schedules.next_ns": "steps_per_s on run_wide; little on run_long",
    "machine.step_self_s": "steps_per_s on every workload",
    "machine.run_self_s": "steps_per_s on run_wide and run_long",
    "machine.live_pids_s": "steps_per_s on run_wide",
    "machine.all_active_blocked_s": "steps_per_s on every workload",
    "machine.steps": "exact simulated count; must not move",
    "glb.step_fn_ns": "steps_per_s, slightly, on every workload",
    "bwbgme.step_fn_ns": "steps_per_s, slightly, on every workload",
    "monitors.build_invocations_calls": "job_s_p50 on run_long",
    "monitors.build_invocations_s": "steps_per_s and job_s_p50 on run_long",
    "monitors.me_s": "job_s_p50 on run_long",
    "monitors.fcfs_s": "job_s_p50 on run_long",
    "monitors.bounded_exit_s": "job_s_p50 on run_long",
    "monitors.concurrent_entry_s": "job_s_p50 on run_long",
    "monitors.flip_s": "job_s_p50 on run_long",
    "monitors.token_bound_s": "job_s_p50 on run_long",
    "monitors.progress_s": "job_s_p50 on run_long",
    "monitors.wait_rmr_s": "job_s_p50 on run_long",
    "monitors.section_order_s": "job_s_p50 on run_long",
    "monitors.share": "steps_per_s and job_s_p50 on run_long",
    "explorer.states": "exact count; must not move",
    "explorer.transitions": "exact count; must not move",
    "explorer.new_state_ratio": "steps_per_s on explore_n3",
    "explorer.load_value_key_s": "steps_per_s on explore_n3",
    "explorer.value_key_s": "steps_per_s on explore_n3",
    "explorer.step_s": "steps_per_s on explore_n3",
    "explorer.self_s": "steps_per_s on explore_n3",
    "explorer.bytes_per_state": "peak_rss_mb on explore_n3",
    "scenario.load_s": "setup_s and job_s_p50, slightly",
    "cli.self_s": "job_s_p50 on every workload",
    "trace.overhead_s": "none: cost of tracing itself",
    "trace.overhead_ratio": "none: cost of tracing itself",
}

MONITOR_NAMES = ("me", "fcfs", "bounded_exit", "concurrent_entry", "flip",
                 "token_bound", "progress", "wait_rmr", "section_order")


class Spans:
    """Flat columns of spans; the open-span stack gives each new span its parent."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.read_hits = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def wrap_read(self, fn):
        """Memory.read_slot, also counting hits (reads that cost no RMR)."""
        inner = self.wrap("memory.read_slot", fn)

        def traced(*args):
            result = inner(*args)
            if not result[1]:
                self.read_hits += 1
            return result

        return traced

    def __len__(self):
        return len(self.start)

    def write(self, path, record: dict) -> None:
        header = {"format": "gmesim-perfbench-spans v1", "count": len(self),
                  "names": self.names, "byteorder": sys.byteorder,
                  "columns": [["name", "H"], ["parent", "i"],
                              ["start_ns", "q"], ["end_ns", "q"]],
                  "record": record}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)


def read_spans(path) -> Spans:
    """Load a file written by Spans.write (same byte order)."""
    spans = Spans()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name in header["names"]:
            spans.intern(name)
        for col in (spans.name, spans.parent, spans.start, spans.end):
            col.fromfile(fh, header["count"])
    return spans


class Tracer:
    """Installs span wrappers on the gmesim modules and removes them again."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self._saved: list = []

    def _patch(self, owner, attr: str, wrapped) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = wrapped
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        from gmesim import cli, explorer, machine, memory, monitors, scenario, schedules
        sp = self.spans
        wrap = sp.wrap

        self._patch(cli, "main", wrap("cli.main", cli.main))
        self._patch(cli, "load_scenario", wrap("scenario.load_scenario", cli.load_scenario))
        self._patch(cli, "run", wrap("machine.run", cli.run))
        self._patch(cli, "explore", wrap("explorer.explore", cli.explore))
        self._patch(cli, "check_implications",
                    wrap("monitors.check_implications", cli.check_implications))
        fold = wrap("monitors.build_invocations", monitors.build_invocations)
        self._patch(cli, "build_invocations", fold)
        self._patch(monitors, "build_invocations", fold)
        for name in MONITOR_NAMES:
            self._patch(monitors.MONITORS, name, wrap(f"monitors.{name}", monitors.MONITORS[name]))

        step = wrap("machine.step", machine.step)
        blocked = wrap("machine.all_active_blocked", machine.all_active_blocked)
        for module in (machine, explorer):
            self._patch(module, "step", step)
            self._patch(module, "all_active_blocked", blocked)
        state = machine.SystemState
        self._patch(state, "live_pids", wrap("machine.live_pids", state.live_pids))
        self._patch(state, "load_value_key",
                    wrap("explorer.load_value_key", state.load_value_key))
        self._patch(state, "value_key", wrap("explorer.value_key", state.value_key))
        self._patch(schedules.RandomSchedule, "next",
                    wrap("schedules.next", schedules.RandomSchedule.next))

        mem = memory.Memory
        self._patch(mem, "read_slot", sp.wrap_read(mem.read_slot))
        self._patch(mem, "write_slot", wrap("memory.write_slot", mem.write_slot))
        self._patch(mem, "check_coherence", wrap("memory.check_coherence", mem.check_coherence))

        build_spec = scenario.Scenario.build_spec

        def traced_build_spec(sc):
            spec = build_spec(sc)
            spec.step_fn = wrap(f"{spec.name}.step_fn", spec.step_fn)
            return spec

        self._patch(scenario.Scenario, "build_spec", traced_build_spec)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def self_times(spans: Spans) -> array:
    """Each span's duration minus the durations of its direct children."""
    own = array("q", (e - s for s, e in zip(spans.start, spans.end)))
    for dur, parent in zip(array("q", own), spans.parent):
        if parent >= 0:
            own[parent] -= dur
    return own


def layer_metrics(spans: Spans) -> dict:
    """Per-layer metrics over every span recorded (the traced jobs)."""
    own = self_times(spans)
    ids = {name: i for i, name in enumerate(spans.names)}
    count = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    explore_step_ns = 0
    top_monitor_ns = 0
    explore_id = ids.get("explorer.explore", -1)
    main_id = ids.get("cli.main", -1)
    step_id = ids.get("machine.step", -1)
    for nid, parent, s, e, o in zip(spans.name, spans.parent, spans.start, spans.end, own):
        count[nid] += 1
        total_ns[nid] += e - s
        self_ns[nid] += o
        if parent >= 0:
            pname = spans.name[parent]
            if nid == step_id and pname == explore_id:
                explore_step_ns += e - s
            elif pname == main_id and spans.names[nid].startswith("monitors."):
                top_monitor_ns += e - s

    def n(name):
        return count.get(ids.get(name, -1), 0)

    def secs(name, table=total_ns):
        return table.get(ids.get(name, -1), 0) / 1e9

    def per_call_ns(name, table=total_ns):
        calls = n(name)
        return table.get(ids.get(name, -1), 0) / calls if calls else 0.0

    def share(part_s, whole_s):
        return part_s / whole_s if whole_s else 0.0

    job_s = secs("cli.main")
    reads = n("memory.read_slot")
    writes = n("memory.write_slot")
    out = {
        "memory.reads": reads,
        "memory.read_hits": spans.read_hits,
        "memory.writes": writes,
        "memory.hit_ratio": share(spans.read_hits, reads),
        "memory.read_slot_ns": per_call_ns("memory.read_slot"),
        "memory.write_slot_ns": per_call_ns("memory.write_slot"),
        "memory.check_coherence_s": secs("memory.check_coherence"),
        "memory.check_coherence_share": share(secs("memory.check_coherence"), job_s),
        "memory.rmr_total": reads - spans.read_hits + writes,
        "schedules.next_s": secs("schedules.next"),
        "schedules.next_ns": per_call_ns("schedules.next"),
        "machine.step_self_s": secs("machine.step", self_ns),
        "machine.run_self_s": secs("machine.run", self_ns),
        "machine.live_pids_s": secs("machine.live_pids"),
        "machine.all_active_blocked_s": secs("machine.all_active_blocked"),
        "machine.steps": n("machine.step"),
        "glb.step_fn_ns": per_call_ns("glb.step_fn", self_ns),
        "bwbgme.step_fn_ns": per_call_ns("bwbgme.step_fn", self_ns),
        "monitors.build_invocations_calls": n("monitors.build_invocations"),
        "monitors.build_invocations_s": secs("monitors.build_invocations"),
        "monitors.share": share(top_monitor_ns / 1e9, job_s),
        "explorer.load_value_key_s": secs("explorer.load_value_key"),
        "explorer.value_key_s": secs("explorer.value_key"),
        "explorer.step_s": explore_step_ns / 1e9,
        "explorer.self_s": secs("explorer.explore", self_ns),
        "scenario.load_s": secs("scenario.load_scenario"),
        "cli.self_s": secs("cli.main", self_ns),
    }
    for name in MONITOR_NAMES:
        # Self time: the invocation fold each monitor rebuilds is
        # reported once, as monitors.build_invocations_s.
        out[f"monitors.{name}_s"] = secs(f"monitors.{name}", self_ns)
    return out
