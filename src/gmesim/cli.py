"""Batch front end: run, explore, and sweep commands.

Exit status: 0 all checks pass, 1 property violation or deadlock,
2 usage or scenario parse error, 3 a cap truncated the result.

CSV schemas (stable, one header row per file):

run --csv-out, one row per invocation:
    config_hash, algorithm, n, seed, pid, inv, session,
    rmr_doorway, rmr_waiting, rmr_exit, rmr_total,
    entry_steps, exit_accesses, blocked, completed

sweep --csv-out (random schedules), one row per (algorithm, n):
    config_hash, algorithm, n, seeds, invocations,
    max_inv_rmr, mean_inv_rmr, max_doorway_rmr, max_waiting_rmr,
    max_exit_rmr, runs

sweep --csv-out (adversarial bl), one row per n:
    config_hash, algorithm, n, total_rmr, pn_blocks, events
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .burns_lamport import block_events
from .errors import ConfigurationError, ScenarioError
from .explorer import explore
from .machine import Section, SystemState, Trace, Workload, run
from .monitors import FAIL, build_invocations, check_implications, max_token_number
from .scenario import Scenario, load_scenario
from .schedules import bl_adversarial_schedule, bl_adversarial_workload, random_schedule

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _percent_stats(values) -> dict:
    values = list(values)
    if not values:
        return {"min": 0, "mean": 0.0, "max": 0}
    return {"min": min(values), "mean": sum(values) / len(values), "max": max(values)}


def _rmr_stats(records) -> dict:
    out = {}
    for label, section in (("doorway", Section.DOORWAY), ("waiting", Section.WAITING),
                           ("exit", Section.EXIT)):
        out[label] = _percent_stats(r.rmr_in(section) for r in records)
    out["total"] = _percent_stats(r.rmr_total for r in records)
    return out


def _write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        meta = dict(trace.meta)
        meta.pop("completed", None)
        header = {"record": "header", "algorithm": trace.algorithm, "n": trace.n,
                  "meta": meta}
        fh.write(json.dumps(header) + "\n")
        for ev in trace.events:
            fh.write(json.dumps({
                "record": "event", "index": ev.index, "pid": ev.pid, "inv": ev.inv,
                "line": ev.line, "kind": ev.kind, "reg": ev.reg, "value": ev.value,
                "rmr": ev.rmr, "section": ev.section.value,
                "markers": list(ev.markers), "outcome": ev.outcome, "j": ev.j,
            }) + "\n")


def _write_run_csv(path: str, scenario: Scenario, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["config_hash", "algorithm", "n", "seed", "pid", "inv", "session",
                    "rmr_doorway", "rmr_waiting", "rmr_exit", "rmr_total",
                    "entry_steps", "exit_accesses", "blocked", "completed"])
        config_hash = scenario.config_hash
        for r in records:
            w.writerow([config_hash, scenario.algorithm, scenario.n,
                        scenario.seed, r.pid, r.inv, r.session,
                        r.rmr_in(Section.DOORWAY), r.rmr_in(Section.WAITING),
                        r.rmr_in(Section.EXIT), r.rmr_total, r.entry_steps,
                        r.exit_accesses, len(r.blocked_transitions),
                        int(r.xc is not None)])


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    if args.steps is not None:
        scenario.step_cap = args.steps

    spec = scenario.build_spec()
    workload = scenario.build_workload()
    schedule = scenario.build_schedule()
    state = SystemState(spec, workload)
    result = run(state, schedule, step_cap=scenario.step_cap)
    trace = result.trace
    trace.meta["seed"] = scenario.seed

    records = build_invocations(trace)
    verdicts = {}
    for name, monitor in scenario.build_monitors():
        verdicts[name] = monitor(trace, records)
    check_implications(verdicts, trace)

    if args.trace_out:
        _write_trace(trace, args.trace_out)
    if args.csv_out:
        _write_run_csv(args.csv_out, scenario, records)

    print(f"scenario {scenario.config_hash}  algorithm={scenario.algorithm} "
          f"n={scenario.n} schedule={scenario.schedule} seed={scenario.seed}")
    print(f"steps={len(trace.events)} completed={result.completed} "
          f"deadlocked={result.deadlocked} cap_hit={result.cap_hit}")
    for name, verdict in verdicts.items():
        mark = verdict.status.upper()
        extra = f"  ({verdict.detail})" if verdict.detail else ""
        if verdict.status == FAIL and verdict.witness:
            extra += f"  witness={verdict.witness}"
        print(f"  {name:<18} {mark}{extra}")
    stats = _rmr_stats(records)
    for label in ("doorway", "waiting", "exit", "total"):
        s = stats[label]
        print(f"  rmr/{label:<12} min={s['min']} mean={s['mean']:.1f} max={s['max']}")
    if scenario.algorithm in ("glb", "bwbgme"):
        print(f"  max token number   {max_token_number(records)}")
    if scenario.algorithm == "bl":
        totals, _ = block_events(trace)
        per = " ".join(f"P{pid}={cnt}" for pid, cnt in sorted(totals.items()))
        print(f"  block counts       {per}")
    if args.trace_out:
        print(f"  trace              {args.trace_out}")

    if any(v.status == FAIL for v in verdicts.values()) or result.deadlocked:
        return EXIT_VIOLATION
    if result.cap_hit:
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_explore(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.max_states is not None:
        scenario.max_states = args.max_states
    if args.max_depth is not None:
        scenario.max_depth = args.max_depth

    spec = scenario.build_spec()
    workload = scenario.build_workload()
    report = explore(spec, workload, max_states=scenario.max_states,
                     max_depth=scenario.max_depth, token_cap=scenario.token_cap)

    print(f"scenario {scenario.config_hash}  algorithm={scenario.algorithm} "
          f"n={scenario.n} explore")
    print(f"  states={report.states} transitions={report.transitions} "
          f"max_depth={report.max_depth} truncated={report.truncated}")
    if scenario.algorithm in ("glb", "bwbgme"):
        print(f"  max token number {report.max_token}")
    for prop in sorted(report.violations):
        for v in report.violations[prop]:
            print(f"  VIOLATION {prop}: {v.detail}")
            print(f"    replay: {' '.join(map(str, v.path))}")
    print(f"  deadlock states: {report.deadlocks}")

    if report.violation_count() or report.deadlocks:
        return EXIT_VIOLATION
    if report.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK


def _sweep_config_hash(scenario: Scenario, seeds: int) -> str:
    """Hash of a random sweep row: its seed-0 scenario plus the seed count.

    The scenario carries every other input of the row's runs (sessions
    and invocations, cs_steps, the resolved fairness window, the step
    cap), so two sweeps share a hash only if they ran the same jobs.
    """
    text = f"{scenario.canonical_text()}\nseeds = {seeds}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _sweep_one(task) -> dict:
    algorithm, n, seed, invocations, cs_steps, window, step_cap = task
    scenario = Scenario(algorithm=algorithm, n=n)
    spec = scenario.build_spec()
    workload = Workload.uniform(n, lambda pid: pid, invocations=invocations,
                                cs_steps=cs_steps)
    schedule = random_schedule(n, seed, window)
    state = SystemState(spec, workload)
    result = run(state, schedule, step_cap=step_cap)
    records = build_invocations(result.trace)
    return {
        "n": n, "seed": seed, "completed": result.completed,
        "inv_rmr": [r.rmr_total for r in records],
        "doorway": [r.rmr_in(Section.DOORWAY) for r in records],
        "waiting": [r.rmr_in(Section.WAITING) for r in records],
        "exit": [r.rmr_in(Section.EXIT) for r in records],
    }


def cmd_sweep(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    for flag in ("seeds", "invocations"):
        if getattr(args, flag) < 1:
            raise ConfigurationError(f"--{flag} must be >= 1")
    if args.fairness_window is not None and sizes and args.fairness_window < max(sizes):
        raise ConfigurationError(f"--fairness-window {args.fairness_window} < n={max(sizes)}")
    rows = []
    truncated = False

    if args.schedule == "adversarial":
        if args.algorithm != "bl":
            print("adversarial sweeps only drive bl", file=sys.stderr)
            return EXIT_USAGE
        for n in sizes:
            schedule = bl_adversarial_schedule(n, cs_steps=args.cs_steps)
            workload = bl_adversarial_workload(n, cs_steps=args.cs_steps)
            scenario = Scenario(algorithm="bl", n=n, schedule="adversarial",
                                cs_steps=args.cs_steps, step_cap=args.steps)
            from .burns_lamport import build_bl
            state = SystemState(build_bl(n), workload)
            result = run(state, schedule, step_cap=args.steps)
            totals, _ = block_events(result.trace)
            row = {
                "config_hash": scenario.config_hash, "algorithm": "bl", "n": n,
                "total_rmr": sum(result.rmr_totals), "pn_blocks": totals[n],
                "events": len(result.trace.events),
            }
            rows.append(row)
            print(f"bl adversarial n={n}: total_rmr={row['total_rmr']} "
                  f"P{n}_blocks={row['pn_blocks']}")
        header = ["config_hash", "algorithm", "n", "total_rmr", "pn_blocks", "events"]
    else:
        for n in sizes:
            window = 4 * n if args.fairness_window is None else args.fairness_window
            tasks = [(args.algorithm, n, seed, args.invocations, args.cs_steps,
                      window, args.steps) for seed in range(args.seeds)]
            if args.workers > 1:
                with ProcessPoolExecutor(max_workers=args.workers) as pool:
                    results = list(pool.map(_sweep_one, tasks))
            else:
                results = [_sweep_one(t) for t in tasks]
            inv_rmr = [v for r in results for v in r["inv_rmr"]]
            if not all(r["completed"] for r in results):
                truncated = True
            scenario = Scenario(
                algorithm=args.algorithm, n=n, schedule="random",
                sessions={pid: [pid] * args.invocations for pid in range(1, n + 1)},
                fairness_window=window, cs_steps=args.cs_steps, step_cap=args.steps)
            row = {
                "config_hash": _sweep_config_hash(scenario, args.seeds),
                "algorithm": args.algorithm,
                "n": n, "seeds": args.seeds, "invocations": args.invocations,
                "max_inv_rmr": max(inv_rmr) if inv_rmr else 0,
                "mean_inv_rmr": round(sum(inv_rmr) / len(inv_rmr), 2) if inv_rmr else 0,
                "max_doorway_rmr": max((v for r in results for v in r["doorway"]), default=0),
                "max_waiting_rmr": max((v for r in results for v in r["waiting"]), default=0),
                "max_exit_rmr": max((v for r in results for v in r["exit"]), default=0),
                "runs": len(results),
            }
            rows.append(row)
            print(f"{args.algorithm} n={n}: max_inv_rmr={row['max_inv_rmr']} "
                  f"mean_inv_rmr={row['mean_inv_rmr']}")
        header = ["config_hash", "algorithm", "n", "seeds", "invocations",
                  "max_inv_rmr", "mean_inv_rmr", "max_doorway_rmr",
                  "max_waiting_rmr", "max_exit_rmr", "runs"]
        for prev, cur in zip(rows, rows[1:]):
            if prev["max_inv_rmr"]:
                ratio = cur["max_inv_rmr"] / prev["max_inv_rmr"]
                print(f"  doubling ratio n={prev['n']}->{cur['n']}: {ratio:.2f}")

    if args.csv_out:
        with open(args.csv_out, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=header)
            w.writeheader()
            w.writerows(rows)
    return EXIT_TRUNCATED if truncated else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmesim",
        description="Simulate and check group mutual exclusion algorithms "
                    "under the cache-coherent cost model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and check properties")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--csv-out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_exp = sub.add_parser("explore", help="exhaustively explore all interleavings")
    p_exp.add_argument("--scenario", required=True)
    p_exp.add_argument("--max-states", type=int, default=None)
    p_exp.add_argument("--max-depth", type=int, default=None)
    p_exp.set_defaults(fn=cmd_explore)

    p_sw = sub.add_parser("sweep", help="RMR scaling sweep across N and seeds")
    p_sw.add_argument("--algorithm", required=True, choices=("glb", "bwbgme", "bl"))
    p_sw.add_argument("--sizes", default="4,8,16")
    p_sw.add_argument("--seeds", type=int, default=50)
    p_sw.add_argument("--invocations", type=int, default=2)
    p_sw.add_argument("--cs-steps", type=int, default=1)
    p_sw.add_argument("--schedule", default="random", choices=("random", "adversarial"))
    p_sw.add_argument("--fairness-window", type=int, default=None)
    p_sw.add_argument("--steps", type=int, default=1_000_000)
    p_sw.add_argument("--csv-out", default=None)
    p_sw.add_argument("--workers", type=int, default=1)
    p_sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
