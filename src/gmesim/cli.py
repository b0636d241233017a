"""Batch front end: run, explore, and sweep commands.

Exit status: 0 all checks pass, 1 property violation or deadlock,
2 usage or scenario parse error, or a path that cannot be read or
written (a missing file, a directory, a closed standard output), 3 the
run or search stopped early.

The CSV schemas are stable: one header row per file, naming the
columns each writer below writes (README, "Output formats", lists them).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time

from .burns_lamport import block_counts
from .errors import ConfigurationError, ScenarioError
from .explorer import explore
from .machine import Section, SystemState, Trace, run
from .monitors import CHECKS, MONITORS, build_invocations, check_implications, max_token_number
from .scenario import Scenario, load_scenario

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
        header = {"record": "header", "algorithm": trace.algorithm, "n": trace.n,
                  "meta": trace.meta}
        fh.write(json.dumps(header) + "\n")
        for (index, pid, inv, line, kind, reg, value, rmr, section, markers, outcome,
             j) in trace.events:
            fh.write(json.dumps({
                "record": "event", "index": index, "pid": pid, "inv": inv,
                "line": line, "kind": kind, "reg": reg, "value": value,
                "rmr": rmr, "section": section.name.lower(),
                "markers": list(markers), "outcome": outcome, "j": j,
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
                        r.exit_accesses, r.blocked,
                        int(r.xc is not None)])


# The flag that sets each scenario key on the command line.
FLAGS = {"n": "--sizes", "seed": "--seed", "fairness_window": "--fairness-window",
         "cs_steps": "--cs-steps", "step_cap": "--steps", "max_states": "--max-states",
         "max_depth": "--max-depth"}


def _override(scenario: Scenario, **values) -> None:
    """Set each scenario key whose flag was given, then check the
    scenario, naming each key by its flag."""
    for key, value in values.items():
        if value is not None:
            setattr(scenario, key, value)

    def fail(key, message):
        raise ConfigurationError(message)
    scenario.check(fail, lambda key: FLAGS.get(key, key))


def _run_scenario(scenario: Scenario, keep_events: bool = False):
    """The one path from a Scenario to a run, for `run` and every sweep
    job: its RunResult and invocation records.

    The fold takes each event as `run` makes it, so no event outlives
    its step, unless `keep_events` (`run --trace-out`) has the trace
    keep them all, as a list, for the trace file.
    """
    state = SystemState(scenario.build_spec(), scenario.build_workload())
    result = run(state, scenario.build_schedule(), step_cap=scenario.step_cap)
    trace = result.trace
    trace.meta["seed"] = scenario.seed
    if keep_events:
        trace.events = list(trace.events)
    return result, build_invocations(trace)


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    _override(scenario, seed=args.seed, step_cap=args.steps)

    result, records = _run_scenario(scenario, keep_events=bool(args.trace_out))
    trace = result.trace
    verdicts = {name: MONITORS[name](trace, records) for name in CHECKS[scenario.algorithm]}
    check_implications(verdicts, trace)

    if args.trace_out:
        _write_trace(trace, args.trace_out)
    if args.csv_out:
        _write_run_csv(args.csv_out, scenario, records)

    print(f"scenario {scenario.config_hash}  algorithm={scenario.algorithm} "
          f"n={scenario.n} schedule={scenario.schedule} seed={scenario.seed}")
    print(f"steps={result.steps} completed={result.completed} "
          f"deadlocked={result.deadlocked} cap_hit={result.cap_hit}")
    for name, verdict in verdicts.items():
        mark = verdict.status.upper()
        extra = f"  ({verdict.detail})" if verdict.detail else ""
        if not verdict.ok and verdict.witness:
            extra += f"  witness={verdict.witness}"
        print(f"  {name:<18} {mark}{extra}")
    stats = _rmr_stats(records)
    for label in ("doorway", "waiting", "exit", "total"):
        s = stats[label]
        print(f"  rmr/{label:<12} min={s['min']} mean={s['mean']:.1f} max={s['max']}")
    if scenario.algorithm in ("glb", "bwbgme"):
        print(f"  max token number   {max_token_number(records)}")
    if scenario.algorithm == "bl":
        totals = block_counts(scenario.n, records)
        per = " ".join(f"P{pid}={cnt}" for pid, cnt in totals.items())
        print(f"  block counts       {per}")
    if args.trace_out:
        print(f"  trace              {args.trace_out}")

    if not all(v.ok for v in verdicts.values()) or result.deadlocked:
        return EXIT_VIOLATION
    if not result.completed:
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_explore(args) -> int:
    scenario = load_scenario(args.scenario)
    _override(scenario, max_states=args.max_states, max_depth=args.max_depth)

    spec = scenario.build_spec()
    workload = scenario.build_workload()
    start = time.perf_counter()

    def progress(states: int, transitions: int, depth: int) -> None:
        print(f"explore: {states} states, {transitions} transitions, depth {depth}, "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)

    report = explore(spec, workload, max_states=scenario.max_states,
                     max_depth=scenario.max_depth, progress=progress)

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

    if not report.clean:
        return EXIT_VIOLATION
    if report.truncated:
        return EXIT_TRUNCATED
    return EXIT_OK


def _sweep_config_hash(scenario: Scenario, seeds: int) -> str:
    """Hash of a random sweep row: its seed-0 scenario plus the seed count.

    The scenario carries every other input of the row's runs (sessions
    and invocations, cs_steps, the fairness window, the step
    cap), so two sweeps share a hash only if they ran the same jobs.
    """
    text = f"{scenario.canonical_text()}\nseeds = {seeds}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _sweep_one(scenario: Scenario) -> dict:
    result, records = _run_scenario(scenario)
    return {
        "completed": result.completed,
        "inv_rmr": [r.rmr_total for r in records],
        "doorway": [r.rmr_in(Section.DOORWAY) for r in records],
        "waiting": [r.rmr_in(Section.WAITING) for r in records],
        "exit": [r.rmr_in(Section.EXIT) for r in records],
    }


def cmd_sweep(args) -> int:
    tokens = args.sizes.split(",")
    if not any(tokens):
        raise ConfigurationError(f"--sizes must name at least one size, got {args.sizes!r}")
    try:
        sizes = [int(tok) for tok in tokens]
    except ValueError:
        raise ConfigurationError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigurationError(f"--sizes must be strictly ascending, got {args.sizes!r}")
    adversarial = args.schedule == "adversarial"
    # An adversarial sweep runs one job of one invocation per process.
    for flag, default in (("seeds", 50), ("invocations", 2)):
        if getattr(args, flag) is None:
            setattr(args, flag, 1 if adversarial else default)
        elif adversarial:
            raise ConfigurationError(f"--{flag} applies only to the random schedule")
    for flag in ("seeds", "invocations", "workers"):
        if getattr(args, flag) < 1:
            raise ConfigurationError(f"--{flag} must be >= 1")
    scenarios = []
    for n in sizes:
        # An adversarial row runs the scenario `run` reads from a file, so
        # it has the same hash.
        scenario = Scenario(args.algorithm, n, schedule=args.schedule,
                            sessions={pid: [pid] * args.invocations for pid in range(1, n + 1)})
        _override(scenario, fairness_window=args.fairness_window,
                  cs_steps=args.cs_steps, step_cap=args.steps)
        scenarios.append(scenario)
    rows = []
    truncated = False

    if adversarial:
        for n, scenario in zip(sizes, scenarios):
            result, records = _run_scenario(scenario)
            truncated |= not result.completed
            totals = block_counts(n, records)
            row = {
                "config_hash": scenario.config_hash, "algorithm": "bl", "n": n,
                "total_rmr": sum(r.rmr_total for r in records), "pn_blocks": totals[n],
                "events": result.steps,
            }
            rows.append(row)
            print(f"bl adversarial n={n}: total_rmr={row['total_rmr']} "
                  f"P{n}_blocks={row['pn_blocks']}")
        header = ["config_hash", "algorithm", "n", "total_rmr", "pn_blocks", "events"]
    else:
        for n, scenario in zip(sizes, scenarios):
            jobs = [dataclasses.replace(scenario, seed=seed) for seed in range(args.seeds)]
            if args.workers > 1:
                # Imported here, so no other command pays for importing it.
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(max_workers=args.workers) as pool:
                    results = list(pool.map(_sweep_one, jobs))
            else:
                results = [_sweep_one(job) for job in jobs]
            inv_rmr = [v for r in results for v in r["inv_rmr"]]
            truncated |= not all(r["completed"] for r in results)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it as it was."""
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
    p_sw.add_argument("--seeds", type=int, default=None)
    p_sw.add_argument("--invocations", type=int, default=None)
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
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE advises: stdout goes to
        # devnull, so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written",
              file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigurationError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
