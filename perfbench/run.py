"""gmesim benchmark: one workload, one process, a closed loop of CLI jobs.

    python3 perfbench/run.py --workload run_wide --seed 0 --seconds 30 --trace 0

Run from the repository root; gmesim is imported from ``src/``.  The
workload (``run_wide``, ``run_long`` or ``explore_n3``, see workloads.py)
is generated from ``--seed``.  Set-up imports gmesim, then five times
writes the scenario files and runs a tiny warm-up pass.  Then passes over
the workload's jobs run one job at a time until ``--seconds`` have
passed.  Every job's output is checked; a job that fails counts in
``failed``.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: import time plus the median set-up repetition;
- ``wall_s``: wall time of the timed jobs per pass;
- ``job_s_p50``: median time of one job (the sample count is printed);
- ``steps_per_s``: simulated steps per second of job time (an explore
  transition is one step);
- ``peak_rss_mb``: the process's peak resident set size.

``--trace 1`` runs passes untraced for a fifth of ``--seconds``, replays
the same jobs with span tracing (layers.py), checks that the exact
counts agree, writes the spans to ``perfbench/out/<workload>.spans`` and
prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
TRACE_SHARE = 0.2  # share of --seconds spent on untraced passes in a traced run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """gmesim.cli from this checkout's src/, or None when there is none."""
    if not (SRC / "gmesim" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import gmesim.cli
    if Path(gmesim.__file__).resolve().parent != SRC / "gmesim":
        return None
    return gmesim.cli


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import gmesim
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "gmesim").glob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "gmesim": gmesim.__version__, "commit": git_commit(),
            "src_lines": src_lines}


def run_passes(runner, workload, seconds: float) -> list:
    """Whole passes, cycling through the workload, until `seconds` have passed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        jobs = workload.passes[len(passes) % len(workload.passes)]
        passes.append([runner.run(job) for job in jobs])
    return passes


def steps_of(result) -> int:
    # In an explore job every transition executes exactly one machine step.
    return result.counts.get("steps", result.counts.get("transitions", 0))


def end_to_end(setup_s: float, passes: list) -> dict:
    jobs = [r for p in passes for r in p]
    job_s = sum(r.seconds for r in jobs)
    return {
        "setup_s": setup_s,
        "wall_s": job_s / len(passes),
        "job_s_p50": statistics.median(r.seconds for r in jobs),
        "steps_per_s": sum(steps_of(r) for r in jobs) / job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_replay(runner, workload, passes: list, spans) -> None:
    """Run the jobs of `passes` again under tracing.

    A traced job whose exact counts differ from its untraced run fails.
    """
    tracer = layers.Tracer(spans)
    step_id = spans.intern("machine.step")
    read_id = spans.intern("memory.read_slot")
    write_id = spans.intern("memory.write_slot")
    tracer.install()
    try:
        for plain in (r for p in passes for r in p):
            first, hits = len(spans), spans.read_hits
            traced = runner.run(plain.job)
            names = spans.name[first:]
            steps = names.count(step_id)
            rmr = names.count(read_id) - (spans.read_hits - hits) + names.count(write_id)
            if not traced.ok:
                continue
            if plain.job.command == "run":
                counts = {"steps": steps, "rmr_total": rmr}
                want = plain.counts
            else:
                counts = dict(traced.counts, steps=steps, rmr_total=rmr)
                recorded = workload.recorded_counts(plain.job)
                want = dict(plain.counts, steps=plain.counts.get("transitions"),
                            rmr_total=recorded.get("rmr_total", rmr))
            if counts != want:
                traced.ok = False
                traced.reason = f"traced counts {counts} differ from untraced {want}"
    finally:
        tracer.uninstall()


def bytes_per_state(runner, cli, job) -> float:
    """Peak traced allocation during explore() per stored state (tracemalloc)."""
    explore = cli.explore
    measured = []

    def measured_explore(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = explore(*args, **kwargs)
        measured.append((tracemalloc.get_traced_memory()[1] - base) / report.states)
        return report

    cli.explore = measured_explore
    tracemalloc.start()
    try:
        runner.run(job)
    finally:
        tracemalloc.stop()
        cli.explore = explore
    return measured[0] if measured else 0.0


def per_layer(runner, workload, cli, passes: list, spans) -> dict:
    """Replay `passes` traced; per-layer metrics and the tracing overhead."""
    traced_from = len(runner.results)
    traced_replay(runner, workload, passes, spans)
    plain_s = sum(r.seconds for p in passes for r in p)
    traced_s = sum(r.seconds for r in runner.results[traced_from:])
    metrics = layers.layer_metrics(spans)
    explores = [r for p in passes for r in p if r.job.command == "explore"]
    states = sum(r.counts.get("states", 0) for r in explores)
    transitions = sum(r.counts.get("transitions", 0) for r in explores)
    metrics["explorer.states"] = states
    metrics["explorer.transitions"] = transitions
    metrics["explorer.new_state_ratio"] = states / transitions if transitions else 0.0
    # One explore job, the pass's last (bwbgme, the smaller): tracemalloc
    # slows exploration about eightfold.
    last = workload.passes[0][-1]
    metrics["explorer.bytes_per_state"] = (
        bytes_per_state(runner, cli, last) if last.command == "explore" else 0.0)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    if cli is None:
        print(f"error: no gmesim sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build_workload(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    runner = workloads.Runner(workload, workdir, cli)
    once_s = time.perf_counter() - START
    try:
        repeats = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            runner.write_scenarios()
            for job in workload.warmup:
                runner.run(job)
            repeats.append(time.perf_counter() - t)
        setup_s = once_s + statistics.median(repeats)

        if args.trace:
            passes = run_passes(runner, workload, args.seconds * TRACE_SHARE)
            spans = layers.Spans()
            metrics = per_layer(runner, workload, cli, passes, spans)
        else:
            passes = run_passes(runner, workload, args.seconds)
            metrics = end_to_end(setup_s, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run_record(args)
    if args.trace:
        spans.write(OUT / f"{args.workload}.spans", record)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    results = runner.results
    failed = [r for r in results if not r.ok]
    timed = [r for p in passes for r in p]
    print("record " + json.dumps(record))
    print(f"{args.workload} seed={args.seed}: {len(timed)} timed jobs in {len(passes)} passes; "
          f"{len(results)} jobs attempted, {len(failed)} failed "
          f"(failed_ratio {len(failed) / len(results):.4f})")
    if not args.trace:
        print(f"  setup_s = {once_s:.3f} s import + median of {SETUP_REPEATS} x "
              f"(scenario generation + warm-up pass) = {metrics['setup_s']:.3f} s; "
              f"job_s_p50 over {len(timed)} jobs; wall_s over {len(passes)} passes")
    for r in failed:
        print(f"  FAILED {r.job.key}: {r.reason}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
