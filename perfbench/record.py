"""Record the outputs the benchmark checks jobs against (expected.json).

    python3 perfbench/record.py

Runs every job of the run_* workload cycles under the default seed and
stores each CSV's SHA-256; runs one traced explore_n3 pass and stores
each algorithm's state, transition and RMR counts, which every session
relabeling (every seed) must reproduce.  Run it only when a change to
gmesim alters these outputs on purpose.
"""

import json
import shutil
import sys

import layers
import run
import workloads


def main() -> int:
    cli = run.import_cli()
    if cli is None:
        print(f"error: no gmesim sources under {run.SRC}", file=sys.stderr)
        return 2
    expected = {}
    results = []
    workdir = run.OUT / "record"
    try:
        for name in ("run_wide", "run_long", "explore_n3"):
            workload = workloads.build_workload(name, workloads.DEFAULT_SEED, expected={})
            runner = workloads.Runner(workload, workdir, cli)
            runner.write_scenarios()
            if name == "explore_n3":
                expected[name] = {}
                for job in workload.warmup + workload.passes[0]:
                    plain = runner.run(job)
                    spans = layers.Spans()
                    run.traced_replay(runner, workload, [[plain]], spans)
                    rmr = layers.layer_metrics(spans)["memory.rmr_total"]
                    expected[name][job.key.rsplit("/", 1)[0]] = dict(plain.counts, rmr_total=rmr)
            else:
                digests = {job.key: runner.run(job).digest for job in workload.jobs()}
                expected[name] = {"csv_sha256": digests}
            results += runner.results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.job.key}: {r.reason}", file=sys.stderr)
    if failed:
        return 1
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expected["explore_n3"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
