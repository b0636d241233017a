"""The benchmark's workloads, the jobs they run, and the check of each job.

A workload is a cycle of passes; a pass is a fixed list of jobs, one per
algorithm.  Every job is one ``gmesim run`` or ``gmesim explore`` call
through ``gmesim.cli.main`` on a scenario file generated from the seed.
The benchmark drives the passes as a closed loop: one job at a time, in
one process, the next job only after the previous one returned.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

DEFAULT_SEED = 0
CYCLE = 8  # passes per cycle; a longer run repeats the cycle
ALGORITHMS = ("glb", "bwbgme")
HEADER = "gmesim-scenario v1"
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Job:
    key: str          # names the job within its workload, e.g. "glb/3"
    command: str      # "run" or "explore"
    scenario: str     # scenario file text
    rows: int = 0     # invocations a run job's CSV must list


@dataclass
class Workload:
    seed: int
    passes: list      # list of lists of Job
    warmup: list      # untimed jobs run during set-up
    expected: dict = field(default_factory=dict)

    def jobs(self):
        return self.warmup + [job for jobs in self.passes for job in jobs]

    def recorded_counts(self, job: Job) -> dict:
        """Recorded explore counts: one entry per configuration, for every pass."""
        return self.expected.get(job.key.rsplit("/", 1)[0], {})


def _scenario(algorithm: str, sessions: list, extra: list) -> str:
    lines = [HEADER, f"algorithm = {algorithm}", f"n = {len(sessions)}", *extra]
    lines += [f"sessions[{pid}] = {' '.join(map(str, s))}"
              for pid, s in enumerate(sessions, start=1)]
    return "\n".join(lines) + "\n"


def _run_passes(seed: int, sessions: list) -> list:
    """One pass per schedule seed; the workload seed picks the schedule seeds."""
    rng = random.Random(seed)
    rows = sum(len(s) for s in sessions)
    passes = []
    for k in range(CYCLE):
        schedule_seed = rng.randrange(2 ** 31)
        passes.append([
            Job(f"{alg}/{k}", "run",
                _scenario(alg, sessions, ["schedule = random", f"seed = {schedule_seed}"]),
                rows)
            for alg in ALGORITHMS])
    return passes


def run_wide(seed: int, n: int = 24, invocations: int = 2) -> list:
    return _run_passes(seed, [[pid] * invocations for pid in range(1, n + 1)])


def run_long(seed: int, n: int = 4, invocations: int = 300) -> list:
    return _run_passes(seed, [[1 + pid % 2] * invocations for pid in range(1, n + 1)])


def explore_n3(seed: int, n: int = 3) -> list:
    """The acceptance configurations glb {a,b,a} and bwbgme {a,a,b}.

    Both bakeries compare sessions only for equality, so every relabeling
    (a, b) has the same state and transition counts as {1,2,1} / {1,1,2};
    the seed picks the relabeling of each pass.
    """
    rng = random.Random(seed)
    passes = []
    for k in range(CYCLE):
        a, b = rng.sample(range(1, 10), 2)
        alternating = [[a if pid % 2 else b] for pid in range(1, n + 1)]
        last_differs = [[a]] * (n - 1) + [[b]]
        passes.append([
            Job(f"glb/{k}", "explore", _scenario("glb", alternating, [])),
            Job(f"bwbgme/{k}", "explore",
                _scenario("bwbgme", last_differs, ["initial_color = white"])),
        ])
    return passes


BUILDERS = {"run_wide": run_wide, "run_long": run_long, "explore_n3": explore_n3}

# Tiny instances: the set-up's warm-up pass and the benchmark's own tests.
TINY = {"run_wide": {"n": 3, "invocations": 1},
        "run_long": {"n": 2, "invocations": 3},
        "explore_n3": {"n": 2}}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build_workload(name: str, seed: int, expected: dict = None) -> Workload:
    """The named workload for a seed, with the values its output must match.

    For run jobs the recorded CSV digests apply only under DEFAULT_SEED;
    for explore jobs the recorded counts apply under every seed.
    """
    if expected is None:
        expected = load_expected().get(name, {})
    warmup = [replace(job, key=f"warmup/{job.key}")
              for job in BUILDERS[name](seed, **TINY[name])[0]]
    return Workload(seed, BUILDERS[name](seed), warmup, expected)


@dataclass
class JobResult:
    job: Job
    seconds: float
    ok: bool
    reason: str = ""
    digest: str = ""
    counts: dict = field(default_factory=dict)


_RUN_LINE = re.compile(r"^steps=(\d+) completed=True deadlocked=False cap_hit=False$", re.M)
_EXPLORE_LINE = re.compile(
    r"^  states=(\d+) transitions=(\d+) max_depth=\d+ truncated=False$", re.M)


class Runner:
    """Runs jobs through the CLI in this process and checks their output."""

    def __init__(self, workload: Workload, workdir: Path, cli):
        self.workload = workload
        self.workdir = Path(workdir)
        self.cli = cli  # gmesim.cli; main is looked up per job so tracing can wrap it
        self.first_digest: dict = {}  # job key -> digest of its first run
        self.results: list = []

    def scenario_path(self, job: Job) -> Path:
        return self.workdir / f"{job.key.replace('/', '-')}.scn"

    def write_scenarios(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for job in self.workload.jobs():
            self.scenario_path(job).write_text(job.scenario, encoding="utf-8")

    def run(self, job: Job) -> JobResult:
        argv = [job.command, "--scenario", str(self.scenario_path(job))]
        csv_path = self.workdir / "out.csv"
        if job.command == "run":
            argv += ["--csv-out", str(csv_path)]
            csv_path.unlink(missing_ok=True)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                status = self.cli.main(argv)
        except Exception:  # a crash is a failed job, not a benchmark abort
            seconds = time.perf_counter() - start
            result = JobResult(job, seconds, False, traceback.format_exc(limit=3))
        else:
            seconds = time.perf_counter() - start
            result = JobResult(job, seconds, True)
            if status != 0:
                result.ok, result.reason = False, f"exit status {status}"
            elif job.command == "run":
                self._check_run(job, out.getvalue(), csv_path, result)
            else:
                self._check_explore(job, out.getvalue(), result)
        self.results.append(result)
        return result

    def _check_run(self, job: Job, stdout: str, csv_path: Path, result: JobResult) -> None:
        m = _RUN_LINE.search(stdout)
        if m is None:
            result.ok, result.reason = False, "run did not complete cleanly"
            return
        data = csv_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        result.digest = hashlib.sha256(data).hexdigest()
        result.counts = {"steps": int(m.group(1)),
                         "rmr_total": sum(int(r["rmr_total"]) for r in rows)}
        if len(rows) != job.rows or any(r["completed"] != "1" for r in rows):
            result.ok = False
            result.reason = f"CSV lists {len(rows)} rows, not {job.rows} completed"
            return
        first = self.first_digest.setdefault(job.key, result.digest)
        if result.digest != first:
            result.ok, result.reason = False, "CSV differs from an earlier run of the same job"
            return
        recorded = self.workload.expected.get("csv_sha256", {})
        if self.workload.seed == DEFAULT_SEED and job.key in recorded \
                and recorded[job.key] != result.digest:
            result.ok, result.reason = False, "CSV digest differs from the recorded one"

    def _check_explore(self, job: Job, stdout: str, result: JobResult) -> None:
        m = _EXPLORE_LINE.search(stdout)
        if m is None or "VIOLATION" in stdout or "deadlock states: 0" not in stdout:
            result.ok, result.reason = False, "explore was not clean and untruncated"
            return
        result.counts = {"states": int(m.group(1)), "transitions": int(m.group(2))}
        recorded = self.workload.recorded_counts(job)
        for key, value in result.counts.items():
            if key in recorded and recorded[key] != value:
                result.ok, result.reason = False, f"{key}={value}, recorded {recorded[key]}"
                return
