"""End-to-end CLI: exit codes, trace export, CSV schemas."""

import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gmesim.cli
import gmesim.monitors
from gmesim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GLB_SCENARIO = """gmesim-scenario v1
algorithm = glb
n = 3
schedule = round_robin
step_cap = 50000
sessions[1] = 1
sessions[2] = 2
sessions[3] = 3
"""

EXPLORE_SCENARIO = """gmesim-scenario v1
algorithm = glb
n = 2
sessions[1] = 1
sessions[2] = 2
"""

MUTANT_SCENARIO = """gmesim-scenario v1
algorithm = bwbgme
n = 3
mutant = no_number_guard
sessions[1] = 1
sessions[2] = 1
sessions[3] = 1
"""

BL_ADVERSARIAL = """gmesim-scenario v1
algorithm = bl
n = 6
schedule = adversarial
sessions[1] = 1
sessions[2] = 2
sessions[3] = 3
sessions[4] = 4
sessions[5] = 5
sessions[6] = 6
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_passes_and_exports(tmp_path, capsys):
    scn = write(tmp_path, "glb.scn", GLB_SCENARIO)
    trace_path = str(tmp_path / "trace.jsonl")
    csv_path = str(tmp_path / "inv.csv")
    code = main(["run", "--scenario", scn, "--trace-out", trace_path,
                 "--csv-out", csv_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "me" in out and "PASS" in out

    lines = [json.loads(line) for line in open(trace_path)]
    assert lines[0]["record"] == "header" and lines[0]["algorithm"] == "glb"
    events = [rec for rec in lines[1:] if rec["record"] == "event"]
    assert events and all("rmr" in rec and "section" in rec for rec in events)

    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {row["pid"] for row in rows} == {"1", "2", "3"}
    assert all(int(row["rmr_total"]) > 0 for row in rows)


def test_explore_detects_violation_exit_1(tmp_path):
    scn = write(tmp_path, "mut.scn", MUTANT_SCENARIO)
    code = main(["explore", "--scenario", scn])
    assert code == 1


def test_run_replays_an_explored_flip_witness_exit_1(tmp_path, capsys):
    # The first flip violation `explore` prints, replayed by `run` as its
    # script: the flip check fails with a witness whose second flip is
    # the script's last step, and the run exits 1.
    mutant = SCENARIOS / "bwbgme_mutant_guard.scn"
    assert main(["explore", "--scenario", str(mutant)]) == 1
    out = capsys.readouterr().out
    replay = out.split("VIOLATION flip:", 1)[1].split("replay: ", 1)[1].split("\n", 1)[0]
    script = replay.split()
    scn = write(tmp_path, "replay.scn",
                mutant.read_text() + f"schedule = scripted\nscript = {replay}\n")
    assert main(["run", "--scenario", scn]) == 1
    [flip] = [line for line in capsys.readouterr().out.splitlines()
              if line.split()[0] == "flip"]
    assert flip.split()[1] == "FAIL", flip
    first, second, pid = map(int, re.search(r"witness=\((\d+), (\d+), (\d+)\)", flip).groups())
    assert first < second == len(script) - 1
    assert f"VIOLATION flip: second GlobalColor flip inside window of [{pid}]" in out


def test_run_cap_truncation_exit_3(tmp_path, capsys):
    scn = write(tmp_path, "glb.scn", GLB_SCENARIO)
    code = main(["run", "--scenario", scn, "--steps", "7"])
    assert code == 3
    # a script that runs out before the work is done is not a pass either
    short = write(tmp_path, "short.scn", GLB_SCENARIO.replace(
        "schedule = round_robin", "schedule = scripted\nscript = 1 2 3"))
    capsys.readouterr()
    assert main(["run", "--scenario", short]) == 3
    assert "completed=False deadlocked=False cap_hit=False" in capsys.readouterr().out


def test_trace_header_reports_how_the_run_ended(tmp_path):
    # The header is written once the run has ended, so its end flags are
    # final: a script that runs out before the work is done reads
    # completed false, and the shipped contended run reads true.
    short = write(tmp_path, "short.scn", EXPLORE_SCENARIO + "schedule = scripted\nscript = 1 2\n")
    metas = {}
    for scn, code in ((short, 3), (str(SCENARIOS / "glb_contended.scn"), 0)):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["run", "--scenario", scn, "--trace-out", str(trace_path)]) == code
        with open(trace_path) as fh:
            metas[code] = json.loads(fh.readline())["meta"]
    assert [metas[3][flag] for flag in ("completed", "deadlocked", "cap_hit")] == [False] * 3
    assert metas[0]["completed"] is True


def test_parse_error_exit_2(tmp_path):
    scn = write(tmp_path, "bad.scn", "not a scenario\n")
    assert main(["run", "--scenario", scn]) == 2
    assert main(["run", "--scenario", str(tmp_path / "missing.scn")]) == 2


def test_unreadable_paths_exit_2(tmp_path, capsys):
    # A scenario path that names a directory or a file that is not UTF-8,
    # and an output path that names a directory, are usage errors: exit
    # 2 with one line on stderr, not a traceback and the violation code.
    scn = write(tmp_path, "glb.scn", GLB_SCENARIO)
    latin1 = tmp_path / "latin1.scn"
    latin1.write_bytes(GLB_SCENARIO.encode() + "# caf\xe9\n".encode("latin-1"))
    sweep = ["sweep", "--algorithm", "glb", "--sizes", "2", "--seeds", "1"]
    for argv, message in (
            (["run", "--scenario", str(tmp_path)], "error: "),
            (["explore", "--scenario", str(tmp_path)], "error: "),
            (["run", "--scenario", str(latin1)], "scenario error: line 9: not UTF-8 text"),
            (["explore", "--scenario", str(latin1)], "scenario error: line 9: not UTF-8 text"),
            (["run", "--scenario", scn, "--csv-out", str(tmp_path)], "error: "),
            (["run", "--scenario", scn, "--trace-out", str(tmp_path)], "error: "),
            (sweep + ["--csv-out", str(tmp_path)], "error: ")):
        assert main(argv) == 2, argv
        errors = capsys.readouterr().err
        assert errors.startswith(message) and errors.count("\n") == 1, (argv, errors)
        assert "Traceback" not in errors, argv


def test_explore_clean_exit_0(tmp_path, capsys):
    scn = write(tmp_path, "explore.scn", EXPLORE_SCENARIO)
    assert main(["explore", "--scenario", scn]) == 0
    out = capsys.readouterr().out
    assert "states=" in out and "deadlock states: 0" in out


def test_run_folds_the_trace_once(tmp_path, monkeypatch):
    calls = []
    fold = gmesim.monitors.build_invocations

    def counting_fold(trace):
        calls.append(trace.events)
        return fold(trace)

    advance = gmesim.monitors.advance
    stepped = []

    def counting_advance(steps, states, ev):
        stepped.append(ev)
        return advance(steps, states, ev)

    # What the run's event stream handed out, and how many walks took it.
    made = []
    walks = []

    class WatchedEvents:
        def __init__(self, events):
            self.events = events

        def __iter__(self):
            walks.append(len(made))
            for ev in self.events:
                made.append(ev)
                yield ev

    run = gmesim.cli.run
    results = []

    def watched_run(*args, **kwargs):
        result = run(*args, **kwargs)
        result.trace.events = WatchedEvents(result.trace.events)
        results.append(result)
        return result

    monkeypatch.setattr(gmesim.cli, "run", watched_run)
    monkeypatch.setattr(gmesim.cli, "build_invocations", counting_fold)
    monkeypatch.setattr(gmesim.monitors, "build_invocations", counting_fold)
    monkeypatch.setattr(gmesim.monitors, "advance", counting_advance)
    assert main(["run", "--scenario", write(tmp_path, "glb.scn", GLB_SCENARIO)]) == 0
    assert len(calls) == 1 and len(results) == 1
    # the fold is the one walk along the run's events: it takes them from
    # the stream itself, from the first to the last, and the me and fcfs
    # monitors are stepped inside it, once per monitored event
    assert isinstance(calls[0], WatchedEvents)
    assert walks == [0]
    assert len(made) == results[0].steps > 0
    assert stepped == [ev for ev in made if gmesim.monitors.monitored(ev)]


def test_run_memory_is_flat_in_run_length(tmp_path, capsys):
    """Without --trace-out no event outlives its step.  40k more CS steps
    (one session, so nobody waits meanwhile) leave the run's allocation
    peak where it was; keeping those events would add about 7 MB."""
    def scenario(cs_steps):
        return write(tmp_path, f"cs{cs_steps}.scn",
                     "gmesim-scenario v1\nalgorithm = glb\nn = 2\n"
                     f"cs_steps = {cs_steps}\nsessions[1] = 1\nsessions[2] = 1\n")

    main(["run", "--scenario", scenario(1)])  # first-call costs, untraced
    capsys.readouterr()
    steps, peaks = {}, {}
    for cs_steps in (1, 20_001):
        path = scenario(cs_steps)
        tracemalloc.start()
        try:
            assert main(["run", "--scenario", path]) == 0
            peaks[cs_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps[cs_steps] = int(re.search(r"steps=(\d+)", capsys.readouterr().out).group(1))
    assert steps[20_001] - steps[1] == 40_000
    assert peaks[20_001] - peaks[1] < 500_000, peaks


def test_explore_truncation_exit_3(tmp_path):
    scn = write(tmp_path, "explore.scn", EXPLORE_SCENARIO)
    assert main(["explore", "--scenario", scn, "--max-states", "40"]) == 3


def test_overrides_obey_the_scenario_bounds(tmp_path, capsys):
    run_scn = write(tmp_path, "glb.scn", GLB_SCENARIO)
    explore_scn = write(tmp_path, "explore.scn", EXPLORE_SCENARIO)
    for argv, message in ((["run", "--scenario", run_scn, "--steps", "-5"],
                           "--steps must be >= 0"),
                          (["run", "--scenario", run_scn, "--seed", "-1"],
                           "--seed must be >= 0"),
                          # the round-robin schedule never reads a seed
                          (["run", "--scenario", run_scn, "--seed", "5"],
                           "--seed applies only to the random schedule"),
                          (["explore", "--scenario", explore_scn, "--max-states", "0"],
                           "--max-states must be >= 1"),
                          (["explore", "--scenario", explore_scn, "--max-depth", "-1"],
                           "--max-depth must be >= 0")):
        assert main(argv) == 2, argv
        out, errors = capsys.readouterr()
        assert message in errors and out == "", argv
    # each bound itself is accepted: a capped result, not a usage error
    assert main(["run", "--scenario", run_scn, "--steps", "0"]) == 3
    assert main(["run", "--scenario", run_scn, "--seed", "0"]) == 0
    assert main(["explore", "--scenario", explore_scn, "--max-states", "1"]) == 3
    assert main(["explore", "--scenario", explore_scn, "--max-depth", "0"]) == 3


def test_sweep_rejects_bad_flags(capsys):
    for argv, message in ((["--steps", "-3"], "error: --steps must be >= 0"),
                          (["--cs-steps", "-1"], "error: --cs-steps must be >= 0"),
                          (["--sizes", "4,x"], "error: --sizes must be comma-separated"),
                          # an empty token is a typo, not a size to skip
                          (["--sizes", "2,,3"], "error: --sizes must be comma-separated"),
                          (["--sizes", "4,"], "error: --sizes must be comma-separated"),
                          # the doubling ratios compare each size with the one before
                          (["--sizes", "8,4,4"], "error: --sizes must be strictly ascending"),
                          (["--sizes", "4,4"], "error: --sizes must be strictly ascending"),
                          # a sweep of nothing must not read as a pass
                          (["--sizes", ""], "error: --sizes must name at least one size"),
                          (["--sizes", ","], "error: --sizes must name at least one size"),
                          (["--sizes", "0"], "error: --sizes must be >= "),
                          (["--sizes", "0,4"], "error: --sizes must be >= "),
                          (["--workers", "0"], "error: --workers must be >= 1"),
                          (["--workers", "-3"], "error: --workers must be >= 1")):
        for schedule in (["--algorithm", "glb", "--seeds", "1"],
                         ["--algorithm", "bl", "--schedule", "adversarial"]):
            code = main(["sweep", *schedule, "--sizes", "2", *argv])
            assert code == 2, argv
            out, errors = capsys.readouterr()
            assert errors.startswith(message) and out == "", (argv, errors)
    # an adversarial schedule needs two processes; a random one runs one
    assert main(["sweep", "--algorithm", "bl", "--schedule", "adversarial",
                 "--sizes", "1,2"]) == 2
    assert capsys.readouterr().err \
        == "error: the adversarial schedule needs --sizes >= 2\n"
    # and it reads no fairness window
    assert main(["sweep", "--algorithm", "bl", "--schedule", "adversarial",
                 "--sizes", "2", "--fairness-window", "8"]) == 2
    assert capsys.readouterr().err \
        == "error: --fairness-window applies only to the random schedule\n"
    # nor a seed count or an invocation count: it runs one job, one
    # invocation per process
    for flag in ("--seeds", "--invocations"):
        assert main(["sweep", "--algorithm", "bl", "--schedule", "adversarial",
                     "--sizes", "2", flag, "9"]) == 2
        out, errors = capsys.readouterr()
        assert errors == f"error: {flag} applies only to the random schedule\n" and out == ""
    assert main(["sweep", "--algorithm", "glb", "--sizes", "1", "--seeds", "1"]) == 0
    # the bounds themselves are accepted
    assert main(["sweep", "--algorithm", "glb", "--sizes", "2", "--seeds", "1",
                 "--cs-steps", "0"]) == 0
    assert main(["sweep", "--algorithm", "glb", "--sizes", "2", "--seeds", "1",
                 "--steps", "0"]) == 3


def test_sweep_random_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--algorithm", "glb", "--sizes", "2,4", "--seeds", "3",
                 "--invocations", "1", "--csv-out", csv_path])
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["n"] for row in rows] == ["2", "4"]
    assert all(int(row["max_inv_rmr"]) > 0 for row in rows)
    assert "doubling ratio" in capsys.readouterr().out


def test_sweep_hash_names_the_whole_sweep(tmp_path):
    base = ["--seeds", "2", "--invocations", "1"]
    variants = [base, ["--seeds", "7", "--invocations", "3"], base + ["--seeds", "7"],
                base + ["--invocations", "3"], base + ["--cs-steps", "2"],
                base + ["--fairness-window", "5"], base + ["--steps", "500000"]]
    hashes = []
    for k, extra in enumerate(variants):
        csv_path = str(tmp_path / f"sweep{k}.csv")
        main(["sweep", "--algorithm", "glb", "--sizes", "4", "--csv-out", csv_path, *extra])
        with open(csv_path) as fh:
            hashes.append(next(csv.DictReader(fh))["config_hash"])
    assert len(set(hashes)) == len(variants), hashes


def test_sweep_rejects_bad_counts_and_window(tmp_path, capsys):
    sweep = ["sweep", "--algorithm", "glb", "--sizes", "2,4", "--seeds", "2"]
    for extra, message in ((["--seeds", "0"], "--seeds must be >= 1"),
                           (["--invocations", "0"], "--invocations must be >= 1"),
                           (["--fairness-window", "0"], "--fairness-window must be >= n = 2"),
                           (["--fairness-window", "3"], "--fairness-window must be >= n = 4")):
        csv_path = tmp_path / "sweep.csv"
        assert main(sweep + extra + ["--csv-out", str(csv_path)]) == 2, extra
        out, errors = capsys.readouterr()
        assert message in errors and out == "" and not csv_path.exists(), extra
    # n itself is the smallest window
    assert main(sweep + ["--fairness-window", "4"]) == 0


def test_sweep_adversarial_cap_reports_truncation(capsys):
    sweep = ["sweep", "--algorithm", "bl", "--schedule", "adversarial", "--sizes", "3"]
    assert main(sweep + ["--steps", "10"]) == 3
    assert "P3_blocks=1" in capsys.readouterr().out
    assert main(sweep) == 0
    assert "P3_blocks=3" in capsys.readouterr().out


def test_sweep_adversarial_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "bl.csv")
    code = main(["sweep", "--algorithm", "bl", "--schedule", "adversarial",
                 "--sizes", "4,6,8", "--csv-out", csv_path])
    assert code == 0
    with open(csv_path) as fh:
        rows = {int(row["n"]): row for row in csv.DictReader(fh)}
    assert int(rows[4]["pn_blocks"]) == 6
    assert int(rows[8]["pn_blocks"]) == 28
    assert int(rows[8]["total_rmr"]) / int(rows[4]["total_rmr"]) >= 3
    # a row runs the scenario the shipped file describes, so it carries
    # the hash `run` prints for that file
    capsys.readouterr()
    assert main(["run", "--scenario", str(SCENARIOS / "bl_adversarial_n6.scn")]) == 0
    run_hash = capsys.readouterr().out.split()[1]
    assert rows[6]["config_hash"] == run_hash == "cf5a3a04e5fc"
    assert (rows[6]["total_rmr"], rows[6]["pn_blocks"]) == ("147", "15")


def test_run_bl_adversarial_block_table(tmp_path, capsys):
    scn = write(tmp_path, "bl.scn", BL_ADVERSARIAL)
    assert main(["run", "--scenario", scn]) == 0
    out = capsys.readouterr().out
    assert "P6=15" in out


def test_usage_error_exit_2(capsys):
    assert main(["sweep", "--algorithm", "glb", "--schedule", "adversarial"]) == 2
    assert capsys.readouterr().err == "error: the adversarial schedule only drives bl\n"


def test_sweep_workers_flag(tmp_path):
    csv_path = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--algorithm", "bwbgme", "--sizes", "2,4", "--seeds", "4",
                 "--invocations", "1", "--workers", "2", "--csv-out", csv_path])
    assert code == 0
    with open(csv_path) as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only `sweep --workers N` with N > 1 needs a process pool; every
    # other command is spared importing concurrent.futures.
    src = Path(gmesim.cli.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gmesim.cli; print('concurrent.futures' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["explore", "--scenario", "scenarios/glb_explore_n3.scn"],
    ["run", "--scenario", "scenarios/bl_adversarial_n6.scn"],
])
def test_closed_stdout_exits_2(argv):
    # A reader that goes away before the report is written is a path
    # that cannot be written: exit 2 and one stderr line, no traceback,
    # and the flush at exit does not raise again.
    root = Path(gmesim.cli.__file__).resolve().parents[2]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gmesim.cli", *argv], cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 2
    assert "Traceback" not in err and "Exception" not in err
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_reports_are_deterministic(tmp_path, capsys):
    scn = write(tmp_path, "glb.scn", GLB_SCENARIO.replace("round_robin", "random"))
    main(["run", "--scenario", scn, "--seed", "17"])
    first = capsys.readouterr().out
    main(["run", "--scenario", scn, "--seed", "17"])
    assert capsys.readouterr().out == first


def test_run_scripted_sequential_fill_shows_n_plus_1(tmp_path, capsys):
    # The sequential-fill story end to end through the CLI: N=5 distinct
    # sessions fill tokens 1..5; process 1 re-requests and draws 6.
    from gmesim import SystemState, Workload, build_bwbgme
    from util import doorway_done, drive, finished

    n = 5
    wl_sessions = {1: [1, 6], 2: [2], 3: [3], 4: [4], 5: [5]}
    wl = Workload([wl_sessions[pid] for pid in range(1, n + 1)])
    state = SystemState(build_bwbgme(n), wl)
    pids = []
    for pid in range(1, n + 1):
        drive(state, pid, doorway_done, pids)
    drive(state, 1, finished, pids)
    drive(state, 1, doorway_done, pids)
    for pid in range(2, n + 1):  # smaller tokens leave first
        drive(state, pid, finished, pids, limit=10_000)
    drive(state, 1, finished, pids, limit=10_000)

    lines = ["gmesim-scenario v1", "algorithm = bwbgme", f"n = {n}",
             "schedule = scripted", f"script = {' '.join(map(str, pids))}"]
    lines += [f"sessions[{pid}] = {' '.join(map(str, wl_sessions[pid]))}"
              for pid in range(1, n + 1)]
    scn = write(tmp_path, "fill.scn", "\n".join(lines) + "\n")
    assert main(["run", "--scenario", scn]) == 0
    out = capsys.readouterr().out
    assert "max token number   6" in out
    assert "token_bound        PASS" in out
