"""End-to-end CLI: exit codes, trace export, CSV schemas."""

import csv
import json

import gmesim.cli
import gmesim.monitors
from gmesim.cli import main

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


def test_run_detects_violation_exit_1(tmp_path):
    # mutant scenario driven by a fair random schedule long enough to trip
    # the flip monitor is not guaranteed; use explore for detection and a
    # crafted run below for the exit code path.
    scn = write(tmp_path, "mut.scn", MUTANT_SCENARIO)
    code = main(["explore", "--scenario", scn])
    assert code == 1


def test_run_cap_truncation_exit_3(tmp_path):
    scn = write(tmp_path, "glb.scn", GLB_SCENARIO)
    code = main(["run", "--scenario", scn, "--steps", "7"])
    assert code == 3


def test_parse_error_exit_2(tmp_path):
    scn = write(tmp_path, "bad.scn", "not a scenario\n")
    assert main(["run", "--scenario", scn]) == 2
    assert main(["run", "--scenario", str(tmp_path / "missing.scn")]) == 2


def test_explore_clean_exit_0(tmp_path, capsys):
    scn = write(tmp_path, "explore.scn", EXPLORE_SCENARIO)
    assert main(["explore", "--scenario", scn]) == 0
    out = capsys.readouterr().out
    assert "states=" in out and "deadlock states: 0" in out


def test_run_folds_the_trace_once(tmp_path, monkeypatch):
    calls = []
    fold = gmesim.monitors.build_invocations

    def counting_fold(trace):
        calls.append(trace)
        return fold(trace)

    advance = gmesim.monitors.advance
    stepped = []

    def counting_advance(steps, states, ev):
        stepped.append(ev)
        return advance(steps, states, ev)

    monkeypatch.setattr(gmesim.cli, "build_invocations", counting_fold)
    monkeypatch.setattr(gmesim.monitors, "build_invocations", counting_fold)
    monkeypatch.setattr(gmesim.monitors, "advance", counting_advance)
    assert main(["run", "--scenario", write(tmp_path, "glb.scn", GLB_SCENARIO)]) == 0
    assert len(calls) == 1
    # me and fcfs share one pass of the online monitors along the trace
    assert stepped == [ev for ev in calls[0].events if gmesim.monitors.monitored(ev)]


def test_explore_truncation_exit_3(tmp_path):
    scn = write(tmp_path, "explore.scn", EXPLORE_SCENARIO)
    assert main(["explore", "--scenario", scn, "--max-states", "40"]) == 3


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
                           (["--fairness-window", "0"], "--fairness-window 0 < n=4"),
                           (["--fairness-window", "3"], "--fairness-window 3 < n=4")):
        csv_path = tmp_path / "sweep.csv"
        assert main(sweep + extra + ["--csv-out", str(csv_path)]) == 2, extra
        out, errors = capsys.readouterr()
        assert message in errors and out == "" and not csv_path.exists(), extra
    # n itself is the smallest window
    assert main(sweep + ["--fairness-window", "4"]) == 0


def test_sweep_adversarial_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "bl.csv")
    code = main(["sweep", "--algorithm", "bl", "--schedule", "adversarial",
                 "--sizes", "4,8", "--csv-out", csv_path])
    assert code == 0
    with open(csv_path) as fh:
        rows = {int(row["n"]): row for row in csv.DictReader(fh)}
    assert int(rows[4]["pn_blocks"]) == 6
    assert int(rows[8]["pn_blocks"]) == 28
    assert int(rows[8]["total_rmr"]) / int(rows[4]["total_rmr"]) >= 3


def test_run_bl_adversarial_block_table(tmp_path, capsys):
    scn = write(tmp_path, "bl.scn", BL_ADVERSARIAL)
    assert main(["run", "--scenario", scn]) == 0
    out = capsys.readouterr().out
    assert "P6=15" in out


def test_usage_error_exit_2():
    assert main(["sweep", "--algorithm", "glb", "--schedule", "adversarial"]) == 2


def test_sweep_workers_flag(tmp_path):
    csv_path = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--algorithm", "bwbgme", "--sizes", "2,4", "--seeds", "4",
                 "--invocations", "1", "--workers", "2", "--csv-out", csv_path])
    assert code == 0
    with open(csv_path) as fh:
        assert len(list(csv.DictReader(fh))) == 2


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
    wl = Workload.from_sessions([wl_sessions[pid] for pid in range(1, n + 1)])
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
