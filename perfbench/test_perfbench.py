"""Tests of the benchmark itself, on tiny instances of its workloads.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(kind: str) -> set:
    return {m["name"] for m in BENCH[kind]}


def run_main(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(argv)
    return status, out.getvalue().splitlines()


def tiny_workload(name, seed, expected=None):
    return workloads.Workload(seed, workloads.BUILDERS[name](seed, **workloads.TINY[name]),
                              [], {} if expected is None else expected)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """run.main on tiny workloads, with nothing recorded to compare against."""
    monkeypatch.setattr(workloads, "build_workload", tiny_workload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return monkeypatch


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.TINY))
def test_tiny_workload_reports_every_metric(tiny, workload, trace):
    status, lines = run_main(["--workload", workload, "--seed", "3",
                              "--seconds", "0.2", "--trace", str(trace)])
    result = json.loads(lines[-1])
    assert status == 0
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == names(kind)
    units = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert all(m["unit"] == units[k] for k, m in result["metrics"].items())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (run.OUT / f"{workload}.spans").is_file()


def test_traced_counts_equal_untraced(tiny):
    _, lines = run_main(["--workload", "run_long", "--seed", "3",
                         "--seconds", "0", "--trace", "1"])
    metrics = json.loads(lines[-1])["metrics"]
    workload = tiny_workload("run_long", 3)
    jobs = workload.passes[0]
    runner = workloads.Runner(workload, run.OUT / "w", run.import_cli())
    runner.write_scenarios()
    plain = [runner.run(job) for job in jobs]
    assert metrics["machine.steps"]["value"] == sum(r.counts["steps"] for r in plain)
    assert metrics["memory.rmr_total"]["value"] == sum(r.counts["rmr_total"] for r in plain)


def test_planted_wrong_digest_shows_as_failure(tiny):
    planted = {"csv_sha256": {"glb/0": "0" * 64}}
    tiny.setattr(workloads, "build_workload",
                 lambda name, seed: tiny_workload(name, seed, planted))
    _, lines = run_main(["--workload", "run_wide", "--seed", str(workloads.DEFAULT_SEED),
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("failed_ratio" in line and "failed_ratio 0.0000" not in line for line in lines)
    assert any("FAILED glb/0: CSV digest differs" in line for line in lines)


def test_planted_wrong_explore_count_shows_as_failure(tiny):
    planted = {"glb": {"states": 1}}
    tiny.setattr(workloads, "build_workload",
                 lambda name, seed: tiny_workload(name, seed, planted))
    _, lines = run_main(["--workload", "explore_n3", "--seed", "5",
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == sum("FAILED glb/" in line for line in lines) >= 1


def test_seeds_change_run_schedules():
    for build in (workloads.run_wide, workloads.run_long):
        a, b = build(1), build(2)
        assert [j.scenario for p in a for j in p] != [j.scenario for p in b for j in p]
        assert build(1) == a


def test_explore_n3_counts_hold_under_every_seed(tmp_path):
    recorded = workloads.load_expected()["explore_n3"]["glb"]
    cli = run.import_cli()
    jobs = [workloads.build_workload("explore_n3", seed).passes[0][0] for seed in (1, 2)]
    assert jobs[0].scenario != jobs[1].scenario
    runner = workloads.Runner(workloads.Workload(1, [jobs], []), tmp_path, cli)
    runner.write_scenarios()
    for job in jobs:
        result = runner.run(job)
        assert result.ok, result.reason
        assert result.counts == {k: recorded[k] for k in ("states", "transitions")}


def test_self_time_is_span_minus_children(tmp_path):
    spans = layers.Spans()

    def leaf():
        return sum(range(2000))

    inner = spans.wrap("leaf", leaf)
    outer = spans.wrap("outer", lambda: (inner(), inner()))
    outer()
    own = layers.self_times(spans)
    dur = [e - s for s, e in zip(spans.start, spans.end)]
    assert list(spans.parent) == [-1, 0, 0]
    assert own[0] == dur[0] - dur[1] - dur[2]
    assert list(own[1:]) == dur[1:]
    spans.write(tmp_path / "t.spans", {"seed": 1})
    back = layers.read_spans(tmp_path / "t.spans")
    assert (back.names, back.parent, back.start, back.end) == \
        (spans.names, spans.parent, spans.start, spans.end)


def test_benchmark_json_lists_the_benchmark():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.BUILDERS)
    assert names("per_layer") == set(layers.LAYER_METRICS)
    assert "setup_s" in names("end_to_end")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run_wide",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
