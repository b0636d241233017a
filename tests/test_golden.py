"""Golden digests: the CLI's outputs on the shipped scenarios, byte for byte.

The determinism contract says the same scenario and seed give
byte-identical traces, CSVs and verdicts.  These SHA-256 digests pin
that output, and that of one round-robin scenario written here, so a
refactor that changes any byte fails here.  A change that alters
output on purpose updates the digest and says why in CHANGES.md.  The `trace <path>` stdout line names a temporary file and
is left out of every digest.
"""

import hashlib
import re
from pathlib import Path

import pytest

import gmesim.explorer
from gmesim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def stdout_without_trace_line(out: str) -> str:
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.lstrip().startswith("trace "))


RUN_DIGESTS = {
    "glb_contended.scn": (0, {
        "stdout": "585fc64ac045124410bb2e5430a4241681262719967151afc4da71f231f122fe",
        "trace": "a1579b2042cf88cf6daa1a34d7f8ee321a5bc1a6261d59fbc13d165aff579a6d",
        "csv": "2415602d5c4efbc2f4129b4a769890053e3eaf77f4b122cd7644a65afc5b668b"}),
    "bl_adversarial_n6.scn": (0, {
        "stdout": "bb4177b86c8015ff28c3539f435a4b722623ce5938c631bcba2475f7f611e9d9",
        "trace": "bd54102458bea4942b9ac1dd551f7a2e8bc4dd144d99f26ebeca4cc6c972efd2",
        "csv": "518bec8ece02aa77ec62543eda8bb6a51983d9ff67b840c787b8223be1b15af4"}),
    # Failing runs: these pin the me/fcfs and flip FAIL lines, witnesses
    # and details.
    "bwbgme_mutant_me.scn": (1, {
        "stdout": "5db278715c57755de791320e18db63ec272443ae5d15384c038a8311f11a29d6",
        "trace": "3a168ea5d4a8ab860cd5aafa77b2e756ab2a3f418dbe7246d9e83dcd59e20ce9",
        "csv": "ee15c7760b327cc746eaca989ab8249dfbfb213140e89ee77e8408572e7b5bb2"}),
    "bwbgme_mutant_fcfs.scn": (1, {
        "stdout": "f88904d7eb4bf45668048fa63fad6c66e86968be4842bee17f3d6f1481e65f1d",
        "trace": "d671fbb4cc24c93b13180774b24c6a519bb51ca8349e01bec64693250a557ce4",
        "csv": "76f1139b8313bfe5c0227a31b8cd254fd275c94f5dc981d7287ac394ae43ca89"}),
}

# A round-robin run, its scenario written by the test: P2 has no
# invocation, so every turn of the cycle skips it, and P3 finishes first.
ROUND_ROBIN_SCENARIO = """gmesim-scenario v1
algorithm = glb
n = 3
schedule = round_robin
sessions[1] = 1 2 1
sessions[3] = 2 2
"""
ROUND_ROBIN_DIGESTS = {
    "stdout": "7f35301374fc185df48a5a21fbdd446e8f5ad5077d241cc04788d42cac981540",
    "trace": "26b5109b055188e05ffee0f758dcefa282c68ef50a3dc15695f63d9d11b15a1b",
    "csv": "f42768a1cd3fe67fdb921b49d19cb1459eafc8efd0047b5c991d1b7ddd806044"}

# name -> (exit code, flip witnesses printed, stdout digest)
EXPLORE_DIGESTS = {
    "bwbgme_explore_n3.scn": (
        0, 0, "f240ba821aa876780b7cd7b7bd49c7d90ed026e44720febae298744458bf33a9"),
    "bwbgme_mutant_guard.scn": (
        1, 135, "953002d2faa068541df3d2d8ce2c9008b9936410b4b2dc177d80de39b562953c"),
    "bwbgme_mutant_me.scn": (
        1, 892, "d2359c2fddd2d229ef090198b691ec27f89ce13ac0ecd080cbd056f564375cdf"),
    "glb_explore_n3.scn": (
        0, 0, "bb51a21726958a0deb04615c25b3069998b82ebde5618fdab9269b84f025d117"),
}

SWEEP_DIGESTS = {
    "glb": {
        "stdout": "c00095b823a7f4d96bbbdb5d25f671c49306ec8ee86d2c9d3ed481db2459d46b",
        "csv": "dd7d240c694354a2a8cb01386202c4216ed663e3b8f85a3b92c74b380893de13"},
    "bwbgme": {
        "stdout": "13c9940276e59c25d7bf064f5d4bb398c89b3ad99f6e005e1385ce1d3522772b",
        "csv": "eec3fd858b2290d5de5c2f84384b1095bf1b8057fd378e8493e6cd2a5474eb68"},
}

# N=16 and 32 reach the fair schedule's overdue queue and let processes
# run out of invocations at different steps.
WIDE_SWEEP_DIGESTS = {
    "glb": {
        "stdout": "d8bbae405404583da9d273f27d30e876747916a2255d5aa71652441c714bfd67",
        "csv": "9eb550b9efa21e6069ef6776f22f99aa3be936f426a739bf62f6a5625d161fb8"},
    "bwbgme": {
        "stdout": "71a33f69997b0cb99baf329beb020cb903ec65a9e935a40f9b4cb29708b301c0",
        "csv": "4edaab8ace86aa919fbe10c6a4deb7635fc4d67e28e519af7cfeb15df7650a2c"},
}


# Without --trace-out the fold takes the events as the run makes them and
# nothing keeps them; the stdout and CSV must not tell the two apart.
@pytest.mark.parametrize("name, trace_out", [
    *(pytest.param(name, True, id=name) for name in sorted(RUN_DIGESTS)),
    *(pytest.param(name, False, id=f"{name}-without-trace-out")
      for name in sorted(RUN_DIGESTS))])
def test_run_outputs_pinned(name, trace_out, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "run.csv"
    argv = ["run", "--scenario", str(SCENARIOS / name), "--csv-out", str(csv_path)]
    if trace_out:
        argv += ["--trace-out", str(trace_path)]
    code = main(argv)
    out = capsys.readouterr().out
    want_code, want = RUN_DIGESTS[name]
    assert code == want_code
    got = {"stdout": sha(stdout_without_trace_line(out)), "csv": sha(csv_path.read_bytes())}
    if trace_out:
        got["trace"] = sha(trace_path.read_bytes())
    else:
        assert not trace_path.exists()
        want = {key: want[key] for key in got}
    assert got == want


def test_round_robin_run_pinned(tmp_path, capsys):
    scenario = tmp_path / "round_robin.scn"
    scenario.write_text(ROUND_ROBIN_SCENARIO)
    trace_path, csv_path = tmp_path / "trace.jsonl", tmp_path / "run.csv"
    assert main(["run", "--scenario", str(scenario), "--trace-out", str(trace_path),
                 "--csv-out", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert {"stdout": sha(stdout_without_trace_line(out)), "trace": sha(trace_path.read_bytes()),
            "csv": sha(csv_path.read_bytes())} == ROUND_ROBIN_DIGESTS


@pytest.mark.parametrize("name", sorted(EXPLORE_DIGESTS))
def test_explore_report_pinned(name, capsys):
    code = main(["explore", "--scenario", str(SCENARIOS / name)])
    out = capsys.readouterr().out
    want_code, want_flips, want = EXPLORE_DIGESTS[name]
    assert code == want_code
    assert out.count("VIOLATION flip:") == want_flips
    assert sha(out) == want


def test_explore_progress_leaves_stdout_alone(monkeypatch, capsys):
    # One stderr line each time PROGRESS_EVERY more states are stored;
    # stdout stays byte for byte the pinned report.
    every = 1 << 14
    monkeypatch.setattr(gmesim.explorer, "PROGRESS_EVERY", every)
    name = "glb_explore_n3.scn"
    assert main(["explore", "--scenario", str(SCENARIOS / name)]) == 0
    captured = capsys.readouterr()
    assert sha(captured.out) == EXPLORE_DIGESTS[name][2]
    states = int(re.search(r"states=(\d+)", captured.out).group(1))
    lines = captured.err.splitlines()
    assert len(lines) == states // every >= 2
    for k, line in enumerate(lines, 1):
        assert re.fullmatch(rf"explore: {k * every} states, \d+ transitions, depth \d+, "
                            r"\d+\.\d s", line), line


@pytest.mark.parametrize("algorithm", sorted(SWEEP_DIGESTS))
def test_sweep_csv_pinned(algorithm, tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--algorithm", algorithm, "--sizes", "4,8",
                 "--seeds", "3", "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert {"stdout": sha(out), "csv": sha(csv_path.read_bytes())} \
        == SWEEP_DIGESTS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(WIDE_SWEEP_DIGESTS))
def test_wide_sweep_csv_pinned(algorithm, tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--algorithm", algorithm, "--sizes", "16,32",
                 "--seeds", "2", "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert {"stdout": sha(out), "csv": sha(csv_path.read_bytes())} \
        == WIDE_SWEEP_DIGESTS[algorithm]
