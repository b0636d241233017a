"""Golden digests: the CLI's outputs on the shipped scenarios, byte for byte.

The determinism contract says the same scenario and seed give
byte-identical traces, CSVs and verdicts.  These SHA-256 digests pin
that output, so a refactor that changes any byte fails here.  A change
that alters output on purpose updates the digest and says why in
CHANGES.md.  The `trace <path>` stdout line names a temporary file and
is left out of every digest.
"""

import hashlib
from pathlib import Path

import pytest

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
        "stdout": "a2e56f5f5b955e1d8059475370a66f373d39892d9931f0d55937541843b76c65",
        "trace": "45cc3fcbeeceed65baca9bbf55a108993e231b0b88b1dbec29a0d91006dd7faf",
        "csv": "27b18e6d00dc154c212c7fd813ffd81ba72b9ef2ed1d4b93ede1fac6a45ddf82"}),
    "bl_adversarial_n6.scn": (0, {
        "stdout": "bb4177b86c8015ff28c3539f435a4b722623ce5938c631bcba2475f7f611e9d9",
        "trace": "dcb34e901e6c594df9b75a4d3855fe27402941e9a620897aa1d5b6dfc4fd405e",
        "csv": "518bec8ece02aa77ec62543eda8bb6a51983d9ff67b840c787b8223be1b15af4"}),
}

# name -> (exit code, flip witnesses printed, stdout digest)
EXPLORE_DIGESTS = {
    "bwbgme_explore_n3.scn": (
        0, 0, "f240ba821aa876780b7cd7b7bd49c7d90ed026e44720febae298744458bf33a9"),
    "bwbgme_mutant_guard.scn": (
        1, 135, "953002d2faa068541df3d2d8ce2c9008b9936410b4b2dc177d80de39b562953c"),
    "glb_explore_n3.scn": (
        0, 0, "bb51a21726958a0deb04615c25b3069998b82ebde5618fdab9269b84f025d117"),
}

SWEEP_DIGESTS = {
    "glb": {
        "stdout": "c00095b823a7f4d96bbbdb5d25f671c49306ec8ee86d2c9d3ed481db2459d46b",
        "csv": "a5026c5d88704b579aeb6f8967856f8964b53a779bed70b61ec9bd16263416d7"},
    "bwbgme": {
        "stdout": "13c9940276e59c25d7bf064f5d4bb398c89b3ad99f6e005e1385ce1d3522772b",
        "csv": "42f1130b9a4bc2ee5ccfb42e91460132a04c0a73161255be956e1b9ee1ab4d3a"},
}


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_outputs_pinned(name, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "run.csv"
    code = main(["run", "--scenario", str(SCENARIOS / name),
                 "--trace-out", str(trace_path), "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    want_code, want = RUN_DIGESTS[name]
    assert code == want_code
    assert {"stdout": sha(stdout_without_trace_line(out)),
            "trace": sha(trace_path.read_bytes()),
            "csv": sha(csv_path.read_bytes())} == want


@pytest.mark.parametrize("name", sorted(EXPLORE_DIGESTS))
def test_explore_report_pinned(name, capsys):
    code = main(["explore", "--scenario", str(SCENARIOS / name)])
    out = capsys.readouterr().out
    want_code, want_flips, want = EXPLORE_DIGESTS[name]
    assert code == want_code
    assert out.count("VIOLATION flip:") == want_flips
    assert sha(out) == want


@pytest.mark.parametrize("algorithm", sorted(SWEEP_DIGESTS))
def test_sweep_csv_pinned(algorithm, tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--algorithm", algorithm, "--sizes", "4,8",
                 "--seeds", "3", "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert {"stdout": sha(out), "csv": sha(csv_path.read_bytes())} \
        == SWEEP_DIGESTS[algorithm]
