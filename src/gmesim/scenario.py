"""Scenario files: flat key-value text with a versioned header.

Example::

    gmesim-scenario v1
    algorithm = bwbgme
    n = 3
    schedule = random          # round_robin | random | scripted | adversarial
    seed = 7
    fairness_window = 12       # random only, >= n
    initial_color = white      # bwbgme only
    cs_steps = 1
    step_cap = 200000
    sessions[1] = 1 2          # one invocation per listed session
    sessions[2] = 2
    sessions[3] = 1

Unknown keys, malformed values, and fields that do not belong to the
chosen algorithm are rejected with the offending line number.  What a
run is checked for follows from the algorithm alone
(`gmesim.monitors.CHECKS`), so there is no key to choose monitors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Optional

from .bwbgme import MUTANTS, build_bwbgme
from .burns_lamport import build_bl
from .errors import ScenarioError
from .glb import build_glb
from .machine import Workload
from .memory import BLACK, WHITE
from .schedules import RoundRobin, Scripted, bl_adversarial_schedule, random_schedule

HEADER = "gmesim-scenario v1"

ALGORITHMS = ("glb", "bwbgme", "bl")
SCHEDULES = ("round_robin", "random", "scripted", "adversarial")

# The integer keys other than n, each read over the Scenario's default.
_INT_KEYS = ("seed", "fairness_window", "cs_steps", "step_cap", "max_states",
             "max_depth")


@dataclass
class Scenario:
    algorithm: str
    n: int
    sessions: dict = field(default_factory=dict)  # pid -> list of session numbers
    schedule: str = "round_robin"
    seed: int = 0
    fairness_window: Optional[int] = None
    initial_color: Optional[str] = None
    mutant: Optional[str] = None
    cs_steps: int = 1
    step_cap: int = 1_000_000
    max_states: int = 2_000_000
    max_depth: Optional[int] = None
    script: tuple = ()

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def canonical_text(self) -> str:
        # The color is named only when it differs from the white that
        # build_spec would use, so an explicit white hashes as unset.
        color = None if self.initial_color == WHITE else self.initial_color
        lines = [HEADER,
                 f"algorithm = {self.algorithm}",
                 f"n = {self.n}",
                 f"schedule = {self.schedule}",
                 f"seed = {self.seed}",
                 f"fairness_window = {self.fairness_window}",
                 f"initial_color = {color}",
                 f"mutant = {self.mutant}",
                 f"cs_steps = {self.cs_steps}",
                 f"step_cap = {self.step_cap}",
                 # Left over from a key that chose the monitors; kept because
                 # every config hash so far (the golden digests, the run CSV's
                 # config_hash column, the benchmark's expected CSV digests)
                 # includes it.
                 "monitors = default"]
        # An explore cap is named only when it differs from its default,
        # so every uncapped scenario keeps its hash.
        defaults = {f.name: f.default for f in fields(self)}
        for cap in ("max_states", "max_depth"):
            if getattr(self, cap) != defaults[cap]:
                lines.append(f"{cap} = {getattr(self, cap)}")
        for pid in sorted(self.sessions):
            lines.append(f"sessions[{pid}] = {' '.join(map(str, self.sessions[pid]))}")
        if self.script:
            lines.append(f"script = {' '.join(map(str, self.script))}")
        return "\n".join(lines)

    def build_spec(self):
        if self.algorithm == "glb":
            return build_glb(self.n)
        if self.algorithm == "bwbgme":
            return build_bwbgme(self.n, self.initial_color or WHITE, self.mutant)
        return build_bl(self.n)

    def build_workload(self) -> Workload:
        per_proc = [self.sessions.get(pid, []) for pid in range(1, self.n + 1)]
        return Workload(per_proc, cs_steps=self.cs_steps)

    def build_schedule(self):
        if self.schedule == "round_robin":
            return RoundRobin()
        if self.schedule == "random":
            return random_schedule(self.n, self.seed, self.fairness_window)
        if self.schedule == "scripted":
            return Scripted(self.script)
        return bl_adversarial_schedule(self.n, cs_steps=self.cs_steps)


# The smallest value each integer setting takes, in a scenario file or
# as a command-line override.
LOWER_BOUNDS = {"seed": 0, "cs_steps": 0, "step_cap": 0, "max_states": 1, "max_depth": 0}


def _fail(lineno: int, msg: str):
    raise ScenarioError(lineno, msg)


def parse_scenario(text: str) -> Scenario:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        _fail(1, f"first line must be {HEADER!r}")

    values: dict = {}
    sessions: dict = {}
    lineno_of: dict = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("sessions[") and key.endswith("]"):
            try:
                pid = int(key[len("sessions["):-1])
            except ValueError:
                _fail(lineno, f"bad process index in {key!r}")
            if pid in sessions:
                _fail(lineno, f"duplicate key {key!r}")
            try:
                sessions[pid] = [int(tok) for tok in value.split()]
            except ValueError:
                _fail(lineno, f"sessions must be integers, got {value!r}")
            lineno_of[f"sessions[{pid}]"] = lineno
            continue
        if key in values:
            _fail(lineno, f"duplicate key {key!r}")
        values[key] = value
        lineno_of[key] = lineno

    def pop_int(key: str, default=None):
        if key not in values:
            return default
        try:
            return int(values.pop(key))
        except ValueError:
            _fail(lineno_of[key], f"{key} must be an integer")

    algorithm = values.pop("algorithm", None)
    if algorithm is None:
        _fail(1, "missing required key 'algorithm'")
    if algorithm not in ALGORITHMS:
        _fail(lineno_of["algorithm"], f"unknown algorithm {algorithm!r}")
    n = pop_int("n")
    if n is None:
        _fail(1, "missing required key 'n'")
    if n < 1:
        _fail(lineno_of["n"], "n must be >= 1")

    sc = Scenario(algorithm=algorithm, n=n, sessions=sessions)

    if "schedule" in values:
        sched = values.pop("schedule")
        if sched not in SCHEDULES:
            _fail(lineno_of["schedule"], f"unknown schedule {sched!r}")
        sc.schedule = sched
    for key in _INT_KEYS:
        setattr(sc, key, pop_int(key, getattr(sc, key)))
    for key, low in LOWER_BOUNDS.items():
        if getattr(sc, key) is not None and getattr(sc, key) < low:
            _fail(lineno_of[key], f"{key} must be >= {low}")

    if "initial_color" in values:
        color = values.pop("initial_color")
        if color not in (BLACK, WHITE):
            _fail(lineno_of["initial_color"], f"initial_color must be black or white")
        if algorithm != "bwbgme":
            _fail(lineno_of["initial_color"], "initial_color applies only to bwbgme")
        sc.initial_color = color
    if "mutant" in values:
        mutant = values.pop("mutant")
        if mutant in ("none", ""):
            mutant = None
        if mutant not in MUTANTS:
            _fail(lineno_of["mutant"], f"unknown mutant {mutant!r}")
        if algorithm != "bwbgme" and mutant is not None:
            _fail(lineno_of["mutant"], "mutant applies only to bwbgme")
        sc.mutant = mutant
    if "script" in values:
        try:
            sc.script = tuple(int(tok) for tok in values.pop("script").split())
        except ValueError:
            _fail(lineno_of["script"], "script must be a list of pids")

    for key in values:
        _fail(lineno_of[key], f"unknown key {key!r}")

    for pid in sessions:
        if not 1 <= pid <= n:
            _fail(lineno_of[f"sessions[{pid}]"], f"process index {pid} outside 1..{n}")
        for s in sessions[pid]:
            if s <= 0:
                _fail(lineno_of[f"sessions[{pid}]"], "session numbers must be positive")

    for pid in sc.script:
        if not 1 <= pid <= n:
            _fail(lineno_of["script"], f"script pid {pid} outside 1..{n}")
    if sc.schedule == "scripted" and not sc.script:
        _fail(1, "schedule = scripted requires a script")
    if sc.schedule == "adversarial":
        # The adversarial pid sequence is computed for bl with exactly one
        # invocation per process; on any other workload it drives some
        # other run, or stops before the work is done.
        if algorithm != "bl":
            _fail(lineno_of["schedule"], "the adversarial schedule only drives bl")
        if n < 2:
            _fail(lineno_of["schedule"], "the adversarial schedule needs n >= 2")
        for pid in range(1, n + 1):
            if pid not in sessions:
                _fail(lineno_of["schedule"],
                      f"the adversarial schedule needs sessions[{pid}] (one invocation)")
            if len(sessions[pid]) != 1:
                _fail(lineno_of[f"sessions[{pid}]"],
                      "the adversarial schedule needs exactly one invocation per process")
    if sc.fairness_window is not None and sc.fairness_window < n:
        _fail(lineno_of["fairness_window"], f"fairness_window must be >= n = {n}")
    return sc


def load_scenario(path: str) -> Scenario:
    """Parse the scenario file at path, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text ({exc.reason})")
    return parse_scenario(text)
