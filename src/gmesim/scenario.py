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

Unknown keys, malformed values, values out of bounds, and keys that the
chosen algorithm or schedule does not read (a seed outside `random`, a
colour outside bwbgme) are rejected with the offending line number;
`Scenario.check` states each rule once.  What a run is checked for
follows from the algorithm alone (`gmesim.monitors.CHECKS`), so there
is no key to choose monitors.
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

# Each setting but the sessions, once: the values it may take (its
# lowest value, or its choices; None where a rule in Scenario.check
# relates it to n) and the algorithm or schedule that reads it (None:
# every one).  A setting that the scenario's algorithm or schedule does
# not read must keep its default.
SETTINGS = {
    "algorithm": (ALGORITHMS, None),
    "n": (1, None),
    "schedule": (SCHEDULES, None),
    "seed": (0, "random"),
    "fairness_window": (None, "random"),
    "initial_color": ((None, BLACK, WHITE), "bwbgme"),
    "mutant": (MUTANTS, "bwbgme"),
    "cs_steps": (0, None),
    "step_cap": (0, None),
    "max_states": (1, None),
    "max_depth": (0, None),
    "script": (None, "scripted"),
}


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
        # The color and the window are named only when they differ from
        # the white and the 4n that an unset one means, so an explicit
        # default hashes as unset.
        color = None if self.initial_color == WHITE else self.initial_color
        window = None if self.fairness_window == 4 * self.n else self.fairness_window
        lines = [HEADER,
                 f"algorithm = {self.algorithm}",
                 f"n = {self.n}",
                 f"schedule = {self.schedule}",
                 f"seed = {self.seed}",
                 f"fairness_window = {window}",
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
        for cap in ("max_states", "max_depth"):
            if getattr(self, cap) != _DEFAULTS[cap]:
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

    def check(self, fail, name=lambda key: key) -> None:
        """Reject a setting that breaks a rule: fail(key, message) raises
        for the key at fault, and name(key) is how a message names a key
        (a file names it by itself, the command line by its flag)."""
        for key, (allowed, reader) in SETTINGS.items():
            value = getattr(self, key)
            if isinstance(allowed, int) and value is not None and value < allowed:
                fail(key, f"{name(key)} must be >= {allowed}")
            if isinstance(allowed, tuple) and value not in allowed:
                fail(key, "initial_color must be black or white" if key == "initial_color"
                     else f"unknown {key} {value!r}")
            if reader not in (None, self.algorithm, self.schedule) and value != _DEFAULTS[key]:
                where = f"the {reader} schedule" if reader in SCHEDULES else reader
                fail(key, f"{name(key)} applies only to {where}")

        n = self.n
        for pid, sessions in self.sessions.items():
            if not 1 <= pid <= n:
                fail(f"sessions[{pid}]", f"process index {pid} outside 1..{n}")
            if any(s <= 0 for s in sessions):
                fail(f"sessions[{pid}]", "session numbers must be positive")
        for pid in self.script:
            if not 1 <= pid <= n:
                fail("script", f"script pid {pid} outside 1..{n}")
        if self.schedule == "scripted" and not self.script:
            fail("script", "schedule = scripted requires a script")
        if self.schedule == "adversarial":
            # The adversarial pid sequence is computed for bl with exactly one
            # invocation per process; on any other workload it drives some
            # other run, or stops before the work is done.
            if self.algorithm != "bl":
                fail("schedule", "the adversarial schedule only drives bl")
            if n < 2:
                fail("schedule", f"the adversarial schedule needs {name('n')} >= 2")
            for pid in range(1, n + 1):
                if pid not in self.sessions:
                    fail("schedule",
                         f"the adversarial schedule needs sessions[{pid}] (one invocation)")
                if len(self.sessions[pid]) != 1:
                    fail(f"sessions[{pid}]",
                         "the adversarial schedule needs exactly one invocation per process")
        if self.fairness_window is not None and self.fairness_window < n:
            fail("fairness_window", f"{name('fairness_window')} must be >= n = {n}")


_DEFAULTS = {f.name: f.default for f in fields(Scenario)}


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

    settings: dict = {}
    for f in fields(Scenario):
        if f.name not in SETTINGS or f.name not in values:
            continue
        value = values.pop(f.name)
        if f.type in ("int", "Optional[int]"):
            try:
                value = int(value)
            except ValueError:
                _fail(lineno_of[f.name], f"{f.name} must be an integer")
        elif f.name == "script":
            try:
                value = tuple(int(tok) for tok in value.split())
            except ValueError:
                _fail(lineno_of["script"], "script must be a list of pids")
        elif f.name == "mutant" and value in ("none", ""):
            value = None
        settings[f.name] = value
    for key in values:
        _fail(lineno_of[key], f"unknown key {key!r}")
    for key in ("algorithm", "n"):
        if key not in settings:
            _fail(1, f"missing required key {key!r}")

    sc = Scenario(sessions=sessions, **settings)
    sc.check(lambda key, message: _fail(lineno_of.get(key, 1), message))
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
