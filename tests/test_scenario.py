"""Scenario file parsing and validation."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmesim import Scenario, parse_scenario
from gmesim.bwbgme import MUTANTS
from gmesim.cli import main
from gmesim.errors import ScenarioError
from gmesim.scenario import ALGORITHMS, SCHEDULES

GOOD = """gmesim-scenario v1
algorithm = bwbgme
n = 3
schedule = random
seed = 9
fairness_window = 12
initial_color = black
cs_steps = 2
step_cap = 5000
sessions[1] = 1 2   # two invocations
sessions[2] = 2
sessions[3] = 1
"""


def test_parse_good_scenario():
    sc = parse_scenario(GOOD)
    assert sc.algorithm == "bwbgme" and sc.n == 3
    assert sc.schedule == "random" and sc.seed == 9 and sc.fairness_window == 12
    assert sc.initial_color == "black" and sc.cs_steps == 2
    assert sc.sessions == {1: [1, 2], 2: [2], 3: [1]}
    wl = sc.build_workload()
    assert wl.sessions[0] == [1, 2] and wl.cs_steps == 2


def test_config_hash_is_stable():
    assert parse_scenario(GOOD).config_hash == parse_scenario(GOOD).config_hash
    other = GOOD.replace("seed = 9", "seed = 10")
    assert parse_scenario(other).config_hash != parse_scenario(GOOD).config_hash


def test_config_hash_names_the_explore_caps():
    base = parse_scenario(GOOD).config_hash
    for cap, value in (("max_states", 40), ("max_depth", 12)):
        capped = parse_scenario(GOOD)
        setattr(capped, cap, value)
        assert capped.config_hash != base, cap
    # a cap left at its default hashes as if unset
    explicit = parse_scenario(GOOD + "max_states = 2000000\n")
    assert explicit.config_hash == base


def test_config_hash_resolves_the_initial_color():
    white = parse_scenario(GOOD.replace("initial_color = black", "initial_color = white"))
    unset = parse_scenario(GOOD.replace("initial_color = black\n", ""))
    assert white.config_hash == unset.config_hash
    assert parse_scenario(GOOD).config_hash != unset.config_hash


@st.composite
def scenarios(draw, algorithm=None, schedule=None, n=None):
    """A valid Scenario: each key that depends on the algorithm or the
    schedule is drawn only where they read it.  The algorithm, schedule
    and n are drawn too, unless given."""
    algorithm = algorithm or draw(st.sampled_from(ALGORITHMS))
    schedule = schedule or draw(st.sampled_from(
        SCHEDULES if algorithm == "bl" else SCHEDULES[:-1]))
    n = n or draw(st.integers(2 if schedule == "adversarial" else 1, 5))
    pids = range(1, n + 1)
    if schedule == "adversarial":
        sessions = {pid: [draw(st.integers(1, 4))] for pid in pids}
    else:
        sessions = draw(st.dictionaries(st.sampled_from(pids),
                                        st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    random, bwbgme = schedule == "random", algorithm == "bwbgme"
    return Scenario(
        algorithm, n, sessions, schedule,
        seed=draw(st.integers(0, 2**31)) if random else 0,
        fairness_window=draw(st.none() | st.integers(n, 4 * n + 2)) if random else None,
        initial_color=draw(st.sampled_from([None, "black", "white"])) if bwbgme else None,
        mutant=draw(st.sampled_from(MUTANTS)) if bwbgme else None,
        cs_steps=draw(st.integers(0, 3)),
        step_cap=draw(st.sampled_from([0, 1000, 1_000_000])),
        max_states=draw(st.sampled_from([1, 40, 2_000_000])),
        max_depth=draw(st.sampled_from([None, 0, 12])),
        script=(tuple(draw(st.lists(st.sampled_from(pids), min_size=1, max_size=6)))
                if schedule == "scripted" else ()))


def scenario_text(sc) -> str:
    """The scenario file that sets each of sc's fields that has a value."""
    lines = ["gmesim-scenario v1"]
    for f in dataclasses.fields(sc):
        value = getattr(sc, f.name)
        if f.name == "sessions":
            lines += [f"sessions[{pid}] = {' '.join(map(str, s))}" for pid, s in value.items()]
        elif f.name == "script" and value:
            lines.append(f"script = {' '.join(map(str, value))}")
        elif value not in (None, ()):
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def same_configuration(a, b) -> bool:
    """Equal fields, an explicit white counting as an unset colour and an
    explicit 4n as an unset fairness window."""
    def resolved(sc):
        color = None if sc.initial_color == "white" else sc.initial_color
        window = None if sc.fairness_window == 4 * sc.n else sc.fairness_window
        return dataclasses.replace(sc, initial_color=color, fairness_window=window)
    return resolved(a) == resolved(b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_hash_names_one_configuration(data):
    sc = data.draw(scenarios())
    parsed = parse_scenario(scenario_text(sc))
    assert parsed == sc and parsed.config_hash == sc.config_hash
    # another scenario, and sc with one key drawn again under its
    # algorithm, schedule and n
    other = data.draw(scenarios())
    key = data.draw(st.sampled_from(
        [f.name for f in dataclasses.fields(sc) if f.name not in ("algorithm", "schedule", "n")]))
    again = data.draw(scenarios(sc.algorithm, sc.schedule, sc.n))
    one_key = dataclasses.replace(sc, **{key: getattr(again, key)})
    for b in (other, one_key):
        assert (b.config_hash == sc.config_hash) == same_configuration(sc, b), (sc, b)
    # a random schedule's window of 4n is the one it runs when none is set
    if sc.schedule == "random":
        explicit = dataclasses.replace(sc, fairness_window=4 * sc.n)
        unset = dataclasses.replace(sc, fairness_window=None)
        assert explicit.config_hash == unset.config_hash, sc
        assert explicit.build_schedule().window == unset.build_schedule().window, sc


def err(text):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    return info.value


def test_header_required():
    assert err("algorithm = glb\nn = 2\n").lineno == 1


def test_error_carries_line_number():
    bad = GOOD.replace("seed = 9", "seed = nine")
    assert err(bad).lineno == 5


def test_unknown_key_rejected():
    assert "unknown key" in str(err(GOOD + "turbo = on\n"))
    # glb's tokens need no cap (each is at most the invocation count), so
    # no key sets one
    error = err(GOOD + "token_cap = 5\n")
    assert "unknown key 'token_cap'" in str(error) and error.lineno == 13


def test_unknown_algorithm_rejected():
    assert "unknown algorithm" in str(err(GOOD.replace("bwbgme", "dekker")))


def test_algorithm_specific_fields_enforced():
    bad = GOOD.replace("algorithm = bwbgme", "algorithm = glb")
    assert "initial_color" in str(err(bad))


def test_session_values_validated():
    assert "positive" in str(err(GOOD.replace("sessions[2] = 2", "sessions[2] = 0")))
    assert "outside" in str(err(GOOD + "sessions[9] = 1\n"))
    assert "outside" in str(err(GOOD + "sessions[09] = 1\n"))
    repeated = err(GOOD + "sessions[2] = 1\n")
    assert "duplicate" in str(repeated) and repeated.lineno == 13


def test_out_of_range_values_rejected_with_line_number():
    base = GOOD.replace("cs_steps = 2\n", "").replace("step_cap = 5000\n", "")
    for key, low in (("cs_steps", 0), ("step_cap", 0), ("max_states", 1),
                     ("max_depth", 0)):
        error = err(base + f"{key} = {low - 1}\n")
        assert f"{key} must be >= {low}" in str(error) and error.lineno == 11, key
        assert getattr(parse_scenario(base + f"{key} = {low}\n"), key) == low
    # schedules that could not be driven to the end are rejected here too,
    # not when the run starts or stops short
    adversarial = ("gmesim-scenario v1\nalgorithm = bl\nn = 3\nschedule = adversarial\n"
                   "sessions[1] = 1\nsessions[2] = 2\nsessions[3] = 3\n")
    parse_scenario(adversarial)
    scripted = adversarial.replace("adversarial", "scripted") + "script = 1 2 3\n"
    parse_scenario(scripted)
    for text, message, lineno in (
            ("gmesim-scenario v1\nalgorithm = bl\nn = 1\nschedule = adversarial\n"
             "sessions[1] = 1\n", "needs n >= 2", 4),
            (adversarial.replace("sessions[3] = 3\n", ""), "needs sessions[3]", 4),
            (adversarial.replace("sessions[1] = 1", "sessions[1] = 1 1"),
             "exactly one invocation per process", 5),
            (scripted.replace("1 2 3", "1 9"), "script pid 9 outside 1..3", 8)):
        error = err(text)
        assert message in str(error) and error.lineno == lineno, (message, str(error))


GLB = GOOD.replace("algorithm = bwbgme", "algorithm = glb").replace("initial_color = black\n", "")
ROUND_ROBIN = GOOD.replace("schedule = random", "schedule = round_robin")


@pytest.mark.parametrize("text, message, lineno", [
    (GOOD + "turbo\n", "expected 'key = value'", 13),
    (GOOD + "sessions[x] = 1\n", "bad process index in 'sessions[x]'", 13),
    (GOOD.replace("sessions[2] = 2", "sessions[2] = two"),
     "sessions must be integers, got 'two'", 11),
    (GOOD + "seed = 3\n", "duplicate key 'seed'", 13),
    (GOOD.replace("algorithm = bwbgme\n", ""), "missing required key 'algorithm'", 1),
    (GOOD.replace("n = 3\n", ""), "missing required key 'n'", 1),
    (GOOD.replace("n = 3", "n = 0"), "n must be >= 1", 3),
    # random.Random seeds on the absolute value, so -1 would run as 1
    # under another config hash
    (GOOD.replace("seed = 9", "seed = -1"), "seed must be >= 0", 5),
    (GOOD.replace("schedule = random", "schedule = lottery"), "unknown schedule 'lottery'", 4),
    (GOOD.replace("initial_color = black", "initial_color = grey"),
     "initial_color must be black or white", 7),
    (GOOD + "mutant = no_guard\n", "unknown mutant 'no_guard'", 13),
    (GLB + "mutant = no_number_guard\n", "mutant applies only to bwbgme", 12),
    (GOOD + "script = 1 two\n", "script must be a list of pids", 13),
    # a key that the chosen schedule never reads would only change the hash
    (ROUND_ROBIN, "seed applies only to the random schedule", 5),
    (ROUND_ROBIN.replace("seed = 9\n", ""),
     "fairness_window applies only to the random schedule", 5),
    (GOOD + "script = 1 2\n", "script applies only to the scripted schedule", 13),
])
def test_bad_input_rejected_with_its_line(text, message, lineno):
    error = err(text)
    assert (str(error), error.lineno) == (f"line {lineno}: {message}", lineno)


def test_mutant_none_is_no_mutant():
    sc = parse_scenario(GOOD + "mutant = none\n")
    assert sc.mutant is None and sc.config_hash == parse_scenario(GOOD).config_hash
    assert parse_scenario(GLB + "mutant = none\n").mutant is None


def test_window_must_cover_n():
    assert "fairness_window" in str(err(GOOD.replace("fairness_window = 12",
                                                     "fairness_window = 2")))


def test_scripted_needs_script():
    bad = GOOD.replace("schedule = random", "schedule = scripted").replace(
        "seed = 9\nfairness_window = 12\n", "")
    assert "script" in str(err(bad))


def test_adversarial_only_for_bl():
    bad = GOOD.replace("schedule = random", "schedule = adversarial").replace(
        "seed = 9\nfairness_window = 12\n", "")
    assert "adversarial" in str(err(bad))


def test_unknown_monitor_rejected(tmp_path, capsys):
    # The algorithm alone decides what a run is checked for, so a line
    # that names monitors is an unknown key.
    path = tmp_path / "monitors.scn"
    path.write_text(GOOD.replace("step_cap = 5000\n", "step_cap = 5000\nmonitors = me\n"))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "scenario error: line 10: unknown key 'monitors'\n"
