"""Scenario file parsing and validation."""

import pytest

from gmesim import parse_scenario
from gmesim.errors import ScenarioError

GOOD = """gmesim-scenario v1
algorithm = bwbgme
n = 3
schedule = random
seed = 9
fairness_window = 12
initial_color = black
cs_steps = 2
step_cap = 5000
monitors = me,flip,token_bound
sessions[1] = 1 2   # two invocations
sessions[2] = 2
sessions[3] = 1
"""


def test_parse_good_scenario():
    sc = parse_scenario(GOOD)
    assert sc.algorithm == "bwbgme" and sc.n == 3
    assert sc.schedule == "random" and sc.seed == 9 and sc.fairness_window == 12
    assert sc.initial_color == "black" and sc.cs_steps == 2
    assert sc.monitors == ("me", "flip", "token_bound")
    assert sc.sessions == {1: [1, 2], 2: [2], 3: [1]}
    wl = sc.build_workload()
    assert wl.invocations[0] == [(1, 2), (2, 2)]
    assert len(sc.build_monitors()) == 3


def test_config_hash_is_stable():
    assert parse_scenario(GOOD).config_hash == parse_scenario(GOOD).config_hash
    other = GOOD.replace("seed = 9", "seed = 10")
    assert parse_scenario(other).config_hash != parse_scenario(GOOD).config_hash


def test_config_hash_names_the_explore_caps():
    base = parse_scenario(GOOD).config_hash
    for cap, value in (("max_states", 40), ("max_depth", 12), ("token_cap", 5)):
        capped = parse_scenario(GOOD)
        setattr(capped, cap, value)
        assert capped.config_hash != base, cap
    # a cap left at its default hashes as if unset
    explicit = parse_scenario(GOOD + "max_states = 2000000\n")
    assert explicit.config_hash == base
    # glb's token cap defaults to 4 * N * invocations (3 * 4 here)
    glb = GOOD.replace("bwbgme", "glb").replace("initial_color = black\n", "") \
        .replace("monitors = me,flip,token_bound", "monitors = me")
    unset = parse_scenario(glb).config_hash
    assert parse_scenario(glb + "token_cap = 48\n").config_hash == unset
    assert parse_scenario(glb + "token_cap = 47\n").config_hash != unset


def test_config_hash_resolves_the_initial_color():
    white = parse_scenario(GOOD.replace("initial_color = black", "initial_color = white"))
    unset = parse_scenario(GOOD.replace("initial_color = black\n", ""))
    assert white.config_hash == unset.config_hash
    assert parse_scenario(GOOD).config_hash != unset.config_hash


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
    assert "duplicate" in str(repeated) and repeated.lineno == 14


def test_out_of_range_values_rejected_with_line_number():
    base = GOOD.replace("cs_steps = 2\n", "").replace("step_cap = 5000\n", "")
    for key, low in (("cs_steps", 0), ("step_cap", 0), ("max_states", 1),
                     ("max_depth", 0), ("token_cap", 0)):
        error = err(base + f"{key} = {low - 1}\n")
        assert f"{key} must be >= {low}" in str(error) and error.lineno == 12, key
        assert getattr(parse_scenario(base + f"{key} = {low}\n"), key) == low


def test_window_must_cover_n():
    assert "fairness_window" in str(err(GOOD.replace("fairness_window = 12",
                                                     "fairness_window = 2")))


def test_scripted_needs_script():
    bad = GOOD.replace("schedule = random", "schedule = scripted")
    assert "script" in str(err(bad))


def test_adversarial_only_for_bl():
    bad = GOOD.replace("schedule = random", "schedule = adversarial")
    assert "adversarial" in str(err(bad))


def test_unknown_monitor_rejected():
    bad = GOOD.replace("monitors = me,flip,token_bound", "monitors = me,psychic")
    assert "unknown monitor" in str(err(bad))
