import json
import math
from dataclasses import replace

import pytest

from rsp_sim import GridSpec, ScenarioConfig, SchemaError, load_config, parse_angle
from rsp_sim.config import (
    MAX_ANGLE_CHARS,
    MAX_GRID_POINTS,
    MAX_SHOTS,
    MAX_TRIALS,
    config_from_mapping,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi/8", math.pi / 8),
        ("3*pi/16", 3 * math.pi / 16),
        ("0.5", 0.5),
        ("2*pi", 2 * math.pi),
        ("-pi/4", -math.pi / 4),
        ("(1+2)*pi/8", 3 * math.pi / 8),
        ("pi - pi", 0.0),
    ],
)
def test_parse_angle_expressions(text, expected):
    assert abs(parse_angle(text) - expected) < 1e-15


def test_parse_angle_accepts_numbers():
    assert parse_angle(1.25) == 1.25
    assert parse_angle(3) == 3.0


@pytest.mark.parametrize(
    "bad",
    [
        "abc", "pi**2", "cos(1)", "__import__('os')", "1; 2", "e", "pi/0", True, None,
        pytest.param("True", id="str-True"), pytest.param("False", id="str-False"),
        "True*pi", "-False",
        math.nan, math.inf, "1e400", "-1e308*10",
        pytest.param(10**400, id="int-overflow"),
        pytest.param("1" + "0" * 400, id="int-literal-overflow"),
    ],
)
def test_parse_angle_rejects_everything_else(bad):
    with pytest.raises(SchemaError):
        parse_angle(bad)


def test_flat_config_round_trip(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text(
        "# phase scan\n"
        "experiment = phase_fringe\n"
        "n_pairs = 2\n"
        "gamma = pi/8\n"
        "theta = pi/2\n"
        "p_strength = 0.938\n"
        "grid_start = 0\n"
        "grid_stop = 2*pi\n"
        "grid_points = 24\n"
        "seed = 1\n"
        "format = csv\n"
    )
    config = load_config(path)
    assert config.experiment == "phase_fringe"
    assert abs(config.theta - math.pi / 2) < 1e-15
    assert config.grid.points == 24
    assert abs(config.grid.stop - 2 * math.pi) < 1e-15
    assert config.format == "csv"


def test_json_config_with_nested_grid(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "amplitude_fringe",
                "gamma": "pi/16",
                "grid": {"start": 0, "stop": "pi/2", "points": 25},
                "seed": 4,
            }
        )
    )
    config = load_config(path)
    assert config.experiment == "amplitude_fringe"
    assert abs(config.gamma - math.pi / 16) < 1e-15
    assert config.grid.points == 25


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = chsh\nbogus = 1\n")
    with pytest.raises(SchemaError, match="bogus"):
        load_config(path)


def test_invalid_angle_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = chsh\ngamma = abc\n")
    with pytest.raises(SchemaError):
        load_config(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"experiment": "populations", "gamma": NaN}',
        '{"experiment": "populations", "theta": 1e400}',
        '{"experiment": "phase_fringe", "grid": {"start": -Infinity, "stop": 1, "points": 5}}',
        '{"experiment": "phase_fringe", "grid": {"start": 0, "stop": "1e308*10", "points": 5}}',
    ],
    ids=["nan-gamma", "inf-theta", "minus-inf-grid-start", "overflowing-grid-stop"],
)
def test_non_finite_angles_rejected(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match="finite"):
        load_config(path)


def test_missing_experiment_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("gamma = pi/8\n")
    with pytest.raises(SchemaError, match="experiment"):
        load_config(path)


def test_partial_grid_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = phase_fringe\ngrid_start = 0\n")
    with pytest.raises(SchemaError, match="grid"):
        load_config(path)


def test_validation_catches_ranges():
    with pytest.raises(SchemaError):
        ScenarioConfig(experiment="nope")
    with pytest.raises(SchemaError):
        ScenarioConfig(experiment="chsh", p_strength=2.0)
    with pytest.raises(SchemaError):
        ScenarioConfig(experiment="phase_fringe")  # no grid
    with pytest.raises(SchemaError):
        ScenarioConfig(
            experiment="phase_fringe", grid=GridSpec(0, 1, 1)
        )  # too few points
    with pytest.raises(SchemaError):
        ScenarioConfig(experiment="chsh", shots=100)  # shots need a seed
    with pytest.raises(SchemaError):
        ScenarioConfig(
            experiment="general_n", grid=GridSpec(0.5, 2.5, 3)
        )  # non-integer source sizes
    ScenarioConfig(experiment="chsh")


def test_source_size_capped_where_the_splitter_overflows():
    ScenarioConfig(experiment="populations", n_pairs=98)
    ScenarioConfig(experiment="general_n", grid=GridSpec(97, 98, 2), trials=1)
    with pytest.raises(SchemaError, match="n_pairs"):
        ScenarioConfig(experiment="populations", n_pairs=99)
    with pytest.raises(SchemaError, match="general_n"):
        ScenarioConfig(experiment="general_n", grid=GridSpec(98, 99, 2), trials=1)


def test_grid_values_are_inclusive():
    grid = GridSpec(0.0, 1.0, 5)
    assert grid.values() == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize(
    "raw",
    [
        {"n_pairs": 2.7},
        {"n_pairs": True},
        {"shots": 100.5, "seed": 1},
        {"shots": 100, "seed": 1.5},
        {"trials": False},
        {"n_pairs": math.inf},
        {"n_pairs": math.nan},
        {"grid_start": 0, "grid_stop": 1, "grid_points": 3.9},
    ],
    ids=[
        "fractional-n_pairs", "bool-n_pairs", "fractional-shots", "fractional-seed",
        "bool-trials", "inf-n_pairs", "nan-n_pairs", "fractional-grid_points",
    ],
)
def test_integer_keys_reject_bools_and_fractions(raw):
    with pytest.raises(SchemaError, match="integer"):
        config_from_mapping({"experiment": "phase_fringe", "grid_start": 0,
                             "grid_stop": 1, "grid_points": 3, **raw})


@pytest.mark.parametrize("value", [True, False, "half", None])
@pytest.mark.parametrize("key", ["p_strength", "distinguishability"])
def test_number_keys_reject_bools_and_non_numbers(key, value):
    with pytest.raises(SchemaError, match=f"{key} must be a number"):
        config_from_mapping({"experiment": "chsh", key: value})


def test_integer_keys_accept_integral_numbers_and_strings():
    config = config_from_mapping(
        {"experiment": "general_n", "grid_start": 1, "grid_stop": 2,
         "grid_points": 2.0, "trials": "3", "seed": 0}
    )
    assert (config.grid.points, config.trials, config.seed) == (2, 3, 0)


def test_work_caps_reject_unbounded_configs():
    fringe = {"experiment": "phase_fringe", "grid_start": 0, "grid_stop": 1}
    config_from_mapping({**fringe, "grid_points": MAX_GRID_POINTS})
    ScenarioConfig(experiment="chsh", shots=MAX_SHOTS, seed=1)
    ScenarioConfig(experiment="chsh", trials=MAX_TRIALS)
    with pytest.raises(SchemaError, match="grid points"):
        config_from_mapping({**fringe, "grid_points": 1e20})
    with pytest.raises(SchemaError, match="shots"):
        ScenarioConfig(experiment="chsh", shots=10**20, seed=1)
    with pytest.raises(SchemaError, match="trials"):
        ScenarioConfig(experiment="chsh", trials=MAX_TRIALS + 1)
    with pytest.raises(SchemaError, match="seed"):
        ScenarioConfig(experiment="chsh", seed=-1)


def test_mixed_state_grid_is_checked_before_the_run():
    config_from_mapping(
        {"experiment": "mixed_state", "grid_start": 0, "grid_stop": 1, "grid_points": 5}
    )
    with pytest.raises(SchemaError, match="mixed_state"):
        config_from_mapping(
            {"experiment": "mixed_state", "grid_start": 0, "grid_stop": 1.5, "grid_points": 4}
        )


def test_angle_expression_length_is_capped():
    # the longest accepted expression nests as deep as it is long
    assert parse_angle("-" * (MAX_ANGLE_CHARS - 1) + "1") == -1.0
    with pytest.raises(SchemaError, match="characters"):
        parse_angle("-" * MAX_ANGLE_CHARS + "1")


@pytest.mark.parametrize("experiment", ["chsh", "populations", "distinguishability_demo"])
def test_grid_refused_where_the_experiment_uses_none(experiment):
    with pytest.raises(SchemaError, match="takes no grid"):
        config_from_mapping(
            {"experiment": experiment, "grid_start": 0, "grid_stop": 1, "grid_points": -3}
        )
    with pytest.raises(SchemaError, match="takes no grid"):
        ScenarioConfig(experiment=experiment, grid=GridSpec(0.0, 1.0, 5))


def test_replace_rechecks_every_override():
    config = ScenarioConfig(experiment="chsh", seed=1)
    assert replace(config, shots=10).shots == 10
    with pytest.raises(SchemaError, match="shots"):
        replace(config, shots=0)
    with pytest.raises(SchemaError, match="seed"):
        replace(config, shots=10, seed=None)
