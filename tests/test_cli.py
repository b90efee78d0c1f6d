import argparse
import json
import math
from dataclasses import replace

import pytest

import rsp_sim.cli as cli
from rsp_sim import GridSpec, PRESETS, ScenarioConfig, ZeroProbabilityError, list_presets
from rsp_sim import scenarios
from rsp_sim.config import EXPERIMENTS

EXPECTED_PRESETS = [
    "eq10_general_n",
    "eq7_mixed_sweep",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "fig2e",
    "fig2f",
    "fig3_populations",
    "table1_chsh",
]


def test_list_presets_names(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert out == EXPECTED_PRESETS
    assert list_presets() == EXPECTED_PRESETS


def test_chsh_run_from_config(tmp_path):
    cfg = tmp_path / "chsh.json"
    cfg.write_text(json.dumps({"experiment": "chsh", "n_pairs": 2, "seed": 1}))
    out = tmp_path / "chsh_out.json"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert abs(record["summary"]["chsh"] - 2.8284271) < 1e-6
    assert record["timestamp"] is None
    assert set(record) == {"points", "scenario", "summary", "timestamp", "tool_version"}


def test_phase_fringe_csv_columns_and_peak(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "experiment = phase_fringe\n"
        "theta = pi/2\n"
        "grid_start = 0\n"
        "grid_stop = 2*pi\n"
        "grid_points = 24\n"
        "seed = 1\n"
        "format = csv\n"
    )
    out = tmp_path / "scan.csv"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "phi,probability"
    rows = [ln.split(",") for ln in lines[header_idx + 1 :]]
    assert len(rows) == 24
    best = max(rows, key=lambda r: float(r[1]))
    assert abs(float(best[0]) - math.pi / 2) < 0.3  # grid point nearest the peak
    summary = {
        ln.split(" = ")[0]: ln.split(" = ")[1]
        for ln in lines[:header_idx]
        if ln.startswith("# summary.")
    }
    assert abs(float(summary["# summary.visibility"]) - 1.0) < 1e-9
    assert abs(float(summary["# summary.offset"]) - math.pi / 2) < 1e-9


def test_invalid_gamma_exits_2_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = chsh\ngamma = abc\n")
    assert cli.main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2
    assert err["error"]["kind"] == "schema"
    assert list(tmp_path.iterdir()) == [cfg]  # nothing written


def test_nan_angle_exits_2_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"experiment": "populations", "gamma": NaN}')
    assert cli.main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2
    assert err["error"]["kind"] == "schema"
    assert list(tmp_path.iterdir()) == [cfg]  # nothing written


@pytest.mark.parametrize(
    "gamma",
    [
        pytest.param("-" * 5000 + "1", id="deep-unary"),
        pytest.param("1" + "*1" * 200000, id="long-product"),
    ],
)
def test_oversized_angle_expression_exits_2(gamma, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(f"experiment = populations\ngamma = {gamma}\n")
    assert cli.main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "schema"
    assert list(tmp_path.iterdir()) == [cfg]  # nothing written


@pytest.mark.parametrize("output", ['{"a": 1}', "5", '["out.json"]'])
def test_non_string_output_exits_2(output, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "out.json"
    cfg.write_text(f'{{"experiment": "chsh", "output": {output}}}')
    assert cli.main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "schema"
    assert "output" in err["error"]["message"]
    assert list(tmp_path.iterdir()) == [cfg]  # nothing written


def test_source_size_past_float_range_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("experiment = populations\nn_pairs = 99\n")
    assert cli.main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2
    assert err["error"]["kind"] == "schema"
    assert "n_pairs" in err["error"]["message"]
    assert list(tmp_path.iterdir()) == [cfg]  # nothing written


def test_json_rendering_refuses_nan():
    record = cli.run_scenario(PRESETS["fig3_populations"])
    record["summary"]["bad"] = math.nan
    with pytest.raises(ValueError):
        cli.render_json(record)


def test_csv_rendering_refuses_nan():
    record = cli.run_scenario(PRESETS["fig3_populations"])
    record["summary"]["bad"] = math.nan
    with pytest.raises(ValueError):
        cli.render_csv(record)
    del record["summary"]["bad"]
    record["points"][0]["population"] = math.inf
    with pytest.raises(ValueError):
        cli.render_csv(record)


_GRID = GridSpec(0.0, 1.0, 3)
SMALL_CONFIGS = {
    "chsh": ScenarioConfig(experiment="chsh"),
    "phase_fringe": ScenarioConfig(experiment="phase_fringe", grid=_GRID),
    "amplitude_fringe": ScenarioConfig(experiment="amplitude_fringe", grid=_GRID),
    "mixed_state": ScenarioConfig(experiment="mixed_state", grid=_GRID),
    "populations": ScenarioConfig(experiment="populations"),
    "general_n": ScenarioConfig(experiment="general_n", grid=GridSpec(1, 2, 2), trials=2),
    "distinguishability_demo": ScenarioConfig(
        experiment="distinguishability_demo", distinguishability=0.5
    ),
}


@pytest.mark.parametrize("sampled", [False, True], ids=["plain", "sampled"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_csv_header_is_the_keys_every_point_shares(experiment, sampled):
    config = SMALL_CONFIGS[experiment]
    if sampled:
        config = replace(config, shots=1000, seed=3)
    record = cli.run_scenario(config)
    keys = list(record["points"][0])
    assert all(list(point) == keys for point in record["points"])
    rows = [ln for ln in cli.render_csv(record).splitlines() if not ln.startswith("#")]
    assert rows[0] == ",".join(keys)
    assert len(rows) == 1 + len(record["points"])


def test_unknown_preset_exits_2(capsys):
    assert cli.main(["preset", "fig9z"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "schema"


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 2


def test_io_failure_exits_4(tmp_path, capsys):
    cfg = tmp_path / "chsh.json"
    cfg.write_text(json.dumps({"experiment": "chsh", "seed": 1}))
    target = tmp_path / "no_such_dir" / "out.json"
    assert cli.main(["run", str(cfg), "--out", str(target)]) == 4
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "io"


def test_zero_probability_exits_3(tmp_path, capsys, monkeypatch):
    def boom(config):
        raise ZeroProbabilityError("conditioning on an impossible outcome")

    monkeypatch.setattr(cli, "run_scenario", boom)
    cfg = tmp_path / "chsh.json"
    cfg.write_text(json.dumps({"experiment": "chsh", "seed": 1}))
    assert cli.main(["run", str(cfg)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "zero_probability"


def test_preset_fig2a_summary(tmp_path):
    out = tmp_path / "fig2a.json"
    assert cli.main(["preset", "fig2a", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["scenario"]["theta"] == 0.0
    assert record["scenario"]["p_strength"] == 0.938
    assert abs(record["summary"]["visibility"] - 0.938) < 1e-9
    assert len(record["points"]) == 24


def test_preset_table1_chsh_band(tmp_path):
    out = tmp_path / "t1.json"
    assert cli.main(["preset", "table1_chsh", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert abs(record["summary"]["chsh"] - 2.71) <= 0.09
    signs = [p["correlation"] for p in record["points"]]
    assert signs[0] < 0 < min(signs[1:])


def test_preset_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["preset", "fig3_populations"]) == 0
    record = json.loads((tmp_path / "fig3_populations.json").read_text())
    pops = {p["component"]: p["population"] for p in record["points"]}
    assert abs(pops["2H,1V"] - 0.5) < 1e-12
    assert abs(pops["1H,2V"] - 0.5) < 1e-12
    assert pops["3H,0V"] == 0.0
    assert pops["0H,3V"] == 0.0


def test_shots_override_adds_sampled_columns(tmp_path):
    out = tmp_path / "sampled.csv"
    code = cli.main(
        ["preset", "fig2a", "--out", str(out), "--format", "csv",
         "--shots", "2000", "--seed", "17"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "phi,probability,counts,estimated_probability"
    run2 = tmp_path / "sampled2.csv"
    cli.main(
        ["preset", "fig2a", "--out", str(run2), "--format", "csv",
         "--shots", "2000", "--seed", "17"]
    )
    assert run2.read_text() == out.read_text()


def test_stdout_when_no_output_given(tmp_path, capsys):
    cfg = tmp_path / "chsh.json"
    cfg.write_text(json.dumps({"experiment": "chsh", "seed": 1}))
    assert cli.main(["run", str(cfg)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "summary" in record


def test_csv_uses_12_significant_digits(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["preset", "eq7_mixed_sweep", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "p,purity,fidelity,entry_error"
    row = lines[header_idx + 4].split(",")  # p = 0.3
    assert row[0] == "0.3"
    assert row[1] == format((1 + 0.3 ** 2) / 2, ".12g")


def test_every_preset_is_deterministic_and_fast(tmp_path):
    import time

    for name in EXPECTED_PRESETS:
        for fmt in ("json", "csv"):
            a = tmp_path / f"{name}_a.{fmt}"
            b = tmp_path / f"{name}_b.{fmt}"
            start = time.perf_counter()
            assert cli.main(["preset", name, "--out", str(a), "--format", fmt]) == 0
            assert time.perf_counter() - start < 5.0
            assert cli.main(["preset", name, "--out", str(b), "--format", fmt]) == 0
            assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", EXPECTED_PRESETS)
def test_preset_bytes_do_not_depend_on_the_shared_state_memo(name, tmp_path):
    # the first run heralds its source sizes, the second reuses them
    for fmt in ("json", "csv"):
        scenarios._shared_state.cache_clear()
        cold, warm = tmp_path / f"cold.{fmt}", tmp_path / f"warm.{fmt}"
        assert cli.main(["preset", name, "--out", str(cold), "--format", fmt]) == 0
        misses = scenarios._shared_state.cache_info().misses
        assert cli.main(["preset", name, "--out", str(warm), "--format", fmt]) == 0
        assert scenarios._shared_state.cache_info().misses == misses
        assert cold.read_bytes() == warm.read_bytes()


GOLDEN_HEADERS = {
    "table1_chsh": "s_obs,t_obs,correlation,n_pp,n_pm,n_mp,n_mm",
    "fig2a": "phi,probability",
    "fig2d": "delta,probability",
    "fig3_populations": "component,population",
    "eq7_mixed_sweep": "p,purity,fidelity,entry_error",
    "eq10_general_n": "n,trial,gamma,theta,p,pure_overlap_error,mixed_entry_error",
}


def test_golden_csv_headers(tmp_path):
    for name, header in GOLDEN_HEADERS.items():
        out = tmp_path / f"{name}.csv"
        assert cli.main(["preset", name, "--out", str(out), "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert next(ln for ln in lines if not ln.startswith("#")) == header
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(
        "experiment = distinguishability_demo\ndistinguishability = 0.5\nseed = 1\nformat = csv\n"
    )
    out = tmp_path / "demo.csv"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert next(ln for ln in lines if not ln.startswith("#")) == "component,population,tagged"
    summary = {
        ln.split(" = ")[0]: ln.split(" = ")[1]
        for ln in lines
        if ln.startswith("# summary.")
    }
    assert abs(float(summary["# summary.tagged_population"]) - 0.625) < 1e-9


def test_all_presets_have_seeds():
    for name, config in PRESETS.items():
        assert config.seed is not None, name


def test_json_records_validate_against_shipped_schema(tmp_path):
    jsonschema = __import__("jsonschema")
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "result-schema.json").read_text()
    )
    validator = jsonschema.Draft202012Validator(schema)
    for name in EXPECTED_PRESETS:
        out = tmp_path / f"{name}.json"
        assert cli.main(["preset", name, "--out", str(out)]) == 0
        validator.validate(json.loads(out.read_text()))


def test_mixed_state_runs_where_one_branch_vanishes(tmp_path):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps({"experiment": "mixed_state", "gamma": 0, "seed": 1,
                               "grid": {"start": 0, "stop": 1, "points": 3}}))
    out = tmp_path / "mixed_out.json"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert max(summary.values()) < 1e-12


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        # the subcommands' parsers have progs such as "rsp-sim run"
        if kwargs.get("prog") == "rsp-sim":
            built.append(kwargs["prog"])
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert cli.main(["list-presets"]) == 0
    # each call parses into its own namespace: an --out or --format given
    # once does not carry over to the next call
    assert cli.main(["preset", "fig3_populations", "--out", "first.json"]) == 0
    assert cli.main(["preset", "fig3_populations", "--format", "csv"]) == 0
    assert cli.main(["preset", "fig3_populations"]) == 0
    assert cli.main(["preset", "no-such-preset"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig3_populations.csv",
        "fig3_populations.json",
        "first.json",
    ]
    assert built == ["rsp-sim"]
    capsys.readouterr()
