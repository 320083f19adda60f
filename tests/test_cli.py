"""Tests for the CLI, config handling and the Monte Carlo harness."""

import dataclasses
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import rcmkf
from rcmkf import conversion
from rcmkf.cli import _write_csv, main
from rcmkf.config import (
    _CASES,
    ConfigError,
    ExperimentConfig,
    ScenarioConfig,
    build_scenario,
    config_from_dict,
    config_to_dict,
    default_golden_grid,
    default_sigma_grid,
)
from rcmkf.conversion import ConversionMethod
from rcmkf.filtering import FilterVariant
from rcmkf.montecarlo import run_ensemble


def small_scenario(runs=4, steps=30, seed=42):
    return dataclasses.replace(rcmkf.generate_case(1), runs=runs, steps=steps, seed=seed)


def test_run_ensemble_deterministic_and_parallel_invariant():
    sc = small_scenario(seed=7)
    variants = (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D)
    a = run_ensemble(sc, variants)
    b = run_ensemble(sc, variants)
    # a run does not depend on how many runs are filtered in lockstep beside it
    c = run_ensemble(dataclasses.replace(sc, runs=2), variants)
    for x, y in ((a, b), (a, c)):
        assert x.variants == y.variants == variants
        for f in ("truth", "measurements", "means", "covs", "updated"):
            np.testing.assert_array_equal(getattr(x, f)[: len(y.truth)], getattr(y, f), err_msg=f)
    assert len(a.truth) == sc.runs


def test_run_ensemble_pairs_variants_on_same_measurements():
    sc = small_scenario(runs=2, seed=3)
    ens = run_ensemble(sc, (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D))
    assert ens.variants == (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D)
    assert ens.measurements.shape == (sc.runs, sc.steps, 4)
    assert ens.means.shape == (sc.runs, 2, sc.steps - 2, 4)


@pytest.mark.parametrize(
    "module",
    ["rcmkf"] + [f"rcmkf.{m.name}" for m in pkgutil.iter_modules(rcmkf.__path__)],
)
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_config_roundtrip_identity():
    cfg = ExperimentConfig(
        seed=5,
        case=2,
        runs=37,
        variants=("rcmkf_u",),
    )
    again = config_from_dict(yaml.safe_load(yaml.safe_dump(config_to_dict(cfg))))
    assert again == cfg
    # and a config with an inline scenario
    data = {
        "seed": 9,
        "case": None,
        "scenario": {
            "steps": 50,
            "runs": 10,
            "initial_position_m": [1000.0, 2000.0],
            "initial_velocity_mps": [10.0, -5.0],
            "maneuvers": [{"start_step": 5, "accel_mps2": [1.0, 1.0]}],
            "noise": {"sigma_r_m": 100.0, "sigma_theta_deg": 1.0, "sigma_rdot_mps": 2.0, "rho": 0.1},
        },
    }
    cfg2 = config_from_dict(data)
    assert config_from_dict(config_to_dict(cfg2)) == cfg2
    sc = build_scenario(cfg2)
    assert sc.steps == 50 and sc.runs == 10 and sc.seed == 9
    assert sc.noise.sigma_theta == pytest.approx(math.radians(1.0))


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"sneed": 1})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"variants": []})
    with pytest.raises(ConfigError):
        config_from_dict({"case": 5})
    with pytest.raises(ConfigError):
        config_from_dict({"runs": 0})
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        config_from_dict({"seed": -1})
    with pytest.raises(ConfigError, match="distinct"):
        config_from_dict({"variants": ["rcmkf_d", "rcmkf_u", "rcmkf_d"]})


def test_default_sigma_grid():
    np.testing.assert_allclose(default_sigma_grid(5.0), [0.5, 1, 2, 3, 4, 5])
    np.testing.assert_allclose(default_sigma_grid(0.6), [0.5])
    assert default_sigma_grid(0.4).size == 0
    assert default_sigma_grid(30.0).size == 31


def test_default_golden_grid_covers_spec_axes():
    grid = default_golden_grid()
    assert len(grid) == 36
    assert {p.r_m for p in grid} == {1000.0, 10000.0, 100000.0}
    assert {p.sigma_theta_deg for p in grid} == {1.0, 5.0, 15.0, 30.0}
    assert {p.rho for p in grid} == {0.0, 0.3, 0.9}
    # every point, in the order golden writes them: range, then noise, then rho
    fixed = dict(theta_deg=30.0, phi_deg=20.0, rdot_mps=100.0, sigma_r_m=100.0, sigma_rdot_mps=5.0)
    expected = [
        dict(r_m=r_m, sigma_theta_deg=sig, sigma_phi_deg=sig, rho=rho, **fixed)
        for r_m in (1e3, 1e4, 1e5)
        for sig in (1.0, 5.0, 15.0, 30.0)
        for rho in (0.0, 0.3, 0.9)
    ]
    assert [dataclasses.asdict(p) for p in grid] == expected


def test_config_golden_samples_start_at_1e4():
    assert config_from_dict({"golden": {"samples": 10_000}}).golden.samples == 10_000
    with pytest.raises(ConfigError, match="golden samples must be >= 1e4"):
        config_from_dict({"golden": {"samples": 9_999}})


def test_cli_simulate_outputs(tmp_path):
    out = tmp_path / "res"
    code = main(
        ["simulate", "--case", "1", "--runs", "3", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    csv = (out / "rmse_case1.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "step,rmse_pos_rcmkfu,rmse_pos_rcmkfd"
    assert len(lines) == 1 + 98  # 100 steps minus two initialization scans
    assert not csv.endswith("\r\n") and "\r" not in csv
    manifest = json.loads((out / "manifest_case1.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["version"].startswith("rcmkf-")
    nees_lines = (out / "nees_case1.csv").read_text().splitlines()
    assert nees_lines[0] == "step,nees_rcmkfu,nees_rcmkfd,lower_bound,upper_bound"


def test_cli_simulate_reports_skipped_scans(tmp_path, capsys, monkeypatch):
    args = ["simulate", "--case", "1", "--runs", "3", "--seed", "11"]
    cfg = dataclasses.replace(ExperimentConfig(), case=1, runs=3, seed=11)
    variants = (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D)
    base = run_ensemble(build_scenario(cfg), variants)
    target = base.measurements[1, 10, 0]  # its range singles out one (run, scan) pair
    real = conversion._moments

    def forced(methods, rm, theta, phi, rdot, noise, dim):
        conv, mu, cov = real(methods, rm, theta, phi, rdot, noise, dim)
        if ConversionMethod.MEASUREMENT_CONDITIONED in methods:
            k = list(methods).index(ConversionMethod.MEASUREMENT_CONDITIONED)
            # indefinite beyond any tolerance; the kernel's arrays are entries first
            cov[:, :, np.asarray(rm) == target, k] = -np.eye(dim + 1)[..., None]
        return conv, mu, cov

    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(conversion, "_moments", forced)
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert "skipped scans rcmkf_u 1, rcmkf_d 0)" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "b" / "manifest_case1.json").read_text())
    assert manifest["skipped_scans"] == {"rcmkf_u": 1, "rcmkf_d": 0}
    clean = json.loads((tmp_path / "a" / "manifest_case1.json").read_text())
    assert clean["skipped_scans"] == {"rcmkf_u": 0, "rcmkf_d": 0}


def test_cli_simulate_deterministic_replay(tmp_path):
    args = ["simulate", "--case", "2", "--runs", "2", "--seed", "5"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for name in ("rmse_case2.csv", "nees_case2.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # the manifest echoes the config (including the out dir), so byte equality
    # only holds when rerun with the identical config
    first = (tmp_path / "a" / "manifest_case2.json").read_bytes()
    main(args + ["--out", str(tmp_path / "a")])
    assert (tmp_path / "a" / "manifest_case2.json").read_bytes() == first


def test_cli_simulate_jobs_equivalent(tmp_path):
    # --jobs is accepted and ignored: every ensemble runs in-process
    base = ["simulate", "--case", "1", "--runs", "4", "--seed", "3"]
    assert main(base + ["--out", str(tmp_path / "s")]) == 0
    assert main(base + ["--jobs", "2", "--out", str(tmp_path / "p")]) == 0
    for name in ("rmse_case1.csv", "nees_case1.csv"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


# sha256 of the files ``simulate --case {1,2} --runs 500 --seed 42`` writes,
# taken with numpy 2.4.6. A change that should keep every output bit (a
# faster kernel, say) must leave these as they are.
SIMULATE_500_SHA256 = {
    "rmse_case1.csv": "1933c1dd3c7f1ac6523efb17020b7f5ef1f106967bd7f594b1b38e097ffedef8",
    "nees_case1.csv": "e8703e11e3154cff96c315906e6ac5d0f5dbd5206830344229e1e9b735e7be1a",
    "rmse_case2.csv": "73a94652a179691dc97a4a4cc6e90551c3f9095d1aac1e9fab3fbb934d1e42ff",
    "nees_case2.csv": "70d595c05716802d46ca094916a65c4980c24c97bf9c1b4119a03368c9485214",
}


@pytest.mark.parametrize("case", [1, 2])
def test_cli_simulate_bytes_are_frozen_at_500_runs(tmp_path, case):
    assert main(["simulate", "--case", str(case), "--runs", "500", "--seed", "42",
                 "--out", str(tmp_path)]) == 0
    for name in (f"rmse_case{case}.csv", f"nees_case{case}.csv"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == SIMULATE_500_SHA256[name], name


def test_cli_unknown_case_exits_2(tmp_path, capsys):
    code = main(["simulate", "--case", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown case" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ("variants: [foo]\n", "unknown filter variant 'foo'"),
        ("case: null\n", "either a case id or an inline scenario is required"),
        (None, "cannot read config file"),
    ],
    ids=["variant", "no-case", "missing-file"],
)
def test_cli_bad_config_exits_2(tmp_path, capsys, config, message):
    path = tmp_path / "exp.yaml"
    if config is not None:  # else the file does not exist
        path.write_text(config, encoding="utf-8")
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [".nan", ".inf"])
def test_cli_simulate_non_finite_noise_exits_2(tmp_path, capsys, value):
    config = tmp_path / "exp.yaml"
    config.write_text(
        "case: null\n"
        "scenario:\n"
        "  steps: 10\n"
        "  runs: 2\n"
        "  initial_position_m: [10000.0, 20000.0]\n"
        "  initial_velocity_mps: [10.0, -5.0]\n"
        f"  noise: {{sigma_r_m: {value}, sigma_theta_deg: 1.0, sigma_rdot_mps: 2.0}}\n",
        encoding="utf-8",
    )
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "sigma_r must be finite" in capsys.readouterr().err


SCENARIO_YAML = (
    "case: null\n"
    "scenario:\n"
    "  steps: {steps}\n"
    "  runs: {runs}\n"
    "  initial_position_m: [10000.0, 20000.0]\n"
    "  initial_velocity_mps: [10.0, -5.0]\n"
    "  maneuvers: [{{start_step: {start}, accel_mps2: [1.0, 0.0]}}]\n"
)


@pytest.mark.parametrize(
    "config, message",
    [
        ("jobs: 2\n", "config: unknown keys ['jobs']"),
        ("runs: 2.5\n", "runs must be an integer"),
        ("seed: 1.5\n", "seed must be an integer"),
        ("case: 1.0\n", "case must be an integer"),
        ("consistency: {samples: 10.5}\n", "config.consistency.samples must be an integer"),
        ("golden: {samples: 2.0e+4}\n", "config.golden.samples must be an integer"),
        (
            SCENARIO_YAML.format(steps=10.5, runs=2, start=3),
            "config.scenario.steps must be an integer",
        ),
        (
            SCENARIO_YAML.format(steps=10, runs="two", start=3),
            "config.scenario.runs must be an integer",
        ),
        (SCENARIO_YAML.format(steps=10, runs=2, start=3.5), "start_step must be an integer"),
    ],
)
def test_cli_non_integer_config_field_exits_2(tmp_path, capsys, config, message):
    path = tmp_path / "exp.yaml"
    path.write_text(config, encoding="utf-8")
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


GOLDEN_POINT = {
    "r_m": 10000.0, "theta_deg": 30.0, "phi_deg": 20.0, "rdot_mps": 100.0, "sigma_r_m": 100.0,
    "sigma_theta_deg": 5.0, "sigma_phi_deg": 5.0, "sigma_rdot_mps": 5.0, "rho": 0.3,
}


def _golden_yaml(**changes) -> str:
    return yaml.safe_dump({"golden": {"samples": 20000, "points": [{**GOLDEN_POINT, **changes}]}})


LIST_SCENARIO_YAML = (
    "case: null\n"
    "scenario:\n"
    "  steps: 10\n"
    "  runs: 2\n"
    "  initial_position_m: {pos}\n"
    "  initial_velocity_mps: {vel}\n"
    "  maneuvers: {maneuvers}\n"
)
LIST_SCENARIO_OK = {
    "pos": "[10000.0, 20000.0]",
    "vel": "[10.0, -5.0]",
    "maneuvers": "[{start_step: 3, accel_mps2: [1.0, 0.0]}]",
}


@pytest.mark.parametrize(
    "command, config, message",
    [
        pytest.param(
            "simulate", "variants: rcmkf_u\n", "config.variants must be a list, got 'rcmkf_u'",
            id="variants-string",
        ),
        pytest.param(
            "simulate", "variants: null\n", "config.variants must be a list, got None",
            id="variants-null",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(**{**LIST_SCENARIO_OK, "pos": "5"}),
            "config.scenario.initial_position_m must be a list, got 5",
            id="position-scalar",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(**{**LIST_SCENARIO_OK, "vel": "5"}),
            "config.scenario.initial_velocity_mps must be a list, got 5",
            id="velocity-scalar",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(
                **{**LIST_SCENARIO_OK, "maneuvers": "[{start_step: 3, accel_mps2: 1.0}]"}
            ),
            "config.scenario.maneuvers[0].accel_mps2 must be a list, got 1.0",
            id="accel-scalar",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(
                **{**LIST_SCENARIO_OK, "maneuvers": "{start_step: 3, accel_mps2: [1.0, 0.0]}"}
            ),
            "config.scenario.maneuvers must be a list",
            id="maneuvers-mapping",
        ),
        pytest.param(
            "golden",
            "golden:\n  points: {r_m: 1000.0}\n",
            "config.golden.points must be a list",
            id="points-mapping",
        ),
        pytest.param(
            # the fields' dataclass rejects the call: the path leads its words
            "golden", "golden: {points: [{r_m: 1000.0}]}\n", "config.golden.points[0]: ",
            id="point-missing-fields",
        ),
        pytest.param(
            "simulate", "variants: [rcmkf_u, RCMKF_U]\n", "filter variants must be distinct",
            id="variants-duplicate",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(**{**LIST_SCENARIO_OK, "pos": '[10000.0, "x"]'}),
            "config.scenario.initial_position_m[1] must be a real number, got 'x'",
            id="position-string-entry",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(**{**LIST_SCENARIO_OK, "pos": "[10000.0, true]"}),
            "config.scenario.initial_position_m[1] must be a real number, got True",
            id="position-bool-entry",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(**{**LIST_SCENARIO_OK, "pos": "[10000.0]"}),
            "initial_position_m must have 2 or 3 entries, got 1",
            id="position-length",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(**{**LIST_SCENARIO_OK, "vel": "[10.0, -5.0, 0.0]"}),
            "initial_velocity_mps must have 2 entries, got 3",
            id="velocity-length",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(
                **{**LIST_SCENARIO_OK, "maneuvers": "[{start_step: 3, accel_mps2: [1.0]}]"}
            ),
            "config.scenario.maneuvers[0].accel_mps2 must have 2 entries, got 1",
            id="accel-length",
        ),
        pytest.param(
            "simulate", "scenario: {sample_interval_s: fast}\n",
            "config.scenario.sample_interval_s must be a real number, got 'fast'",
            id="interval-string",
        ),
        pytest.param(
            "simulate", "scenario: {process_noise_std_mps2: [1]}\n",
            "config.scenario.process_noise_std_mps2 must be a real number, got [1]",
            id="process-noise-list",
        ),
        pytest.param(
            "consistency", "consistency: {tail: x}\n",
            "config.consistency.tail must be a real number, got 'x'",
            id="tail-string",
        ),
        pytest.param(
            "consistency", "consistency: {geometry: {r_m: far}}\n",
            "config.consistency.geometry.r_m must be a real number, got 'far'",
            id="geometry-string",
        ),
        pytest.param(
            "golden", _golden_yaml(r_m="a"),
            "config.golden.points[0].r_m must be a real number, got 'a'",
            id="point-string",
        ),
        pytest.param(
            "consistency", "consistency: null\n", "config.consistency: expected a mapping",
            id="consistency-null",
        ),
        pytest.param(
            "simulate", "scenario: {noise: null}\n", "config.scenario.noise: expected a mapping",
            id="noise-null",
        ),
        pytest.param(
            "golden", _golden_yaml(rho=True),
            "config.golden.points[0].rho must be a real number, got True",
            id="rho-bool",
        ),
        pytest.param("simulate", "out: 5\n", "config.out must be a string, got 5", id="out-int"),
        pytest.param(
            "simulate", "case: null\nscenario: {steps: 1, runs: 2}\n", "steps must be > 2",
            id="steps-1",
        ),
        pytest.param(
            "simulate", "case: null\nscenario: {steps: 2, runs: 2}\n", "steps must be > 2",
            id="steps-2",
        ),
        pytest.param(
            "simulate", "case: null\nscenario: {process_noise_std_mps2: -1}\n",
            "acceleration noise std must be finite and nonnegative, got -1",
            id="process-noise-negative",
        ),
        pytest.param(
            "simulate", "case: null\nscenario: {sample_interval_s: -1}\n",
            "sampling interval must be positive",
            id="interval-negative",
        ),
        pytest.param(
            "simulate", "case: null\nscenario: {sample_interval_s: .inf}\n",
            "sampling interval must be positive and finite, got inf",
            id="interval-inf",
        ),
        pytest.param(
            "simulate", "case: null\nscenario: {noise: {sigma_phi_deg: 5}}\n",
            "a 2D radar measures no elevation: sigma_phi must be 0",
            id="2d-elevation-noise",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(**{**LIST_SCENARIO_OK, "pos": "[0.0, 0.0]"}),
            "initial position is the sensor origin",
            id="origin-start-2d",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(pos="[0, 0, 0]", vel="[10.0, -5.0, 1.0]", maneuvers="[]"),
            "initial position is the sensor origin",
            id="origin-start-3d",
        ),
        pytest.param(
            "consistency", "consistency: {noise: {sigma_phi_deg: 5}}\n",
            "config.consistency.noise.sigma_phi_deg must be 0",
            id="consistency-elevation-noise",
        ),
        pytest.param(
            "simulate",
            LIST_SCENARIO_YAML.format(
                **{**LIST_SCENARIO_OK, "maneuvers": "[{start_step: -3, accel_mps2: [5.0, 0.0]}]"}
            ),
            "invalid scenario: maneuver start steps must be >= 0, got -3",
            id="maneuver-negative-start",
        ),
        pytest.param(
            "consistency", "consistency: {noise: {sigma_theta_deg: 7.0}}\n",
            "config.consistency.noise.sigma_theta_deg must be 0",
            id="consistency-bearing-noise",
        ),
        pytest.param(
            "consistency", "consistency: {geometry: {r_m: -5.0}}\n",
            "config.consistency.geometry.r_m must be > 0, got -5.0",
            id="geometry-negative-range",
        ),
        pytest.param(
            "golden", _golden_yaml(r_m=-10000),
            "config.golden.points[0].r_m must be > 0, got -10000",
            id="point-negative-range",
        ),
        pytest.param(
            "consistency", "consistency: {geometry: {r_m: .nan}}\n",
            "invalid consistency geometry: r must be finite",
            id="geometry-nan",
        ),
        pytest.param(
            "golden", _golden_yaml(sigma_r_m=-1.0),
            "invalid golden point: sigma_r must be nonnegative",
            id="point-negative-sigma",
        ),
    ],
)
def test_cli_non_list_config_field_exits_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "exp.yaml"
    path.write_text(config, encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


HUGE_INT = "1" + "0" * 400  # too large for a float


@pytest.mark.parametrize(
    "command, config, message",
    [
        pytest.param(
            "golden", _golden_yaml(theta_deg=int(HUGE_INT)),
            "config.golden.points[0].theta_deg is too large for a real number",
            id="point-angle",
        ),
        pytest.param(
            "simulate", f"case: null\nscenario: {{sample_interval_s: {HUGE_INT}}}\n",
            "config.scenario.sample_interval_s is too large for a real number",
            id="interval",
        ),
        pytest.param(
            "simulate", f"case: null\nscenario: {{initial_position_m: [{HUGE_INT}, 0.0]}}\n",
            "config.scenario.initial_position_m[0] is too large for a real number",
            id="position",
        ),
        pytest.param(
            "golden", "seed: " + "1" * 4301 + "\n", "cannot parse config file", id="4301-digits",
        ),
    ],
)
def test_cli_huge_config_integer_exits_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "exp.yaml"
    path.write_text(config, encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "0" * 40 not in err and "1" * 40 not in err  # the number is not echoed
    assert not (tmp_path / "o").exists()


HUGE_COUNT = 10**30  # beyond any array size


@pytest.mark.parametrize(
    "argv, config, path",
    [
        pytest.param(["simulate"], f"runs: {HUGE_COUNT}\n", "config.runs", id="runs"),
        pytest.param(["simulate", "--runs", str(HUGE_COUNT)], "{}\n", "config.runs", id="runs-flag"),
        pytest.param(
            ["simulate"], f"case: null\nscenario: {{steps: {HUGE_COUNT}}}\n",
            "config.scenario.steps", id="steps",
        ),
        pytest.param(
            ["simulate"], f"case: null\nscenario: {{runs: {HUGE_COUNT}}}\n",
            "config.scenario.runs", id="scenario-runs",
        ),
        pytest.param(
            ["consistency"], f"consistency: {{samples: {HUGE_COUNT}}}\n",
            "config.consistency.samples", id="consistency-samples",
        ),
    ],
)
def test_cli_count_beyond_array_size_exits_2(tmp_path, capsys, argv, config, path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(config, encoding="utf-8")
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path} must be at most {np.iinfo(np.intp).max}" in err
    assert str(HUGE_COUNT) not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "field", ["runs", "scenario.steps", "scenario.runs", "consistency.samples", "golden.samples"]
)
def test_config_counts_stop_at_the_array_size(field):
    # checked on the config alone: golden with such a count would draw for ever
    limit = int(np.iinfo(np.intp).max)
    section, _, name = field.rpartition(".")

    def config(count):
        data = {"case": None, "scenario": {}}
        (data.setdefault(section, {}) if section else data)[name] = count
        return data

    config_from_dict(config(limit))
    with pytest.raises(ConfigError, match=f"config.{field} must be at most {limit}"):
        config_from_dict(config(limit + 1))


def test_config_keeps_values_as_written():
    # an integer in a real field stays an integer, so the manifest echoes it as written
    cfg = config_from_dict({"scenario": {"sample_interval_s": 2, "noise": {"rho": 0}}})
    sc = config_to_dict(cfg)["scenario"]
    assert json.dumps([sc["sample_interval_s"], sc["noise"]["rho"]]) == "[2, 0]"


def test_documented_schema_shows_the_defaults():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "config_schema.md").read_text()
    block, case2 = re.findall(r"```yaml\n(.*?)```", doc, re.S)
    data = yaml.safe_load(block)
    cfg = config_from_dict(data)
    assert len(cfg.scenario.maneuvers) == 1  # the documented example
    expected = dataclasses.replace(
        ExperimentConfig(), scenario=ScenarioConfig(maneuvers=cfg.scenario.maneuvers)
    )
    assert cfg == expected
    assert data == config_to_dict(expected)  # every field shown, with its default
    assert _CASES[1] == ScenarioConfig()  # case 1 is the scenario defaults
    assert config_from_dict(yaml.safe_load(case2)).scenario == _CASES[2]


@pytest.mark.parametrize(
    "entry, message",
    [
        ("tail: 0.7", "tail probability"),
        ("tail: .nan", "tail probability"),
        ("sigma_theta_deg_max: .nan", "sigma_theta_deg_max must be finite"),
        ("sigma_theta_deg_max: 1.0e+300", "sigma_theta_deg_max must be at most 180"),
        ("sigma_theta_deg_max: 1e300", "sigma_theta_deg_max must be at most 180"),
        ("sigma_theta_deg_max: '1e1'", "sigma_theta_deg_max must be a real number, got '1e1'"),
        ("sigma_theta_deg_max: 181", "sigma_theta_deg_max must be at most 180"),
        ("samples: 0", "consistency samples must be >= 1"),
    ],
)
def test_cli_consistency_bad_sweep_settings_exit_2(tmp_path, capsys, entry, message):
    config = tmp_path / "exp.yaml"
    config.write_text(f"consistency:\n  {entry}\n", encoding="utf-8")
    code = main(["consistency", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_consistency_reads_numbers_as_yaml_1_2_does(tmp_path):
    # YAML 1.1 reads a float with neither a dot nor an exponent sign as a string
    config = tmp_path / "exp.yaml"
    config.write_text("consistency: {sigma_theta_deg_max: 1e1, samples: 200}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["consistency", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "consistency.csv").read_text().splitlines()[1:]
    grid = [float(line.split(",")[0]) for line in lines]
    assert grid == [0.5] + [float(k) for k in range(1, 11)]


def test_cli_consistency_drawn_range_not_positive_exits_1(tmp_path, capsys):
    # at 300 m and sigma_r 200 m some drawn ranges are not positive; the sweep
    # once scored them and wrote an in-band average NES
    config = tmp_path / "exp.yaml"
    config.write_text(
        "consistency: {geometry: {r_m: 300.0}, noise: {sigma_r_m: 200.0, sigma_theta_deg: 0.0}}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["consistency", "--config", str(config), "--out", str(out)]) == 1
    assert re.search(
        r"^rcmkf: error: sigma_theta 0\.5 deg, \d+ of 1000 draws: invalid measurement, "
        r"range -[\d.e+]+ m is not positive$",
        capsys.readouterr().err.strip(),
    )
    assert not (out / "consistency.csv").exists()


def test_cli_consistency_nan_sigma_flag_exits_2(tmp_path, capsys):
    code = main(["consistency", "--sigma-theta-max", "nan", "--out", str(tmp_path)])
    assert code == 2
    assert "sigma_theta_deg_max must be finite" in capsys.readouterr().err


def test_cli_consistency_huge_sigma_flag_exits_2(tmp_path, capsys):
    # the grid has a point per degree up to the maximum, so 1e300 could never be built
    out = tmp_path / "out"
    code = main(["consistency", "--sigma-theta-max", "1e300", "--out", str(out)])
    assert code == 2
    assert "sigma_theta_deg_max must be at most 180" in capsys.readouterr().err
    assert not out.exists()


def test_cli_consistency_output(tmp_path):
    out = tmp_path / "c"
    code = main(["consistency", "--sigma-theta-max", "3", "--seed", "42", "--out", str(out)])
    assert code == 0
    lines = (out / "consistency.csv").read_text().splitlines()
    assert lines[0] == "sigma_theta_deg,nes_measurement_conditioned,nes_nested,lower_bound,upper_bound"
    assert len(lines) == 1 + 4  # grid 0.5, 1, 2, 3
    row = lines[1].split(",")
    assert float(row[3]) == pytest.approx(2.76, abs=0.01)
    assert float(row[4]) == pytest.approx(3.24, abs=0.01)


def test_cli_consistency_replay(tmp_path):
    args = ["consistency", "--sigma-theta-max", "2", "--seed", "9"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "consistency.csv").read_bytes() == (
        tmp_path / "b" / "consistency.csv"
    ).read_bytes()


def test_cli_consistency_empty_grid_exits_2(tmp_path, capsys):
    code = main(["consistency", "--sigma-theta-max", "0.4", "--out", str(tmp_path)])
    assert code == 2
    assert "grid" in capsys.readouterr().err


def test_cli_golden_runs_and_replays(tmp_path):
    cfg = {
        "golden": {
            "samples": 20000,
            "points": [
                {
                    "r_m": 10000.0,
                    "theta_deg": 45.0,
                    "phi_deg": 10.0,
                    "rdot_mps": 100.0,
                    "sigma_r_m": 100.0,
                    "sigma_theta_deg": 5.0,
                    "sigma_phi_deg": 5.0,
                    "sigma_rdot_mps": 5.0,
                    "rho": 0.3,
                },
            ],
        }
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    args = ["golden", "--config", str(cfg_path), "--seed", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "golden_moments.csv").read_text()
    assert a == (tmp_path / "b" / "golden_moments.csv").read_text()
    lines = a.splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert "mu_e" in header and "se_r_ee" in header
    values = dict(zip(header, row))
    assert float(values["samples"]) == 20000
    assert np.isfinite(float(values["se_mu_x"])) and float(values["se_mu_x"]) > 0


def test_cli_golden_zero_noise_point(tmp_path):
    cfg = {
        "golden": {
            "samples": 20000,
            "points": [
                {
                    "r_m": 5000.0, "theta_deg": 0.0, "phi_deg": 0.0, "rdot_mps": 50.0,
                    "sigma_r_m": 0.0, "sigma_theta_deg": 0.0, "sigma_phi_deg": 0.0,
                    "sigma_rdot_mps": 0.0, "rho": 0.0,
                },
            ],
        }
    }
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main(["golden", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "golden_moments.csv").read_text().splitlines()
    vals = [float(v) for v in lines[1].split(",")[10:]]
    assert all(v == 0.0 for v in vals)


def test_write_csv_formats_a_constant_column_like_a_repeated_one(tmp_path):
    steps, values, bound = np.arange(3), np.array([0.1, 1e-300, -2.5e17]), 9.487729036781154
    _write_csv(tmp_path / "c.csv", ["k", "v", "b"], [steps, values, bound])
    _write_csv(tmp_path / "r.csv", ["k", "v", "b"], [steps, values, [bound] * 3])
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    assert (tmp_path / "c.csv").read_text().splitlines()[3] == "2,-2.5e+17,9.487729036781154"


def test_cli_unwritable_out_exits_2_before_computing(tmp_path, capsys, monkeypatch):
    # a path below a regular file can be neither made nor written, even as root
    (tmp_path / "file").write_text("")
    monkeypatch.setattr("rcmkf.cli.run_ensemble", lambda *a: pytest.fail("ran the ensemble"))
    code = main(["simulate", "--case", "1", "--runs", "2", "--out", str(tmp_path / "file" / "sub")])
    assert code == 2
    assert "is not writable" in capsys.readouterr().err


def test_cli_rejects_bad_golden_samples(tmp_path, capsys):
    code = main(["golden", "--samples", "100", "--out", str(tmp_path)])
    assert code == 2
    assert "golden samples must be >= 1e4" in capsys.readouterr().err


def test_cli_17_digit_roundtrip(tmp_path):
    out = tmp_path / "r"
    main(["simulate", "--case", "1", "--runs", "2", "--seed", "1", "--out", str(out)])
    lines = (out / "rmse_case1.csv").read_text().splitlines()[1:]
    for line in lines[:5]:
        for tok in line.split(",")[1:]:
            assert float(tok) == float(repr(float(tok)))


def _python(tmp_path, *args):
    """Run a fresh interpreter in ``tmp_path`` that imports this checkout's rcmkf."""
    src = Path(rcmkf.__file__).resolve().parent.parent
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_python_m_cli_prints_usage(tmp_path):
    # ``python -m rcmkf.cli`` runs the same entry point as the ``rcmkf`` script
    out = _python(tmp_path, "-m", "rcmkf.cli", "--help")
    assert out.startswith("usage: rcmkf")
    assert "consistency" in out


def test_cli_import_loads_no_scipy(tmp_path):
    # the runtime dependencies are numpy and pyyaml; the chi-square bounds use the stdlib,
    # and every ensemble runs in-process, so no process pool is imported either; yaml is
    # imported only when a config file is loaded
    unneeded = ("scipy", "multiprocessing", "concurrent", "yaml")
    code = (
        "import sys, rcmkf.cli; "
        f"print([m for m in sys.modules if m.split('.')[0] in {unneeded}])"
    )
    assert _python(tmp_path, "-c", code).strip() == "[]"
