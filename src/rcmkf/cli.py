"""Command-line front end.

Three subcommands, all writing deterministic flat files (no timestamps, 17
significant digits, LF line endings) so a fixed (config, seed) pair
reproduces every output byte for byte:

* ``simulate``    -- Monte Carlo RMSE benchmark for a case or inline scenario.
* ``consistency`` -- bearing-noise sweep of the conversion NES statistic.
* ``golden``      -- brute-force moment tables from the Monte Carlo oracle.

Exit status: 0 on success, 2 on configuration errors, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    _CASE_IDS,
    ConfigError,
    ExperimentConfig,
    _validate,
    build_geometry,
    build_golden_point,
    build_noise,
    build_scenario,
    config_to_dict,
    default_golden_grid,
    default_sigma_grid,
    load_config,
)
from .conversion import ConversionMethod, mc_moment_oracle
from .evaluation import consistency_sweep, nees, rmse
from .filtering import FilterVariant
from .montecarlo import run_ensemble

__all__ = ["entry", "main"]


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One line per row of the numeric ``columns``, each number at 17
    significant digits: enough for exact float round-trips.

    A column is a sequence, and the sequences have equal lengths; a scalar
    column holds one value for every row and is formatted once.
    """
    row = ",".join("%.17g" % c if np.ndim(c) == 0 else "%.17g" for c in columns)
    varying = [np.asarray(c).tolist() for c in columns if np.ndim(c) != 0]
    lines = [row % values for values in zip(*varying)]
    path.write_text("\n".join([",".join(header)] + lines) + "\n", encoding="utf-8", newline="\n")


def _write_manifest(path: Path, command: str, cfg: ExperimentConfig, **results) -> None:
    manifest = {
        "command": command,
        "version": f"rcmkf-{__version__}",
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        **results,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_and_override(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    updates = {}
    if getattr(args, "case", None) is not None:
        updates["case"] = args.case
        updates["scenario"] = None
    if getattr(args, "runs", None) is not None:
        updates["runs"] = args.runs
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    if getattr(args, "sigma_theta_max", None) is not None:
        updates["consistency"] = dataclasses.replace(
            cfg.consistency, sigma_theta_deg_max=args.sigma_theta_max
        )
    if getattr(args, "samples", None) is not None:
        updates["golden"] = dataclasses.replace(cfg.golden, samples=args.samples)
    cfg = dataclasses.replace(cfg, **updates)
    _validate(cfg)
    return cfg


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return out


def cmd_simulate(args) -> int:
    cfg = _load_and_override(args)
    scenario = build_scenario(cfg)
    out = _out_dir(cfg)
    variants = tuple(FilterVariant[v.upper()] for v in cfg.variants)

    ens = run_ensemble(scenario, variants)
    rmse_report = rmse(ens)
    nees_report = nees(ens)

    tag = scenario.name
    cols = [v.name.replace("_", "").lower() for v in variants]
    _write_csv(
        out / f"rmse_{tag}.csv",
        ["step"] + [f"rmse_pos_{c}" for c in cols],
        [rmse_report.steps] + [rmse_report.rmse[v.name] for v in variants],
    )
    # State NEES per step: a diagnostic of this library, not a benchmark output.
    _write_csv(
        out / f"nees_{tag}.csv",
        ["step"] + [f"nees_{c}" for c in cols] + ["lower_bound", "upper_bound"],
        [nees_report.steps]
        + [nees_report.nees[v.name] for v in variants]
        + [nees_report.lower, nees_report.upper],
    )
    # Predict-only scans (degenerate conversion or decorrelation) per variant.
    skipped = {v.name.lower(): int((~ens.updated[:, i]).sum()) for i, v in enumerate(variants)}
    _write_manifest(out / f"manifest_{tag}.json", "simulate", cfg, skipped_scans=skipped)
    print(
        f"wrote {out / f'rmse_{tag}.csv'} ({len(rmse_report.steps)} rows, {scenario.runs} runs; "
        "skipped scans " + ", ".join(f"{name} {n}" for name, n in skipped.items()) + ")"
    )
    return 0


def cmd_consistency(args) -> int:
    cfg = _load_and_override(args)
    cc = cfg.consistency
    grid = default_sigma_grid(cc.sigma_theta_deg_max)
    geometry = build_geometry(cc.geometry)
    noise = build_noise(cc.noise)
    out = _out_dir(cfg)

    # One sweep scores each draw under both methods.
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    reports = consistency_sweep(
        tuple(ConversionMethod), geometry, noise, grid, cc.samples, rng, tail=cc.tail
    )
    cond = reports[ConversionMethod.MEASUREMENT_CONDITIONED]
    nest = reports[ConversionMethod.NESTED_CONDITIONING]
    _write_csv(
        out / "consistency.csv",
        [
            "sigma_theta_deg",
            "nes_measurement_conditioned",
            "nes_nested",
            "lower_bound",
            "upper_bound",
        ],
        [grid, cond.avg_nes, nest.avg_nes, cond.lower, cond.upper],
    )
    _write_manifest(out / "manifest_consistency.json", "consistency", cfg)
    print(f"wrote {out / 'consistency.csv'} ({grid.size} grid points, N={cc.samples})")
    return 0


def cmd_golden(args) -> int:
    cfg = _load_and_override(args)
    points = cfg.golden.points or default_golden_grid()
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(points))

    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    header = (
        ["r_m", "theta_deg", "phi_deg", "rdot_mps", "sigma_r_m", "sigma_theta_deg",
         "sigma_phi_deg", "sigma_rdot_mps", "rho", "samples"]
        + [f"mu_{k}" for k in "xyze"]
        + [f"se_mu_{k}" for k in "xyze"]
        + [f"r_{a}{b}" for a, b in (("xyze"[i], "xyze"[j]) for i, j in pairs)]
        + [f"se_r_{a}{b}" for a, b in (("xyze"[i], "xyze"[j]) for i, j in pairs)]
    )
    inputs = [build_golden_point(pt) for pt in points]
    out = _out_dir(cfg)
    rows = []
    for pt, (m, noise), seed in zip(points, inputs, seeds):
        est = mc_moment_oracle(m, noise, cfg.golden.samples, np.random.default_rng(seed))
        rows.append(
            [pt.r_m, pt.theta_deg, pt.phi_deg, pt.rdot_mps, pt.sigma_r_m, pt.sigma_theta_deg,
             pt.sigma_phi_deg, pt.sigma_rdot_mps, pt.rho, est.samples]
            + list(est.mean)
            + list(est.se_mean)
            + [est.cov[i, j] for i, j in pairs]
            + [est.se_cov[i, j] for i, j in pairs]
        )
    _write_csv(out / "golden_moments.csv", header, list(zip(*rows)))
    _write_manifest(out / "manifest_golden.json", "golden", cfg)
    print(f"wrote {out / 'golden_moments.csv'} ({len(points)} operating points)")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rcmkf",
        description="Range-rate converted-measurement tracking benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"rcmkf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML experiment config (see docs/config_schema.md)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output directory (default: results)")
        p.add_argument("--jobs", type=int, help="accepted and ignored: every run is in-process")

    p_sim = sub.add_parser("simulate", help="Monte Carlo RMSE benchmark")
    common(p_sim)
    p_sim.add_argument("--case", type=int, help=f"benchmark case id (one of {_CASE_IDS})")
    p_sim.add_argument("--runs", type=int, help="Monte Carlo runs (overrides config)")
    p_sim.set_defaults(func=cmd_simulate)

    p_con = sub.add_parser("consistency", help="conversion NES consistency sweep")
    common(p_con)
    p_con.add_argument(
        "--sigma-theta-max", type=float, dest="sigma_theta_max",
        help="largest bearing noise (degrees) in the sweep grid",
    )
    p_con.set_defaults(func=cmd_consistency)

    p_gold = sub.add_parser("golden", help="brute-force moment tables")
    common(p_gold)
    p_gold.add_argument("--samples", type=int, help="oracle samples per operating point")
    p_gold.set_defaults(func=cmd_golden)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"rcmkf: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> status 1 with a diagnostic
        print(f"rcmkf: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
