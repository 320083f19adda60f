"""The four benchmark workloads: how each op is built and how it is checked.

An op is one ``rcmkf.cli.main`` invocation writing into its own output
directory. Its CLI ``--seed`` is derived from the workload seed and the op
index, so the same workload seed gives the same sequence of ops. After the
op the benchmark parses the CSVs it wrote; any mismatch raises
:class:`measure.OutputError`, which counts the op as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from rcmkf.config import default_golden_grid, default_sigma_grid
from rcmkf.conversion import unbiased_stats
from rcmkf.scenario import NoiseSpec, SphericalMeasurement

import measure
from measure import OutputError

# Seed of the reference ops that give the quality metrics (the paper's seed).
REFERENCE_SEED = 42
# Monte Carlo runs in a reference ``simulate`` op.
REFERENCE_RUNS = 30
# Steps scored by ``simulate``: 100 scans minus two used for initialization.
SIMULATE_ROWS = 98
# State dimension of the 2D benchmark cases (NEES degrees of freedom).
STATE_DOF = 4
# Error dimension of the 2D consistency sweep: x, y and the pseudo-measurement.
SWEEP_DOF = 3
SWEEP_MAX_DEG = 30.0
# Samples per sweep grid point: twice the default, so the batched conversion
# dominates an op.
SWEEP_SAMPLES = 2000
# Monte Carlo runs per ``simulate`` op. Users run 500 per invocation, which
# takes 40 s or more on two cores, so an op is a slice of that: a run must
# hold some 25 to 50 ops to keep its medians steady on a shared machine.
# Against a 500-run invocation (2 vCPUs, traced at jobs=1) the layer self
# shares differ by at most 3 points (conversion 0.46 against 0.49, filtering
# 0.47 against 0.46, scenario 0.04 against 0.03); the per-op fixed costs
# (argument parsing, CSV and manifest writes, about 5 ms) are 1.6% of a
# 4-run op and 0.5% of a 12-run op, against 0.02%; and the pool speedup at
# 12 runs (1.4 to 1.7) is within the run-to-run noise of that at 500 runs
# (1.3 to 1.4). An engine that steps the runs in lockstep gets a batch of 4
# or 12 runs here against 500 in use, so its gain here is smaller.
TRACK_CV_RUNS = 4
TRACK_MANEUVER_RUNS = 12
# Oracle draws per golden op: more than one internal batch of 1e6.
GOLDEN_SAMPLES = 1_200_000
# A closed-form moment may differ from the oracle by at most this many
# oracle standard errors. Against an exact closed form each of the 14
# entries is a standard normal deviate, so a false failure has probability
# about 14 * 2e-9 per op.
GOLDEN_SE_MULTIPLE = 6.0


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    items: int
    check: Callable[[Path], dict[str, float]]
    config: str | None = None  # YAML written to the ``--config`` path, if any


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    jobs: int
    build: Callable[..., Op] = field(repr=False)
    case: int = 1  # benchmark case of the reference ``simulate`` op
    speed_kernel: str = "scalar"  # calibration kernel whose work resembles an op's

    def op(self, seed: int, index: int, out: Path, cfg: Path, jobs: int | None = None) -> Op:
        return self.build(op_seed(seed, index), out, cfg, self.jobs if jobs is None else jobs)

    def reference_ops(self, out: Path, cfg: Path) -> list[Op]:
        """Fixed-seed ops whose outputs give the quality metrics.

        Quality statistics of a few small ops spread too widely from seed to
        seed to gate a change on, so every run scores the same reference
        inputs: a ``simulate`` op of the workload's case and a sweep op, both
        at the paper's seed. Their values change exactly when the program's
        outputs change.
        """
        return [
            simulate_op(self.case, REFERENCE_RUNS, REFERENCE_SEED, out, cfg, 1),
            consistency_op(SWEEP_SAMPLES, REFERENCE_SEED, out, cfg, 1),
        ]


def op_seed(seed: int, index: int) -> int:
    """CLI seed of op ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _read_csv(path: Path, header: list[str], rows: int) -> list[list[float]]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if not lines or lines[0].split(",") != header:
        raise OutputError(f"{path.name}: unexpected header")
    if len(lines) - 1 != rows:
        raise OutputError(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    try:
        table = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if any(len(r) != len(header) for r in table):
        raise OutputError(f"{path.name}: ragged row")
    if not all(math.isfinite(v) for r in table for v in r):
        raise OutputError(f"{path.name}: non-finite value")
    return table


def _read_manifest(path: Path, command: str, seed: int) -> None:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if manifest.get("command") != command or manifest.get("seed") != seed:
        raise OutputError(f"{path.name}: wrong command or seed")


def _positive(table, cols, name):
    if any(r[c] <= 0 for r in table for c in cols):
        raise OutputError(f"{name}: non-positive statistic")


def simulate_op(case: int, runs: int, seed: int, out: Path, cfg: Path, jobs: int) -> Op:
    tag = f"case{case}"

    def check(out_dir: Path) -> dict[str, float]:
        rmse = _read_csv(
            out_dir / f"rmse_{tag}.csv", ["step", "rmse_pos_rcmkfu", "rmse_pos_rcmkfd"],
            SIMULATE_ROWS,
        )
        nees = _read_csv(
            out_dir / f"nees_{tag}.csv",
            ["step", "nees_rcmkfu", "nees_rcmkfd", "lower_bound", "upper_bound"],
            SIMULATE_ROWS,
        )
        _read_manifest(out_dir / f"manifest_{tag}.json", "simulate", seed)
        steps = [r[0] for r in rmse]
        if steps != [float(k) for k in range(2, 2 + SIMULATE_ROWS)] or [r[0] for r in nees] != steps:
            raise OutputError("step column is not 2..99")
        _positive(nees, (1, 2), f"nees_{tag}.csv")
        return {
            "rmse_u_m": measure.time_average(steps, [r[1] for r in rmse]),
            "rmse_d_m": measure.time_average(steps, [r[2] for r in rmse]),
            "nees_dev_u": measure.nees_dev(steps, [r[1] for r in nees], STATE_DOF),
            "nees_dev_d": measure.nees_dev(steps, [r[2] for r in nees], STATE_DOF),
        }

    argv = ("simulate", "--case", str(case), "--runs", str(runs), "--seed", str(seed),
            "--out", str(out), "--jobs", str(jobs))
    return Op(argv, runs * 2 * SIMULATE_ROWS, check)


def consistency_op(samples: int, seed: int, out: Path, cfg: Path, jobs: int) -> Op:
    grid = [float(g) for g in default_sigma_grid(SWEEP_MAX_DEG)]

    def check(out_dir: Path) -> dict[str, float]:
        table = _read_csv(
            out_dir / "consistency.csv",
            ["sigma_theta_deg", "nes_measurement_conditioned", "nes_nested",
             "lower_bound", "upper_bound"],
            len(grid),
        )
        _read_manifest(out_dir / "manifest_consistency.json", "consistency", seed)
        if [r[0] for r in table] != grid:
            raise OutputError("consistency.csv: unexpected sigma grid")
        _positive(table, (1, 2), "consistency.csv")
        return {
            "nes_dev_u": measure.nes_dev([r[1] for r in table], SWEEP_DOF),
            "nes_dev_d": measure.nes_dev([r[2] for r in table], SWEEP_DOF),
        }

    argv = ("consistency", "--config", str(cfg), "--sigma-theta-max", str(SWEEP_MAX_DEG),
            "--seed", str(seed), "--out", str(out), "--jobs", str(jobs))
    return Op(argv, len(grid) * 2 * samples, check, config=f"consistency:\n  samples: {samples}\n")


_GOLDEN_MOMENTS = [f"mu_{k}" for k in "xyze"] + [
    f"r_{'xyze'[i]}{'xyze'[j]}" for i in range(4) for j in range(i, 4)
]


def golden_op(samples: int, seed: int, out: Path, cfg: Path, jobs: int) -> Op:
    grid = default_golden_grid()
    point = grid[seed % len(grid)]
    fields = ("r_m", "theta_deg", "phi_deg", "rdot_mps", "sigma_r_m", "sigma_theta_deg",
              "sigma_phi_deg", "sigma_rdot_mps", "rho")
    header = list(fields) + ["samples"] + _GOLDEN_MOMENTS[:4] + [f"se_{c}" for c in _GOLDEN_MOMENTS[:4]] \
        + _GOLDEN_MOMENTS[4:] + [f"se_{c}" for c in _GOLDEN_MOMENTS[4:]]
    m = SphericalMeasurement(
        r=point.r_m, theta=math.radians(point.theta_deg), phi=math.radians(point.phi_deg),
        rdot=point.rdot_mps, dim=3,
    )
    noise = NoiseSpec(
        sigma_r=point.sigma_r_m, sigma_theta=math.radians(point.sigma_theta_deg),
        sigma_phi=math.radians(point.sigma_phi_deg), sigma_rdot=point.sigma_rdot_mps,
        rho=point.rho,
    )
    mu, cov = unbiased_stats(m, noise)
    closed = list(mu) + [cov[i, j] for i in range(4) for j in range(i, 4)]

    def check(out_dir: Path) -> dict[str, float]:
        (row,) = _read_csv(out_dir / "golden_moments.csv", header, 1)
        _read_manifest(out_dir / "manifest_golden.json", "golden", seed)
        col = dict(zip(header, row))
        if [col[f] for f in fields] != [float(getattr(point, f)) for f in fields]:
            raise OutputError("golden_moments.csv: wrong operating point")
        if col["samples"] != samples:
            raise OutputError("golden_moments.csv: wrong sample count")
        for name, value in zip(_GOLDEN_MOMENTS, closed):
            se = col[f"se_{name}"]
            if not se > 0 or abs(value - col[name]) > GOLDEN_SE_MULTIPLE * se:
                raise OutputError(
                    f"golden: closed-form {name}={value:.6g} vs oracle {col[name]:.6g} "
                    f"(se {se:.3g}) beyond {GOLDEN_SE_MULTIPLE} se"
                )
        return {}

    point_yaml = ", ".join(f"{f}: {float(getattr(point, f))!r}" for f in fields)
    config = f"golden:\n  samples: {samples}\n  points:\n    - {{{point_yaml}}}\n"
    argv = ("golden", "--config", str(cfg), "--seed", str(seed), "--out", str(out),
            "--jobs", str(jobs))
    return Op(argv, samples, check, config=config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "track_cv",
            "case 1 simulate, 4 runs per op: the headline case, per-scan conversion and filtering",
            "filtered scan-update (runs x 2 variants x 98 scans)",
            1,
            partial(simulate_op, 1, TRACK_CV_RUNS),
        ),
        Workload(
            "track_maneuver",
            "case 2 simulate, 12 runs per op on a 2-process pool: the only workload using the pool",
            "filtered scan-update (runs x 2 variants x 98 scans)",
            2,
            partial(simulate_op, 2, TRACK_MANEUVER_RUNS),
            case=2,
        ),
        Workload(
            "sweep_bearing",
            "consistency sweep, 2000 samples per point: batched conversion, no filtering",
            "scored conversion (31 grid points x 2 methods x samples)",
            1,
            partial(consistency_op, SWEEP_SAMPLES),
        ),
        Workload(
            "golden_oracle",
            "golden on one default-grid point, 1.2e6 draws per op: memory- and RNG-bound oracle",
            "oracle draw",
            1,
            partial(golden_op, GOLDEN_SAMPLES),
            speed_kernel="vector",
        ),
    )
}

