"""Acceptance suite: one test per acceptance criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. Criterion 3 is asserted exactly as stated; see
FORMULA_NOTES.md ("Benchmark findings") for the analysis of its case-1
outcome.
"""

import dataclasses
import math

import numpy as np
import pytest

import rcmkf
from rcmkf.cli import main
from rcmkf.config import default_golden_grid, default_sigma_grid, generate_case
from rcmkf.conversion import (
    ConversionMethod,
    convert,
    mc_moment_oracle,
    nested_stats,
    unbiased_stats,
)
from rcmkf.evaluation import consistency_sweep, rmse
from rcmkf.filtering import (
    FilterVariant,
    GaussianBelief,
    decorrelate,
    initialize_belief,
    pseudo_jacobian,
    quadratic_correction,
    run_filter,
)
from rcmkf.montecarlo import run_ensemble
from rcmkf.scenario import (
    DynamicModel,
    NoiseSpec,
    SphericalMeasurement,
    simulate_truth,
    synthesize_measurements,
)


def verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_consistency_reproduction():
    geometry = SphericalMeasurement(r=10000.0, theta=math.radians(45.0), rdot=100.0, dim=2)
    noise = NoiseSpec(sigma_r=100.0, sigma_theta=0.0, sigma_rdot=5.0, rho=0.0)
    grid = default_sigma_grid(30.0)
    rng = np.random.default_rng(np.random.SeedSequence(42))
    reports = consistency_sweep(tuple(ConversionMethod), geometry, noise, grid, 1000, rng)
    cond = reports[ConversionMethod.MEASUREMENT_CONDITIONED]
    nest = reports[ConversionMethod.NESTED_CONDITIONING]
    excursions = int((~cond.inside).sum())
    nested_exits = bool(np.any((~nest.inside) & (nest.sigma_theta_deg >= 15.0)))
    ok = excursions <= 2 and nested_exits
    assert verdict(
        1,
        "consistency sweep",
        ok,
        f"[conditioned excursions={excursions}/31, nested exits >=15deg: {nested_exits}]",
    )


def test_criterion_2_oracle_equivalence():
    points = default_golden_grid()
    seeds = np.random.SeedSequence(2024).spawn(len(points))
    iu = np.triu_indices(4)
    worst = 0.0
    for pt, seed in zip(points, seeds):
        m = SphericalMeasurement(
            r=pt.r_m,
            theta=math.radians(pt.theta_deg),
            phi=math.radians(pt.phi_deg),
            rdot=pt.rdot_mps,
            dim=3,
        )
        noise = NoiseSpec(
            sigma_r=pt.sigma_r_m,
            sigma_theta=math.radians(pt.sigma_theta_deg),
            sigma_phi=math.radians(pt.sigma_phi_deg),
            sigma_rdot=pt.sigma_rdot_mps,
            rho=pt.rho,
        )
        est = mc_moment_oracle(m, noise, 10_000_000, np.random.default_rng(seed))
        mu, cov = unbiased_stats(m, noise)
        dev = max(
            float(np.max(np.abs(mu - est.mean) / est.se_mean)),
            float(np.max(np.abs((cov - est.cov)[iu]) / est.se_cov[iu])),
        )
        worst = max(worst, dev)
    ok = worst <= 3.0
    assert verdict(2, "oracle equivalence", ok, f"[36 points, worst |dev|={worst:.2f} se]")


@pytest.mark.parametrize("case", [1, 2])
def test_criterion_3_rmse_ordering(case):
    scenario = generate_case(case)  # 500 runs and seed 42 per the benchmark definition
    records = run_ensemble(scenario, (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D))
    report = rmse(records)
    mask = report.steps >= 10
    avg_u = float(report.rmse["RCMKF_U"][mask].mean())
    avg_d = float(report.rmse["RCMKF_D"][mask].mean())
    ok = avg_u <= avg_d
    assert verdict(
        3,
        f"rmse ordering case {case}",
        ok,
        f"[500 runs, steps 10-100: RCMKF-U={avg_u:.1f} m, RCMKF-D={avg_d:.1f} m]",
    ), (
        f"case {case}: time-averaged position RMSE of RCMKF-U ({avg_u:.1f} m) exceeds "
        f"RCMKF-D ({avg_d:.1f} m); see the Benchmark findings in FORMULA_NOTES.md for the analysis"
    )


def test_criterion_4_quadratic_moment_identities():
    rng = np.random.default_rng(27)
    n = 1_000_000
    ok = True
    worst = 0.0
    for _ in range(10):
        p = int(rng.choice([2, 3]))
        x_hat = rng.standard_normal(2 * p) * rng.uniform(1, 100)
        a = rng.standard_normal((2 * p, 2 * p))
        cov = a @ a.T + 2 * p * np.eye(2 * p)
        l_row = rng.standard_normal(p) * rng.uniform(0, 20)

        chol = np.linalg.cholesky(cov)
        x = x_hat[None, :] + (chol @ rng.standard_normal((2 * p, n))).T
        h = x[:, :p] @ l_row + np.einsum("ni,ni->n", x[:, :p], x[:, p:])
        h0 = float(l_row @ x_hat[:p]) + float(x_hat[:p] @ x_hat[p:])

        delta2, a_k = quadratic_correction(cov)
        grad = pseudo_jacobian(x_hat, l_row)

        dev_mean = abs(h.mean() - h0 - 0.5 * delta2) / (h.std() / math.sqrt(n))
        centered = h - h.mean()
        var = centered.var()
        se_var = math.sqrt((centered**2).var() / n)
        dev_var = abs(var - (grad @ cov @ grad + a_k)) / se_var
        worst = max(worst, dev_mean, dev_var)
        ok = ok and dev_mean <= 3.0 and dev_var <= 3.0
    assert verdict(4, "quadratic moment identities", ok, f"[10 beliefs, worst dev={worst:.2f} se]")


def test_criterion_5_property_suites(tmp_path):
    rng = np.random.default_rng(33)
    ok = True

    # covariance symmetry / PSD across operating points and filter updates
    for _ in range(25):
        m = SphericalMeasurement(
            r=float(rng.uniform(1e3, 2e5)),
            theta=float(rng.uniform(-math.pi, math.pi)),
            phi=float(rng.uniform(-1.0, 1.0)),
            rdot=float(rng.uniform(-300, 300)),
            dim=3,
        )
        noise = NoiseSpec(
            sigma_r=float(rng.uniform(0, 300)),
            sigma_theta=float(rng.uniform(0, 0.5)),
            sigma_phi=float(rng.uniform(0, 0.5)),
            sigma_rdot=float(rng.uniform(0, 10)),
            rho=float(rng.uniform(-0.9, 0.9)),
        )
        for stats in (unbiased_stats, nested_stats):
            _, cov = stats(m, noise)
            ok = ok and np.allclose(cov, cov.T) and np.linalg.eigvalsh(cov).min() >= -1e-9 * np.trace(cov)

    # Jacobian vs central differences
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        state = rng.standard_normal(2 * p) * 100
        l_row = rng.standard_normal(p) * 10
        grad = pseudo_jacobian(state, l_row)
        for i in range(2 * p):
            step = 1e-4 * max(1.0, abs(state[i]))
            e = np.zeros(2 * p)
            e[i] = step

            def h(x):
                return float(l_row @ x[:p]) + float(x[:p] @ x[p:])

            fd = (h(state + e) - h(state - e)) / (2 * step)
            ok = ok and abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    # 3D -> 2D collapse
    noise2 = NoiseSpec(sigma_r=150.0, sigma_theta=0.3, sigma_rdot=4.0, rho=0.4)
    m2 = SphericalMeasurement(r=25000.0, theta=0.8, rdot=-50.0, dim=2)
    m3 = SphericalMeasurement(r=25000.0, theta=0.8, phi=0.0, rdot=-50.0, dim=3)
    for stats in (unbiased_stats, nested_stats):
        mu2, cov2 = stats(m2, noise2)
        mu3, cov3 = stats(m3, noise2)
        idx = np.array([0, 1, 3])
        scale = np.abs(cov3).max()
        ok = ok and np.allclose(cov2, cov3[np.ix_(idx, idx)], rtol=0, atol=1e-12 * scale)
        ok = ok and np.allclose(mu2, mu3[idx], rtol=0, atol=1e-12 * max(1.0, np.abs(mu3).max()))

    # decorrelation zero cross-covariance
    for _ in range(25):
        a = rng.standard_normal((4, 4))
        cov = a @ a.T * 100 + 400 * np.eye(4)
        z = rcmkf.ConvertedMeasurement(
            position=np.zeros(3), pseudo=0.0, mu=np.zeros(4), cov=cov, dim=3
        )
        d = decorrelate(z)
        resid = cov[3, :3] + d.l_row @ cov[:3, :3]
        ok = ok and np.abs(resid).max() <= 1e-12 * np.abs(cov).max()

    # deterministic replay: byte-identical CSVs under a fixed seed
    sim = ["simulate", "--case", "1", "--runs", "20", "--seed", "5"]
    main(sim + ["--out", str(tmp_path / "a")])
    main(sim + ["--out", str(tmp_path / "b")])
    ok = ok and (tmp_path / "a" / "rmse_case1.csv").read_bytes() == (
        tmp_path / "b" / "rmse_case1.csv"
    ).read_bytes()
    con = ["consistency", "--sigma-theta-max", "3", "--seed", "42"]
    main(con + ["--out", str(tmp_path / "c")])
    main(con + ["--out", str(tmp_path / "d")])
    ok = ok and (tmp_path / "c" / "consistency.csv").read_bytes() == (
        tmp_path / "d" / "consistency.csv"
    ).read_bytes()

    assert verdict(5, "property suites", ok)


def test_criterion_6_degenerate_exactness():
    scenario = dataclasses.replace(
        generate_case(1),
        model=DynamicModel(2, 1.0, 0.0),
        noise=NoiseSpec(0.0, 0.0, 0.0, 0.0),
    )
    rng = np.random.default_rng(0)
    truth = simulate_truth(scenario, rng)
    measurements = synthesize_measurements(truth, scenario.noise, rng)
    worst = 0.0
    for variant in FilterVariant:
        init = GaussianBelief(truth[1].copy(), np.eye(4))
        run = run_filter(variant, measurements[2:], scenario.noise, scenario.model, init)
        for k, belief in enumerate(run.beliefs):
            worst = max(worst, float(np.linalg.norm(belief.mean[:2] - truth[k + 2, :2])))
    ok = worst < 1e-6
    assert verdict(6, "degenerate exactness", ok, f"[max position error {worst:.2e} m]")
