"""Seeded Monte Carlo ensemble execution.

A master seed is split into one independent child stream per realization up
front, so run ``i`` consumes exactly the same randomness whether the
ensemble executes in one process or across worker processes. Both filter
variants inside a run see the identical truth trajectory and measurement
stream, which keeps the RMSE comparison paired.

The ensemble engine works on whole chunks of runs: it synthesizes every
run's truth and measurements, converts every (scan, run, variant) triple in
one batched call, and then steps all runs and variants through the filter
together. ``run_single`` is the per-run reference path: it converts scan by
scan and filters one track at a time through the same filter stages.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .conversion import _convert_batch, convert
from .errors import DegenerateCovarianceError
from .filtering import FilterVariant, filter_scans, initialize_belief, run_filter
from .scenario import (
    Scenario,
    _simulate_truths,
    _synthesize,
    simulate_truth,
    synthesize_measurements,
)

__all__ = ["RunRecord", "run_ensemble", "run_single"]

# Scans consumed by two-point differencing before filtering starts.
INIT_SCANS = 2


@dataclass(eq=False)
class RunRecord:
    """Everything retained from one Monte Carlo realization.

    ``estimates``/``covariances``/``position_errors`` are keyed by variant
    name and aligned with steps ``est_start .. steps-1``; ``measurements``
    stacks (r, theta, phi, rdot) rows per scan.
    """

    run_index: int
    scenario: str
    truth: np.ndarray
    measurements: np.ndarray
    estimates: dict[str, np.ndarray] = field(default_factory=dict)
    covariances: dict[str, np.ndarray] = field(default_factory=dict)
    position_errors: dict[str, np.ndarray] = field(default_factory=dict)
    skipped: dict[str, list[int]] = field(default_factory=dict)
    est_start: int = INIT_SCANS


def _check_length(scenario: Scenario) -> None:
    if scenario.steps <= INIT_SCANS:
        raise ValueError("scenario too short for two-point initialization")


def run_single(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...],
    run_index: int,
    seed: np.random.SeedSequence,
) -> RunRecord:
    """Simulate one realization and run every requested variant on it.

    Converts scan by scan with :func:`convert`; :func:`run_ensemble` gives
    the same records through the batched conversion, up to rounding.
    """
    _check_length(scenario)
    rng = np.random.default_rng(seed)
    truth = simulate_truth(scenario, rng)
    measurements = synthesize_measurements(truth, scenario.noise, rng)
    record = RunRecord(
        run_index=run_index,
        scenario=scenario.name,
        truth=truth,
        measurements=np.array([[m.r, m.theta, m.phi, m.rdot] for m in measurements]),
    )
    p = scenario.dim
    for variant in variants:
        init = initialize_belief(
            convert(measurements[0], scenario.noise, variant.method),
            convert(measurements[1], scenario.noise, variant.method),
            scenario.model.t,
        )
        run = run_filter(variant, measurements[INIT_SCANS:], scenario.noise, scenario.model, init)
        means = np.array([b.mean for b in run.beliefs])
        record.estimates[variant.name] = means
        record.covariances[variant.name] = np.array([b.cov for b in run.beliefs])
        record.position_errors[variant.name] = means[:, :p] - truth[INIT_SCANS:, :p]
        record.skipped[variant.name] = run.skipped_steps
    return record


def _run_chunk(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...],
    first_index: int,
    seeds: list[np.random.SeedSequence],
) -> list[RunRecord]:
    """Runs ``first_index, first_index + 1, ...`` (one per seed), in lockstep.

    Each run keeps its own generator and draw order, so a run's record does
    not depend on which chunk it is in. A degenerate conversion skips only
    its own (run, variant, scan); one in an initialization scan fails the
    chunk, as it fails :func:`run_single`.
    """
    _check_length(scenario)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    truth = _simulate_truths(scenario, rngs)  # (runs, steps, n)
    meas = _synthesize(truth, scenario.noise, rngs)  # (runs, steps, 4)
    # leading axes (scans, runs, variants) from here on
    z, ok = _convert_batch(
        meas.swapaxes(0, 1), scenario.noise, [v.method for v in variants], scenario.dim
    )
    if not np.all(ok[:INIT_SCANS]):
        raise DegenerateCovarianceError(
            "initialization scan: conversion covariance is indefinite beyond tolerance"
        )
    init = initialize_belief(z[0], z[1], scenario.model.t)
    steps = np.arange(INIT_SCANS, scenario.steps)
    post, updated = filter_scans(init, z[INIT_SCANS:], ok[INIT_SCANS:], steps, scenario.model)
    means = np.moveaxis(post.mean, 0, 2)  # (runs, variants, scans, n)
    covs = np.moveaxis(post.cov, 0, 2)
    p = scenario.dim
    records = []
    for b in range(len(seeds)):
        record = RunRecord(
            run_index=first_index + b, scenario=scenario.name, truth=truth[b], measurements=meas[b]
        )
        for v, variant in enumerate(variants):
            est = means[b, v].copy()
            record.estimates[variant.name] = est
            record.covariances[variant.name] = covs[b, v].copy()
            record.position_errors[variant.name] = est[:, :p] - truth[b, INIT_SCANS:, :p]
            record.skipped[variant.name] = steps[~updated[:, b, v]].tolist()
        records.append(record)
    return records


def run_ensemble(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...] = (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D),
    jobs: int = 1,
    seed: int | None = None,
) -> list[RunRecord]:
    """Execute the scenario's Monte Carlo ensemble.

    Child seeds are spawned from the master seed before any work starts.
    With ``jobs > 1`` each worker process takes one contiguous chunk of
    runs; a run's record does not depend on its chunk, so the result is
    independent of ``jobs``. Records come back ordered by run index.
    """
    master = scenario.seed if seed is None else seed
    children = np.random.SeedSequence(master).spawn(scenario.runs)
    if jobs <= 1:
        return _run_chunk(scenario, variants, 0, children)
    chunks = np.array_split(np.arange(scenario.runs), min(jobs, scenario.runs))
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            pool.submit(_run_chunk, scenario, variants, int(c[0]), children[c[0] : c[-1] + 1])
            for c in chunks
        ]
        return [record for future in futures for record in future.result()]
