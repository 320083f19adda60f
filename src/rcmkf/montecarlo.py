"""Seeded Monte Carlo ensemble execution.

A master seed is split into one independent child stream per realization up
front, so run ``i`` consumes exactly the same randomness whether the
ensemble executes in one process or across worker processes. Both filter
variants inside a run see the identical truth trajectory and measurement
stream, which keeps the RMSE comparison paired.

The ensemble engine works on whole chunks of runs: it synthesizes every
run's truth and measurements, converts every (scan, run, variant) triple in
one batched call, and then steps all runs and variants through the filter
together. The result is one :class:`Ensemble` of arrays with the runs along
the first axis. ``run_single`` runs a batch of one, scan by scan, through
the same conversion and filter code; it checks that a run's result does not
depend on batching, and is not a second implementation.

Most of a chunk's time is per-scan overhead that all its runs share, so
splitting an ensemble across worker processes pays only for large
ensembles: ``run_ensemble`` starts a pool only when every worker gets at
least ``MIN_RUNS_PER_WORKER`` runs and there is a CPU for each, and runs
in-process otherwise. A worker returns its chunk's arrays, and the parent
joins them along the run axis.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conversion import _convert_batch, convert
from .errors import DegenerateCovarianceError
from .filtering import FilterVariant, filter_scans, initialize_belief, run_filter
from .scenario import (
    INIT_SCANS,
    Scenario,
    _simulate_truths,
    _synthesize,
    simulate_truth,
    synthesize_measurements,
)

__all__ = ["Ensemble", "run_ensemble", "run_single"]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Every realization of a Monte Carlo ensemble, as arrays ordered by run.

    ``truth`` is ``(runs, steps, n)`` and ``measurements`` ``(runs, steps,
    4)``, one (r, theta, phi, rdot) row per scan. ``means``, ``covs`` and
    ``updated`` hold each variant's posterior on the estimation scans
    ``INIT_SCANS .. steps-1``, with leading axes ``(runs, variants,
    scans)``; ``updated`` is false where a scan was predict-only.
    """

    scenario: str
    variants: tuple[FilterVariant, ...]
    truth: np.ndarray
    measurements: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    updated: np.ndarray

    def __post_init__(self):
        if self.truth.ndim != 3 or len(self.truth) == 0:
            raise ValueError(f"truth must be (runs >= 1, steps, n), got shape {self.truth.shape}")
        runs, steps, n = self.truth.shape
        if len(set(self.variants)) != len(self.variants):
            raise ValueError(f"variants must be distinct, got {self.variants}")
        scans = (runs, len(self.variants), steps - INIT_SCANS)
        expected = {
            "measurements": (runs, steps, 4),
            "means": scans + (n,),
            "covs": scans + (n, n),
            "updated": scans,
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(
                    f"{name} of shape {getattr(self, name).shape} does not fit the ensemble "
                    f"layout {shape}"
                )


def run_single(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...],
    seed: np.random.SeedSequence,
) -> Ensemble:
    """Simulate one realization and run every requested variant on it.

    A one-run :class:`Ensemble`: the run goes scan by scan through
    :func:`convert` and :func:`run_filter`, which are the batched conversion
    and filter on a batch of one. :func:`run_ensemble` gives the same run,
    up to rounding, from any chunk.
    """
    rng = np.random.default_rng(seed)
    truth = simulate_truth(scenario, rng)
    measurements = synthesize_measurements(truth, scenario.noise, rng)
    runs = []
    for variant in variants:
        init = initialize_belief(
            convert(measurements[0], scenario.noise, variant.method),
            convert(measurements[1], scenario.noise, variant.method),
            scenario.model.t,
        )
        runs.append(
            run_filter(variant, measurements[INIT_SCANS:], scenario.noise, scenario.model, init)
        )
    steps = np.arange(INIT_SCANS, scenario.steps)
    return Ensemble(
        scenario=scenario.name,
        variants=tuple(variants),
        truth=truth[None],
        measurements=np.array([[[m.r, m.theta, m.phi, m.rdot] for m in measurements]]),
        means=np.array([[[b.mean for b in run.beliefs] for run in runs]]),
        covs=np.array([[[b.cov for b in run.beliefs] for run in runs]]),
        updated=np.array([[~np.isin(steps, run.skipped_steps) for run in runs]]),
    )


def _filter_chunk(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...],
    seeds: list[np.random.SeedSequence],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Filter one run per seed, all in lockstep; returns the chunk's arrays.

    Returns the array fields of :class:`Ensemble` in order, ``(truth,
    measurements, means, covs, updated)``, each one contiguous block, so a
    worker process sends back five buffers. Each run keeps its own
    generator and draw order, so a run's arrays do not depend on which chunk
    it is in. A degenerate conversion skips only its own (run, variant,
    scan); one in an initialization scan fails the chunk, as it fails
    :func:`run_single`.
    """
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
    return (
        truth,
        meas,
        np.ascontiguousarray(np.moveaxis(post.mean, 0, 2)),
        np.ascontiguousarray(np.moveaxis(post.cov, 0, 2)),
        np.ascontiguousarray(np.moveaxis(updated, 0, 2)),
    )


# A worker pays the lockstep engine's per-scan overhead once for its whole
# chunk, plus its share of the pool's start-up and of returning its arrays,
# so a pool pays only when every worker has enough runs to amortize that.
# Break-even, jobs=2 against jobs=1 (run_ensemble wall time on 2 vCPUs; 10
# alternating pairs, each the median of 3 calls): median speedup, and the
# pairs the pool won.
#
#   runs  per worker    case 1         case 2
#     50       25       0.43   0/10    0.68   0/10
#    100       50       0.55   0/10    0.80   0/10
#    200      100       0.74   1/10    0.96   4/10
#    300      150       0.89   3/10    1.06   7/10
#    400      200       1.06   7/10    0.94   4/10
#    500      250       1.21  10/10    0.99   4/10
#   1000      500       1.40  10/10    1.26  10/10
#   2000     1000       1.27  10/10    1.41  10/10
#
# Below 200 runs per worker the pool loses; from 300 it won at least 8 of
# 10 pairs of both cases in every set (a second, interleaved set is in
# docs/config_schema.md). At 250 the two sets gave 17 of 20 pairs of case 1
# and 13 of 20 of case 2, with median speedups of 0.99 to 1.21, so the
# paper's 500-run ensemble keeps its pool.
MIN_RUNS_PER_WORKER = 250


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_ensemble(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...] = (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D),
    jobs: int = 1,
) -> Ensemble:
    """Execute the scenario's Monte Carlo ensemble.

    One child seed per run is spawned from ``scenario.seed`` before any
    work starts.
    ``jobs`` caps the number of worker processes. The ensemble uses
    ``min(jobs, usable CPUs, runs // MIN_RUNS_PER_WORKER)`` workers, each
    taking one contiguous chunk of runs; with at most one it runs
    in-process and starts no pool. A run's arrays do not depend on its
    chunk, so the result is independent of ``jobs``. Runs come back in
    seed order along the first axis.
    """
    variants = tuple(variants)
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.runs)
    workers = min(jobs, _usable_cpus(), scenario.runs // MIN_RUNS_PER_WORKER)
    if workers <= 1:
        return Ensemble(scenario.name, variants, *_filter_chunk(scenario, variants, children))
    chunks = np.array_split(np.arange(scenario.runs), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_filter_chunk, scenario, variants, children[c[0] : c[-1] + 1])
            for c in chunks
        ]
        parts = [future.result() for future in futures]
    return Ensemble(scenario.name, variants, *map(np.concatenate, zip(*parts)))
