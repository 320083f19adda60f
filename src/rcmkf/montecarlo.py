"""Seeded Monte Carlo ensemble execution.

A master seed is split into one independent child stream per realization up
front, so run ``i`` consumes exactly the same randomness whichever chunk of
runs it is filtered in. Both filter variants inside a run see the identical
truth trajectory and measurement stream, which keeps the RMSE comparison
paired.

The ensemble engine works on whole chunks of runs: it synthesizes every
run's truth and measurements, converts every (scan, run, variant) triple in
one batched call, and then steps all runs and variants through the filter
together. The result is one :class:`Ensemble` of arrays with the runs along
the first axis. ``run_ensemble`` filters the whole ensemble as one chunk, in
the calling process. ``run_single`` runs a batch of one, scan by scan,
through the same conversion and filter code; it checks that a run's result
does not depend on batching, and is not a second implementation.
"""

from __future__ import annotations

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
        if not self.variants:
            raise ValueError("an ensemble needs at least one filter variant")
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
) -> Ensemble:
    """Filter one run per seed, all in lockstep.

    Each run keeps its own generator and draw order, so a run's arrays do
    not depend on which chunk it is in. A degenerate conversion skips only
    its own (run, variant, scan); one in an initialization scan fails the
    chunk, as it fails :func:`run_single`.
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
    # zero-copy views of the filter's entries-first outputs, in the ensemble's layout
    return Ensemble(
        scenario.name,
        variants,
        truth,
        meas,
        np.moveaxis(post.mean, 0, 2),
        np.moveaxis(post.cov, 0, 2),
        np.moveaxis(updated, 0, 2),
    )


def run_ensemble(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...] = (FilterVariant.RCMKF_U, FilterVariant.RCMKF_D),
) -> Ensemble:
    """Execute the scenario's Monte Carlo ensemble in this process.

    One child seed per run is spawned from ``scenario.seed`` before any
    work starts, and every run is filtered in one lockstep chunk. Runs come
    back in seed order along the first axis.
    """
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.runs)
    return _filter_chunk(scenario, tuple(variants), children)
