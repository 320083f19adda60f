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
the calling process; ``run_single`` filters a chunk of one run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conversion import _convert_batch, _raise_if_no_stats
from .filtering import FilterVariant, filter_scans, initialize_belief
from .scenario import INIT_SCANS, Scenario, _simulate_truths, _synthesize

# unused here; the benchmark's tracer wraps them (test_benchmark_trace_hooks_resolve)
from .conversion import convert
from .filtering import run_filter
from .scenario import simulate_truth, synthesize_measurements

__all__ = ["Ensemble", "run_ensemble", "run_single"]


def _check_variants(variants: tuple[FilterVariant, ...]) -> None:
    if not variants:
        raise ValueError("an ensemble needs at least one filter variant")
    if len(set(variants)) != len(variants):
        raise ValueError(f"variants must be distinct, got {variants}")


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
        _check_variants(self.variants)
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

    A one-run :class:`Ensemble`: the lockstep engine on a chunk of one
    seed. :func:`run_ensemble` gives the same run, bit for bit, from any
    chunk.
    """
    return _filter_chunk(scenario, variants, [seed])


def _filter_chunk(
    scenario: Scenario,
    variants: tuple[FilterVariant, ...],
    seeds: list[np.random.SeedSequence],
) -> Ensemble:
    """Filter one run per seed, all in lockstep.

    The variants are checked first: at least one, and no two the same.
    Each run keeps its own generator and draw order, so a run's arrays do
    not depend on which chunk it is in. A measurement whose range is not
    positive, or a degenerate conversion, skips only its own (run, variant,
    scan); one in an initialization scan fails the chunk with an error that
    names the first such scan, run and variant.
    """
    variants = tuple(variants)
    _check_variants(variants)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    truth = _simulate_truths(scenario, rngs)  # (runs, steps, n)
    meas = _synthesize(truth, scenario.noise, rngs)  # (runs, steps, 4)
    # leading axes (scans, runs, variants) from here on
    scans = meas.swapaxes(0, 1)
    z, ok = _convert_batch(scans, scenario.noise, [v.method for v in variants], scenario.dim)
    if not np.all(ok[:INIT_SCANS]):
        scan, run, v = np.argwhere(~ok[:INIT_SCANS])[0]  # the first, in (scan, run, variant) order
        _raise_if_no_stats(
            scans[scan, run, 0],
            ok[scan, run, v],
            f"initialization scan {scan} of run {run}, variant {variants[v].name}: ",
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

    One child seed per run is spawned from ``scenario.seed``, and every run
    is filtered in one lockstep chunk, which checks the variants before it
    simulates any run. Runs come back in seed order along the first axis.
    """
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.runs)
    return _filter_chunk(scenario, variants, children)
