"""Shared fixtures."""

import pytest

from rcmkf import montecarlo


@pytest.fixture
def two_workers(monkeypatch):
    """Make ``run_ensemble`` split even a tiny ensemble over two workers.

    Returns the ``max_workers`` of every pool it starts, so a test can check
    that the pool path really ran.
    """
    pools = []
    real = montecarlo.ProcessPoolExecutor

    def recording(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "MIN_RUNS_PER_WORKER", 1)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", recording)
    return pools
