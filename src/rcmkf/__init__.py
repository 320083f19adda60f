"""Radar target tracking with range-rate measurements.

Converts spherical radar reports (range, bearing, elevation, range rate) to
Cartesian position plus a range-rate pseudo-measurement, attaches
measurement-conditioned or nested-conditioning error statistics, and tracks
with a sequential Kalman / second-order extended Kalman pipeline. Includes
the consistency (NES) and Monte Carlo RMSE benchmarks and a brute-force
moment oracle used to validate every closed-form statistic.

The package re-exports the names a Monte Carlo study needs; everything else
is imported from its submodule (``rcmkf.conversion``, ``rcmkf.filtering``,
``rcmkf.scenario``, ...).
"""

__version__ = "0.1.0"

from .config import generate_case
from .conversion import ConvertedMeasurement, convert
from .errors import DegenerateCovarianceError, GeometryError
from .evaluation import nees, rmse
from .filtering import FilterVariant
from .montecarlo import Ensemble, run_ensemble

__all__ = [
    "ConvertedMeasurement",
    "DegenerateCovarianceError",
    "Ensemble",
    "FilterVariant",
    "GeometryError",
    "convert",
    "generate_case",
    "nees",
    "rmse",
    "run_ensemble",
]
