"""Experiment configuration: YAML schema, validation, scenario building.

The config file is a nested key-value document mirroring the scenario and
experiment types field for field. Their annotations are the one statement of
the schema: :func:`_parse` checks every value against them. Angles are
degrees and distances meters at this boundary only; everything becomes
radians/SI on the way in. The paper's two benchmark cases are presets of the
schema (``_CASES``). See docs/config_schema.md for the documented schema.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import re
import typing
from dataclasses import dataclass, fields

import numpy as np

from .filtering import FilterVariant
from .scenario import DynamicModel, ManeuverSchedule, NoiseSpec, Scenario, SphericalMeasurement

__all__ = [
    "ConfigError",
    "ConsistencyConfig",
    "ExperimentConfig",
    "GeometryConfig",
    "GoldenConfig",
    "GoldenPoint",
    "ManeuverConfig",
    "NoiseConfig",
    "ScenarioConfig",
    "build_geometry",
    "build_golden_point",
    "build_noise",
    "build_scenario",
    "config_from_dict",
    "config_to_dict",
    "default_golden_grid",
    "default_sigma_grid",
    "generate_case",
    "load_config",
]


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


@dataclass(frozen=True)
class NoiseConfig:
    sigma_r_m: float = 200.0
    sigma_theta_deg: float = 2.5
    sigma_phi_deg: float = 0.0
    sigma_rdot_mps: float = 1.0
    rho: float = 0.3


@dataclass(frozen=True)
class ManeuverConfig:
    start_step: int
    accel_mps2: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """Inline scenario or benchmark case preset (``_CASES``); the defaults are case 1."""

    steps: int = 100
    runs: int = 500
    sample_interval_s: float = 1.0
    process_noise_std_mps2: float = 0.01
    initial_position_m: tuple[float, ...] = (80000.0, 80000.0)
    initial_velocity_mps: tuple[float, ...] = (200.0, 200.0)
    maneuvers: tuple[ManeuverConfig, ...] = ()
    noise: NoiseConfig = NoiseConfig()


@dataclass(frozen=True)
class GeometryConfig:
    """Fixed true spherical point for the consistency sweep (2D radar)."""

    r_m: float = 10000.0
    theta_deg: float = 45.0
    rdot_mps: float = 100.0


@dataclass(frozen=True)
class ConsistencyConfig:
    sigma_theta_deg_max: float = 30.0
    samples: int = 1000
    tail: float = 0.001
    geometry: GeometryConfig = GeometryConfig()
    noise: NoiseConfig = NoiseConfig(
        sigma_r_m=100.0, sigma_theta_deg=0.0, sigma_phi_deg=0.0, sigma_rdot_mps=5.0, rho=0.0
    )


@dataclass(frozen=True)
class GoldenPoint:
    """One operating point for the brute-force moment tables (3D)."""

    r_m: float
    theta_deg: float
    phi_deg: float
    rdot_mps: float
    sigma_r_m: float
    sigma_theta_deg: float
    sigma_phi_deg: float
    sigma_rdot_mps: float
    rho: float


@dataclass(frozen=True)
class GoldenConfig:
    samples: int = 10_000_000
    points: tuple[GoldenPoint, ...] = ()  # empty selects the default grid


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 42
    out: str = "results"
    variants: tuple[str, ...] = ("rcmkf_u", "rcmkf_d")
    case: int | None = 1
    runs: int | None = None
    scenario: ScenarioConfig | None = None
    consistency: ConsistencyConfig = ConsistencyConfig()
    golden: GoldenConfig = GoldenConfig()


# The paper's benchmark cases: a 2D radar, T = 1 s, 100 scans, 500 runs, the
# same noise and start point. Case 2 flies at (0, 200) m/s and maneuvers with
# the same acceleration on both axes.
_CASES = {
    1: ScenarioConfig(),
    2: ScenarioConfig(
        initial_velocity_mps=(0.0, 200.0),
        maneuvers=tuple(
            ManeuverConfig(start, (a, a))
            for start, a in (
                (31, 5.0), (38, -8.0), (49, 10.0), (61, 0.0), (65, -10.0), (66, -5.0), (81, 0.0)
            )
        ),
    ),
}
_CASE_IDS = ", ".join(map(str, sorted(_CASES)))  # "1, 2", for messages and the --case help


_hints = functools.cache(typing.get_type_hints)  # field name -> annotation, per class


# Scalar annotations: the accepted value type and its name in messages.
# Values are kept as written, so an int in a float field stays an int.
_SCALARS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    str: (str, "a string"),
}


def _parse(tp, value, path: str):
    """Check ``value`` against the annotation ``tp`` and build it.

    Dataclasses come from mappings and ``tuple[T, ...]`` from lists; scalars
    are type-checked and returned unchanged. A boolean is never a number.
    Errors name the dotted path of the offending value.
    """
    if tp in _SCALARS:
        kind, noun = _SCALARS[tp]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path} must be {noun}, got {value!r}")
        if tp is float:
            try:
                float(value)
            except OverflowError:  # an integer beyond the float range; not echoed
                raise ConfigError(f"{path} is too large for a real number") from None
        return value
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping")
        hints = _hints(tp)
        unknown = set(value) - set(hints)
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        kwargs = {name: _parse(hints[name], v, f"{path}.{name}") for name, v in value.items()}
        try:
            return tp(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _parse(args[0], value, path)
    # otherwise tuple[T, ...]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path} must be a list, got {value!r}")
    return tuple(_parse(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from plain data."""
    cfg = _parse(ExperimentConfig, data or {}, "config")
    _validate(cfg)
    return cfg


def _require_size(values, path: str, sizes: tuple[int, ...]) -> None:
    if len(values) not in sizes:
        expected = " or ".join(map(str, sizes))
        raise ConfigError(f"{path} must have {expected} entries, got {len(values)}")


def _validate_scenario(sc: ScenarioConfig) -> None:
    path = "config.scenario"
    _require_size(sc.initial_position_m, f"{path}.initial_position_m", (2, 3))
    dim = len(sc.initial_position_m)
    _require_size(sc.initial_velocity_mps, f"{path}.initial_velocity_mps", (dim,))
    for i, m in enumerate(sc.maneuvers):
        _require_size(m.accel_mps2, f"{path}.maneuvers[{i}].accel_mps2", (dim,))


# Counts (runs, steps, samples) size arrays, so none may exceed numpy's
# index type; a larger one is a config error before any output exists.
_MAX_COUNT = int(np.iinfo(np.intp).max)


def _check_counts(cfg: ExperimentConfig) -> None:
    counts = {
        "runs": cfg.runs,
        "consistency.samples": cfg.consistency.samples,
        "golden.samples": cfg.golden.samples,
    }
    if cfg.scenario is not None:
        counts.update({"scenario.steps": cfg.scenario.steps, "scenario.runs": cfg.scenario.runs})
    for path, value in counts.items():
        if value is not None and value > _MAX_COUNT:  # not echoed: it can run to many digits
            raise ConfigError(f"config.{path} must be at most {_MAX_COUNT}")


def _validate(cfg: ExperimentConfig) -> None:
    _check_counts(cfg)
    if cfg.scenario is not None:
        _validate_scenario(cfg.scenario)
    if not cfg.variants:
        raise ConfigError("at least one filter variant must be selected")
    names = [v.upper() for v in cfg.variants]
    for v, name in zip(cfg.variants, names):
        if name not in FilterVariant.__members__:
            raise ConfigError(f"unknown filter variant {v!r}")
    if len(set(names)) != len(names):
        raise ConfigError(f"filter variants must be distinct, got {list(cfg.variants)}")
    if cfg.case is None and cfg.scenario is None:
        raise ConfigError("either a case id or an inline scenario is required")
    if cfg.case is not None and cfg.case not in _CASES:
        raise ConfigError(f"unknown case {cfg.case!r} (supported: {_CASE_IDS})")
    if cfg.runs is not None and cfg.runs < 1:
        raise ConfigError("runs must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.consistency.samples < 1:
        raise ConfigError("consistency samples must be >= 1")
    if not math.isfinite(cfg.consistency.sigma_theta_deg_max):
        raise ConfigError("sigma_theta_deg_max must be finite")
    if cfg.consistency.sigma_theta_deg_max < 0.5:
        raise ConfigError("sigma_theta_deg_max must be at least 0.5 (empty sweep grid)")
    if cfg.consistency.sigma_theta_deg_max > 180.0:
        raise ConfigError("sigma_theta_deg_max must be at most 180 (a half turn of bearing noise)")
    if not 0.0 < cfg.consistency.tail < 0.5:
        raise ConfigError("consistency tail probability must lie in (0, 0.5)")
    for name, why in (
        ("sigma_phi_deg", "the sweep's 2D radar measures no elevation"),
        ("sigma_theta_deg", "the sweep sets the bearing noise from its grid"),
    ):
        value = getattr(cfg.consistency.noise, name)
        if value != 0:
            raise ConfigError(f"config.consistency.noise.{name} must be 0: {why}, got {value!r}")
    if cfg.golden.samples < 10_000:
        raise ConfigError("golden samples must be >= 1e4")
    points = [("consistency.geometry", cfg.consistency.geometry)]
    points += [(f"golden.points[{i}]", p) for i, p in enumerate(cfg.golden.points)]
    for path, point in points:
        if point.r_m <= 0:  # lets a NaN through to the measurement's "r must be finite"
            raise ConfigError(f"config.{path}.r_m must be > 0, got {point.r_m!r}")


def config_to_dict(cfg) -> dict:
    """Plain nested dict (lists for sequences), invertible by config_from_dict."""
    if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
        return {f.name: config_to_dict(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, tuple):
        return [config_to_dict(v) for v in cfg]
    return cfg


@functools.cache
def _yaml_loader():
    """PyYAML's safe loader, reading numbers as YAML 1.2 does.

    The YAML 1.1 resolver reads a float without a dot or an exponent sign,
    such as ``1e1`` or ``1.0e300``, as a string; one more float resolver
    reads it as the number it is.
    """
    import yaml  # here, not at module top: runs without --config never parse YAML

    class Loader(yaml.SafeLoader):
        """PyYAML's safe loader with YAML 1.2's floats."""

    exponent = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", exponent, list("-+0123456789."))
    return Loader


def load_config(path: str) -> ExperimentConfig:
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_yaml_loader())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer over 4300 digits
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    return config_from_dict(data or {})


def _noise_spec(nc: NoiseConfig | GoldenPoint) -> NoiseSpec:
    """The :class:`NoiseSpec` of a config's noise fields; raises ValueError if invalid."""
    return NoiseSpec(
        sigma_r=nc.sigma_r_m,
        sigma_theta=math.radians(nc.sigma_theta_deg),
        sigma_phi=math.radians(nc.sigma_phi_deg),
        sigma_rdot=nc.sigma_rdot_mps,
        rho=nc.rho,
    )


def build_noise(nc: NoiseConfig) -> NoiseSpec:
    try:
        return _noise_spec(nc)
    except ValueError as exc:
        raise ConfigError(f"invalid noise spec: {exc}") from exc


def build_geometry(gc: GeometryConfig) -> SphericalMeasurement:
    """The consistency sweep's true point, a 2D radar report."""
    try:
        return SphericalMeasurement(gc.r_m, math.radians(gc.theta_deg), gc.rdot_mps, dim=2)
    except ValueError as exc:
        raise ConfigError(f"invalid consistency geometry: {exc}") from exc


def build_golden_point(pt: GoldenPoint) -> tuple[SphericalMeasurement, NoiseSpec]:
    """A golden operating point's 3D radar report and noise."""
    theta, phi = math.radians(pt.theta_deg), math.radians(pt.phi_deg)
    try:
        m = SphericalMeasurement(pt.r_m, theta, pt.rdot_mps, phi=phi, dim=3)
        return m, _noise_spec(pt)
    except ValueError as exc:
        raise ConfigError(f"invalid golden point: {exc}") from exc


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Materialize a validated config's scenario: its inline one, else its case preset."""
    inline = cfg.scenario is not None
    sc = cfg.scenario if inline else _CASES[cfg.case]
    state = np.array([*sc.initial_position_m, *sc.initial_velocity_mps], dtype=float)
    try:
        return Scenario(
            model=DynamicModel(len(state) // 2, sc.sample_interval_s, sc.process_noise_std_mps2),
            initial_state=state,
            maneuvers=ManeuverSchedule.from_pairs(
                (m.start_step, m.accel_mps2) for m in sc.maneuvers
            ),
            noise=build_noise(sc.noise),
            steps=sc.steps,
            runs=cfg.runs if cfg.runs is not None else sc.runs,
            seed=cfg.seed,
            name="scenario" if inline else f"case{cfg.case}",
        )
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def generate_case(case_id: int) -> Scenario:
    """Benchmark case 1 (near constant velocity) or 2 (maneuvering): 500 runs, seed 42.

    It is the ``_CASES`` preset, built as ``rcmkf simulate --case`` builds it.
    """
    cfg = ExperimentConfig(case=case_id)
    _validate(cfg)
    return build_scenario(cfg)


def default_sigma_grid(max_deg: float) -> np.ndarray:
    """Sweep grid: 0.5 degrees, then integer degrees up to the maximum."""
    if max_deg < 0.5:
        return np.array([])
    return np.concatenate([[0.5], np.arange(1.0, math.floor(max_deg) + 1.0)])


def default_golden_grid() -> tuple[GoldenPoint, ...]:
    """Validation grid for the moment oracle.

    Crosses range, bearing-noise level and range/range-rate correlation;
    elevation noise is tied to the bearing noise so every 3D term is
    exercised.
    """
    points = []
    for r_km in (1.0, 10.0, 100.0):
        for sig_deg in (1.0, 5.0, 15.0, 30.0):
            for rho in (0.0, 0.3, 0.9):
                points.append(
                    GoldenPoint(
                        r_m=1000.0 * r_km,
                        theta_deg=30.0,
                        phi_deg=20.0,
                        rdot_mps=100.0,
                        sigma_r_m=100.0,
                        sigma_theta_deg=sig_deg,
                        sigma_phi_deg=sig_deg,
                        sigma_rdot_mps=5.0,
                        rho=rho,
                    )
                )
    return tuple(points)
