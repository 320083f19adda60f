"""Target motion and Doppler radar measurement models.

Truth trajectories follow the discrete constant-velocity :class:`DynamicModel`
with optional piecewise-constant maneuver accelerations applied through its
deterministic input channel. The radar reports range, bearing, elevation (3D
only) and range rate; range and range-rate errors are jointly Gaussian with
correlation coefficient ``rho``, the angle errors are independent Gaussians.

State vectors are plain numpy arrays ordered position-then-velocity:
``[x, y, vx, vy]`` in 2D and ``[x, y, z, vx, vy, vz]`` in 3D. Angles are
radians everywhere inside the library; degrees are accepted only at the
config boundary (see :mod:`rcmkf.config`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

__all__ = [
    "DynamicModel",
    "ManeuverSchedule",
    "NoiseSpec",
    "Scenario",
    "SphericalMeasurement",
    "cv_model",
    "generate_case",
    "position_dim",
    "simulate_truth",
    "synthesize_measurements",
]

# Scans consumed by two-point differencing before filtering starts.
INIT_SCANS = 2


def position_dim(state: np.ndarray) -> int:
    """Spatial dimension (2 or 3) encoded by the length of a state vector."""
    n = np.shape(state)[-1]
    if n == 4:
        return 2
    if n == 6:
        return 3
    raise ValueError(f"state length must be 4 (2D) or 6 (3D), got {n}")


@dataclass(frozen=True)
class DynamicModel:
    """Discrete constant-velocity model ``x' = phi @ x + gamma @ (u + w)`` in 2D or 3D.

    ``phi`` couples each position to its velocity over ``t``; the white noise
    ``w`` (covariance ``q = accel_noise_std**2 * I``) and the per-axis input
    ``u`` act at acceleration level through ``gamma = [[t^2/2 * I], [t * I]]``.
    The matrices are built once from the three fields and are read-only.
    """

    dim: int = 2
    t: float = 1.0
    accel_noise_std: float = 0.01

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim!r}")
        if not (math.isfinite(self.t) and self.t > 0):
            raise ValueError(f"sampling interval must be positive and finite, got {self.t!r}")
        if not (math.isfinite(self.accel_noise_std) and self.accel_noise_std >= 0):
            raise ValueError(
                "acceleration noise std must be finite and nonnegative, "
                f"got {self.accel_noise_std!r}"
            )
        t, eye = self.t, np.eye(self.dim)
        phi = np.block([[eye, t * eye], [np.zeros((self.dim, self.dim)), eye]])
        gamma = np.vstack([0.5 * t**2 * eye, t * eye])
        q = self.accel_noise_std**2 * eye
        matrices = (phi, gamma, q, gamma @ q @ gamma.T)
        for name, value in zip(("phi", "gamma", "q", "_process_noise"), matrices):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return 2 * self.dim

    def process_noise_cov(self) -> np.ndarray:
        """State-space process noise covariance ``gamma @ q @ gamma.T`` (read-only)."""
        return self._process_noise


cv_model = DynamicModel  # the name the config and the tests build the model by


@dataclass(frozen=True, eq=False)
class ManeuverSchedule:
    """Piecewise-constant acceleration schedule applied to truth generation.

    Each entry ``(start_step, accel)`` holds from its start step until the
    next entry begins; before the first entry the acceleration is zero.
    """

    entries: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        starts = [s for s, _ in self.entries]
        if starts != sorted(starts):
            raise ValueError("maneuver entries must be sorted by start step")
        for _, a in self.entries:
            if not np.all(np.isfinite(a)):
                raise ValueError("maneuver accelerations must be finite")

    @staticmethod
    def from_pairs(pairs) -> "ManeuverSchedule":
        return ManeuverSchedule(
            tuple((int(s), np.asarray(a, dtype=float)) for s, a in pairs)
        )

    def accel_at(self, step: int, dim: int) -> np.ndarray:
        """Acceleration in force at transition ``step -> step + 1``."""
        current = np.zeros(dim)
        for start, a in self.entries:
            if step >= start:
                current = a
            else:
                break
        return current


@dataclass(frozen=True)
class NoiseSpec:
    """Radar measurement noise standard deviations (radians for angles).

    ``rho`` is the correlation coefficient between the range and range-rate
    errors; bearing and elevation errors are independent of everything else.
    """

    sigma_r: float
    sigma_theta: float
    sigma_rdot: float
    rho: float = 0.0
    sigma_phi: float = 0.0

    def __post_init__(self):
        for name in ("sigma_r", "sigma_theta", "sigma_rdot", "sigma_phi", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("sigma_r", "sigma_theta", "sigma_rdot", "sigma_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if abs(self.rho) > 1:
            raise ValueError("|rho| must not exceed 1")


@dataclass(frozen=True)
class SphericalMeasurement:
    """One radar report: range [m], bearing, elevation [rad], range rate [m/s].

    ``dim`` is 2 for a polar (no elevation) radar, in which case ``phi`` is
    zero and ignored by consumers.
    """

    r: float
    theta: float
    rdot: float
    phi: float = 0.0
    step: int = 0
    dim: int = 3

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        for name in ("r", "theta", "rdot", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete benchmark setup: dynamics, truth start, maneuvers, noise.

    ``steps`` counts the scans of a run; it must exceed ``INIT_SCANS``, the
    scans that two-point initialization consumes before filtering starts.
    A 2D scenario has no elevation, so its ``noise.sigma_phi`` must be 0.
    """

    model: DynamicModel
    initial_state: np.ndarray
    maneuvers: ManeuverSchedule
    noise: NoiseSpec
    steps: int
    runs: int
    seed: int
    name: str = ""

    def __post_init__(self):
        if self.steps <= INIT_SCANS:
            raise ValueError(
                f"steps must be > {INIT_SCANS}: two-point initialization consumes "
                f"the first {INIT_SCANS} scans"
            )
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not np.all(np.isfinite(self.initial_state)):
            raise ValueError("initial state must be finite")
        if len(self.initial_state) != self.model.n:
            raise ValueError("initial state does not match the model size")
        if self.dim == 2 and self.noise.sigma_phi != 0:
            raise ValueError("a 2D radar measures no elevation: sigma_phi must be 0")

    @property
    def dim(self) -> int:
        return self.model.dim


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product ``a @ x`` over matching leading axes."""
    return (a @ x[..., None])[..., 0]


def _spherical(states: np.ndarray):
    """Noise-free ``(r, theta, phi, rdot)`` of Cartesian states with any leading axes.

    Range is the Euclidean norm of the position, bearing is ``atan2(y, x)``,
    elevation is measured from the horizontal plane (zero in 2D), and range
    rate is the radial velocity component.
    """
    dim = position_dim(states)
    x, y = states[..., 0], states[..., 1]
    vel = states[..., dim:]
    horizontal2 = x * x + y * y
    dot = x * vel[..., 0] + y * vel[..., 1]
    if dim == 3:
        z = states[..., 2]
        r = np.sqrt(horizontal2 + z * z)
        phi = np.arctan2(z, np.sqrt(horizontal2))
        dot = dot + z * vel[..., 2]
    else:
        r = np.sqrt(horizontal2)
        phi = np.zeros_like(r)
    if np.any(r == 0.0):
        raise GeometryError("range and angles are undefined at the sensor origin")
    return r, np.arctan2(y, x), phi, dot / r


def _scale_noise(noise: NoiseSpec, z: np.ndarray) -> np.ndarray:
    """Scale a ``(4, ...)`` standard-normal block in place into (r, theta, phi, rdot) errors.

    The range-rate error is built from the range error's standard normal via
    the Cholesky factor of the 2x2 correlation block, so it is formed before
    that row is scaled. Returns ``z``.
    """
    drd = z[3]
    drd *= math.sqrt(1.0 - noise.rho**2)
    drd += noise.rho * z[0]
    drd *= noise.sigma_rdot
    z[0] *= noise.sigma_r
    z[1] *= noise.sigma_theta
    z[2] *= noise.sigma_phi
    return z


def _noise_matrix(noise: NoiseSpec, size, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal driven draws of (r, theta, phi, rdot) errors.

    One ``(4,) + size`` draw scaled in place by :func:`_scale_noise`. The
    measurement synthesis, the consistency sweep and the nested reference
    use it; the Monte Carlo oracle draws into its own ``(4, batch)``
    float64 buffer (about 32 B per draw) and scales it with the same
    helper, so every consumer sees the identical noise construction.
    """
    return _scale_noise(noise, rng.standard_normal((4,) + tuple(np.atleast_1d(size))))


def _simulate_truths(scenario: Scenario, rngs) -> np.ndarray:
    """Truth trajectories of shape ``(runs, steps, n)``, one per generator.

    Each run draws its process noise as one ``(steps - 1, dim)`` block from
    its own generator: the same numbers in the same order as one draw per
    step. The runs then step together.
    """
    model = scenario.model
    size = (scenario.steps - 1, model.dim)
    w = np.stack([model.accel_noise_std * rng.standard_normal(size) for rng in rngs])
    # the inputs of every transition, formed before stepping: gamma @ u per step
    # and gamma @ w per (run, step), added after phi @ x in that order
    accel = np.array(
        [scenario.maneuvers.accel_at(k, model.dim) for k in range(scenario.steps - 1)]
    )
    gu = _mv(model.gamma, accel)
    gw = _mv(model.gamma, w)
    states = np.empty((len(rngs), scenario.steps, model.n))
    states[:, 0] = scenario.initial_state
    for k in range(scenario.steps - 1):
        states[:, k + 1] = _mv(model.phi, states[:, k]) + gu[k] + gw[:, k]
    return states


def simulate_truth(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Truth trajectory of shape ``(steps, n)`` for one realization."""
    return _simulate_truths(scenario, [rng])[0]


def _synthesize(truths: np.ndarray, noise: NoiseSpec, rngs) -> np.ndarray:
    """Noisy ``(r, theta, phi, rdot)`` rows for ``(runs, steps, n)`` truths.

    Returns ``(runs, steps, 4)``; run ``i`` draws its noise from ``rngs[i]``.
    In 2D the phi column is zero.
    """
    draws = np.stack([_noise_matrix(noise, truths.shape[1], rng) for rng in rngs], axis=1)
    r, theta, phi, rdot = _spherical(truths)
    if position_dim(truths) == 3:
        phi = phi + draws[2]
    return np.stack([r + draws[0], theta + draws[1], phi, rdot + draws[3]], axis=-1)


def synthesize_measurements(
    truth: np.ndarray, noise: NoiseSpec, rng: np.random.Generator
) -> list[SphericalMeasurement]:
    """Noisy spherical measurements of every state in a truth trajectory."""
    dim = position_dim(truth)
    rows = _synthesize(np.asarray(truth, dtype=float)[None], noise, [rng])[0]
    return [
        SphericalMeasurement(r=r, theta=theta, phi=phi, rdot=rdot, step=k, dim=dim)
        for k, (r, theta, phi, rdot) in enumerate(rows.tolist())
    ]


# Benchmark case parameters: 2D radar, T = 1 s, 100 scans, 500 runs.
_CASE_NOISE = NoiseSpec(
    sigma_r=200.0,
    sigma_theta=math.radians(2.5),
    sigma_rdot=1.0,
    rho=0.3,
)
_CASE2_STARTS = (31, 38, 49, 61, 65, 66, 81)
_CASE2_ACCELS = (5.0, -8.0, 10.0, 0.0, -10.0, -5.0, 0.0)


def generate_case(case_id: int) -> Scenario:
    """Benchmark scenario 1 (near constant velocity) or 2 (maneuvering).

    Both cases start at (80 km, 80 km) and share the sensor noise spec
    (sigma_r 200 m, sigma_theta 2.5 deg, sigma_rdot 1 m/s, rho 0.3) and a
    0.01 m/s^2 process noise. Case 1 flies at (200, 200) m/s with no
    maneuvers; case 2 starts at (0, 200) m/s and applies the same scheduled
    acceleration on both axes.
    """
    model = cv_model(dim=2, t=1.0, accel_noise_std=0.01)
    if case_id == 1:
        initial = np.array([80e3, 80e3, 200.0, 200.0])
        maneuvers = ManeuverSchedule()
    elif case_id == 2:
        initial = np.array([80e3, 80e3, 0.0, 200.0])
        maneuvers = ManeuverSchedule.from_pairs(
            (s, (a, a)) for s, a in zip(_CASE2_STARTS, _CASE2_ACCELS)
        )
    else:
        raise ValueError(f"unknown case id {case_id!r} (supported: 1, 2)")
    return Scenario(
        model=model,
        initial_state=initial,
        maneuvers=maneuvers,
        noise=_CASE_NOISE,
        steps=100,
        runs=500,
        seed=42,
        name=f"case{case_id}",
    )
