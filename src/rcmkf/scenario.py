"""Target motion and Doppler radar measurement models.

Truth trajectories follow the discrete constant-velocity :class:`DynamicModel`
with optional piecewise-constant maneuver accelerations applied through its
deterministic input channel. The radar reports range, bearing, elevation (3D
only) and range rate; range and range-rate errors are jointly Gaussian with
correlation coefficient ``rho``, the angle errors are independent Gaussians.

State vectors are plain numpy arrays ordered position-then-velocity:
``[x, y, vx, vy]`` in 2D and ``[x, y, z, vx, vy, vz]`` in 3D. Angles are
radians everywhere inside the library; degrees are accepted only at the
config boundary (see :mod:`rcmkf.config`, which also holds the paper's two
benchmark cases as presets and builds every :class:`Scenario`).
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
    "position_dim",
    "simulate_truth",
    "synthesize_measurements",
]

# Scans consumed by two-point differencing before filtering starts.
INIT_SCANS = 2


def _check_interval(t: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"sampling interval must be positive and finite, got {t!r}")


def _check_no_2d_elevation(noise: NoiseSpec, dim: int) -> None:
    if dim == 2 and noise.sigma_phi != 0:
        raise ValueError("a 2D radar measures no elevation: sigma_phi must be 0")


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
        _check_interval(self.t)
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


@dataclass(frozen=True, eq=False)
class ManeuverSchedule:
    """Piecewise-constant acceleration schedule applied to truth generation.

    Each entry ``(start_step, accel)`` holds from its step (>= 0) until the
    next entry begins; before the first entry the acceleration is zero. Of
    two entries with the same start, the later one wins. Every ``accel``
    has one component per axis, shape ``(dim,)`` (checked by :class:`Scenario`).
    """

    entries: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        starts = [s for s, _ in self.entries]
        if starts != sorted(starts):
            raise ValueError("maneuver entries must be sorted by start step")
        if starts and starts[0] < 0:
            raise ValueError(f"maneuver start steps must be >= 0, got {starts[0]}")
        for _, a in self.entries:
            if not np.all(np.isfinite(a)):
                raise ValueError("maneuver accelerations must be finite")

    @staticmethod
    def from_pairs(pairs) -> "ManeuverSchedule":
        return ManeuverSchedule(
            tuple((int(s), np.asarray(a, dtype=float)) for s, a in pairs)
        )

    def table(self, steps: int, dim: int) -> np.ndarray:
        """Acceleration ``u_k`` of each transition ``k -> k + 1``, shape ``(steps - 1, dim)``."""
        accel = np.zeros((steps - 1, dim))
        for start, a in self.entries:
            accel[start:] = a
        return accel


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
    The initial position must not be the sensor origin, and every maneuver
    acceleration has shape ``(dim,)``.
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
        if not np.any(self.initial_state[: self.dim]):
            raise ValueError(
                "initial position is the sensor origin, where range and angles are undefined"
            )
        if any(np.shape(a) != (self.dim,) for _, a in self.maneuvers.entries):
            raise ValueError(f"maneuver accelerations must have shape ({self.dim},)")
        _check_no_2d_elevation(self.noise, self.dim)

    @property
    def dim(self) -> int:
        return self.model.dim


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
    consistency sweep and the nested reference use it; the measurement
    synthesis draws every run's block into one ``(runs, 4, steps)``
    buffer, and the Monte Carlo oracle draws block by block
    (``rcmkf.conversion.mc_moment_oracle``). Both scale with the same
    helper, so every consumer sees the identical noise construction.
    """
    return _scale_noise(noise, rng.standard_normal((4,) + tuple(np.atleast_1d(size))))


def _running_sum(start: np.ndarray, increments) -> np.ndarray:
    """Running sums of ``start`` and interleaved per-step increments along axis 1.

    ``start`` is ``(runs, dim)`` and each increment broadcasts to ``(runs,
    steps - 1, dim)``. The increments of one step are added one at a time,
    in the order given, after those of the step before: the additions of a
    step-by-step loop, in its order, so the sums carry its rounding bit for
    bit. Returns ``(runs, steps, dim)``, a strided view of the running sums.
    """
    runs, dim = start.shape
    m = len(increments)
    sums = np.empty((runs, 1 + m * np.shape(increments[0])[-2], dim))
    sums[:, 0] = start
    per_step = sums[:, 1:].reshape(runs, -1, m, dim)
    for j, inc in enumerate(increments):
        per_step[:, :, j] = inc
    np.cumsum(sums, axis=1, out=sums)
    return sums[:, ::m]


def _simulate_truths(scenario: Scenario, rngs) -> np.ndarray:
    """Truth trajectories of shape ``(runs, steps, n)``, one per generator.

    Each run draws its process noise as one ``(steps - 1, dim)`` block from
    its own generator: the same numbers in the same order as one draw per
    step. The transition ``x' = phi @ x + gamma @ u + gamma @ w`` is then
    unrolled into running sums over the whole ensemble. ``gamma`` is
    diagonal per block, so its products are elementwise: ``g_v = t`` for
    the velocity and ``g_p = t^2 / 2`` for the position. Every step adds,
    in this order,

    - to the velocity: ``g_v u_k``, then ``g_v w_k``;
    - to the position: ``t v_k`` (the velocity before the step), then
      ``g_p u_k``, then ``g_p w_k``.

    That is the addition order of the step loop ``phi @ x_k + gamma @ u_k +
    gamma @ w_k``, so the trajectories equal that loop's bit for bit.
    """
    model = scenario.model
    dim, t = model.dim, model.t
    w = np.empty((len(rngs), scenario.steps - 1, dim))
    for rng, run in zip(rngs, w):
        rng.standard_normal(out=run)
    w *= model.accel_noise_std
    accel = scenario.maneuvers.table(scenario.steps, dim)
    g_pos, g_vel = model.gamma[0, 0], model.gamma[dim, 0]
    x0 = np.broadcast_to(scenario.initial_state, (len(rngs), model.n))
    vel = _running_sum(x0[:, dim:], [g_vel * accel, g_vel * w])
    pos = _running_sum(x0[:, :dim], [t * vel[:, :-1], g_pos * accel, g_pos * w])
    return np.concatenate([pos, vel], axis=-1)


def simulate_truth(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Truth trajectory of shape ``(steps, n)`` for one realization."""
    return _simulate_truths(scenario, [rng])[0]


def _synthesize(truths: np.ndarray, noise: NoiseSpec, rngs) -> np.ndarray:
    """Noisy ``(r, theta, phi, rdot)`` rows for ``(runs, steps, n)`` truths.

    Returns ``(runs, steps, 4)``; run ``i`` draws its ``(4, steps)`` noise
    from ``rngs[i]``, as :func:`_noise_matrix` would, into one buffer that
    one :func:`_scale_noise` call scales. In 2D the phi column is zero.
    """
    draws = np.empty((len(rngs), 4, truths.shape[1]))
    for rng, run in zip(rngs, draws):
        rng.standard_normal(out=run)
    draws = _scale_noise(noise, draws.swapaxes(0, 1))  # (4, runs, steps)
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
