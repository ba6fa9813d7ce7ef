"""Hamiltonian ray tracing for the principal symbol h(x, xi) = G(x) xi . xi.

The flow is
    dx/dt  = 2 G(x) xi,
    dxi/dt = - sum_ij (dG_ij/dx) xi_i xi_j.
With G = I + p(|x|) S it is written in closed form on the structure, from one
radial evaluation ``MetricField.eval_radial`` (p and grad p = p'(r) x / r) per
stage and never from the d x d or d x d x d coefficient tables:
    identity:             dx/dt = 2 xi,                 dxi/dt = 0;
    conformal, S = I:     dx/dt = 2 (1 + p) xi,         dxi/dt = -|xi|^2 grad p;
    rank-one, S = v v^T:  dx/dt = 2 (xi + p (v.xi) v), dxi/dt = -(v.xi)^2 grad p.
The symbol itself, :func:`hamiltonian`, comes from the same evaluator.
It is integrated with the classical fourth-order one-step method
(``grid.rk4``); coefficients are never interpolated from a grid. A ray state is
one row (x, xi) of an (n, 2 dim) array, and an ensemble advances its rays
together.

One rule, :class:`_FateRule`, turns states into a :class:`RayFate`: the
ensemble feeds it from its RK4 loop, and :func:`classify_ray` replays a
recorded trajectory through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError
from .geometry import DampingField, MetricField
from .grid import rk4

__all__ = [
    "RayFate",
    "Trajectory",
    "EnsembleSummary",
    "hamiltonian",
    "integrate_ray",
    "classify_ray",
    "sample_ensemble",
    "verify_exterior_control",
    "FATE_KINDS",
]

FATE_KINDS = ("escaped", "controlled", "trapped_at_horizon")


@dataclass
class RayFate:
    """Classification of one trajectory against escape and control regions."""

    kind: str
    hamiltonian_drift: float
    t_exit: float = np.nan
    t_first_hit: float = np.nan
    time_in_control: float = 0.0
    horizon: float = np.nan

    def __post_init__(self):
        if self.kind not in FATE_KINDS:
            raise DomainError(f"fate kind must be one of {FATE_KINDS}")


@dataclass
class Trajectory:
    """Recorded ray path: times, positions, momenta and symbol values."""

    times: np.ndarray       # (m+1,)
    positions: np.ndarray   # (m+1, dim)
    momenta: np.ndarray     # (m+1, dim)
    hamiltonians: np.ndarray  # (m+1,)

    def __len__(self) -> int:
        return len(self.times)


def hamiltonian(x: np.ndarray, xi: np.ndarray, metric: MetricField) -> np.ndarray:
    """G(x) xi . xi on the structure, from one radial evaluation: |xi|^2 + p |xi|^2
    conformal, |xi|^2 + p (v.xi)^2 rank-one; works on (..., dim) stacks."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    h = np.einsum("...i,...i->...", xi, xi)
    if not metric.is_identity:
        p, _ = metric.eval_radial(x)
        h = h + p * (h if metric.conformal else (xi @ metric.direction) ** 2)
    return h[0] if h.shape == (1,) else h


def _hamilton_rhs(metric: MetricField):
    """Right-hand side of the flow on stacked states y = (x, xi) of shape (n, 2d).

    G = I + p S is used through its structure, with one radial evaluation
    (p, grad p) per call: see the module docstring for the three forms.
    """
    d = metric.spec.dim
    if metric.is_identity:
        def rhs(y: np.ndarray) -> np.ndarray:
            out = np.zeros_like(y)
            out[:, :d] = 2.0 * y[:, d:]
            return out
    elif metric.conformal:
        def rhs(y: np.ndarray) -> np.ndarray:
            x, xi = y[:, :d], y[:, d:]
            p, grad_p = metric.eval_radial(x)
            out = np.empty_like(y)
            out[:, :d] = 2.0 * (1.0 + p)[:, None] * xi
            out[:, d:] = -np.einsum("ij,ij->i", xi, xi)[:, None] * grad_p
            return out
    else:
        v = metric.direction

        def rhs(y: np.ndarray) -> np.ndarray:
            x, xi = y[:, :d], y[:, d:]
            p, grad_p = metric.eval_radial(x)
            v_xi = xi @ v
            out = np.empty_like(y)
            out[:, :d] = 2.0 * (xi + (p * v_xi)[:, None] * v)
            out[:, d:] = -(v_xi * v_xi)[:, None] * grad_p
            return out

    return rhs


def integrate_ray(
    x0: np.ndarray,
    xi0: np.ndarray,
    metric: MetricField,
    horizon: float,
    dt: float,
) -> Trajectory:
    """Integrate one ray to the horizon, recording every step."""
    if dt <= 0.0 or horizon <= 0.0:
        raise DomainError("integrate_ray needs dt > 0 and horizon > 0")
    x = np.asarray(x0, dtype=float).reshape(1, -1)
    xi = np.asarray(xi0, dtype=float).reshape(1, -1)
    if np.linalg.norm(xi) == 0.0:
        raise DomainError("ray momentum must be nonzero")
    d = x.shape[1]
    y = np.concatenate([x, xi], axis=1)
    rhs = _hamilton_rhs(metric)
    n_steps = int(round(horizon / dt))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, 2 * d))
    hams = np.empty(n_steps + 1)
    times[0], states[0] = 0.0, y[0]
    hams[0] = hamiltonian(x, xi, metric)
    for i in range(1, n_steps + 1):
        y = rk4(y, rhs, dt)
        if not np.all(np.isfinite(y)):
            raise StabilityError(
                f"ray state became non-finite at t={i * dt:.6g} (dt={dt})"
            )
        times[i] = i * dt
        states[i] = y[0]
        hams[i] = hamiltonian(y[:, :d], y[:, d:], metric)
    return Trajectory(times, states[:, :d], states[:, d:], hams)


def _refine_exit_time(
    x_prev: np.ndarray, x_next: np.ndarray, t_prev: float, dt: float, radius: float
) -> float:
    """Linear-in-segment root of |x(t)| = radius between two recorded states."""
    v = (x_next - x_prev) / dt
    a = float(v @ v)
    b = 2.0 * float(x_prev @ v)
    c = float(x_prev @ x_prev) - radius**2
    if a == 0.0:
        return t_prev + dt
    disc = max(b * b - 4.0 * a * c, 0.0)
    s = (-b + np.sqrt(disc)) / (2.0 * a)
    return t_prev + float(np.clip(s, 0.0, dt))


class _FateRule:
    """The per-step rule behind every :class:`RayFate`, for n rays at once.

    The state after step i (time t = i dt) of every ray still followed is
    fed to :meth:`advance`:

    * drift is the largest |h - h0| seen so far, reported relative to |h0|;
    * a ray escapes on the first step whose endpoint lies beyond
      ``escape_radius``. Its exit time is the root of |x| = escape_radius on
      that step's segment, measured from t - dt, and the ray is followed no
      further, so its drift and residence stop with that step;
    * each step whose endpoint has a > a_min adds dt of control residence,
      the exit step included (a vanishes beyond the escape radius), and the
      first such step sets t_first_hit.

    The starting point is tested for control (t_first_hit = 0) but not for
    escape: a ray that starts beyond the escape radius escapes on its first
    step if it is still outside then. Escape wins over control in ``kind``;
    a ray that does neither is trapped at the horizon.
    """

    def __init__(self, damping: DampingField, x0: np.ndarray, h0: np.ndarray,
                 dt: float, escape_radius: float, a_min: float):
        n = x0.shape[0]
        self.damping = damping
        self.dt = dt
        self.escape_radius = escape_radius
        self.a_min = a_min
        self.h0 = h0
        self.drift = np.zeros(n)
        self.escaped = np.zeros(n, dtype=bool)
        self.t_exit = np.full(n, np.nan)
        self.t_first_hit = np.full(n, np.nan)
        self.t_first_hit[damping.eval_damping(x0) > a_min] = 0.0
        self.control_steps = np.zeros(n, dtype=np.int64)

    def live(self) -> np.ndarray:
        """Indices of the rays still followed."""
        return np.nonzero(~self.escaped)[0]

    def advance(self, i: int, live: np.ndarray, x_prev: np.ndarray,
                x: np.ndarray, h: np.ndarray) -> None:
        """Step i of the rays ``live``: positions x_prev -> x, symbol values h."""
        dt = self.dt
        t = i * dt
        self.drift[live] = np.maximum(self.drift[live], np.abs(h - self.h0[live]))
        out = np.linalg.norm(x, axis=1) > self.escape_radius
        for j in np.nonzero(out)[0]:
            self.t_exit[live[j]] = _refine_exit_time(
                x_prev[j], x[j], t - dt, dt, self.escape_radius
            )
        hits = live[self.damping.eval_damping(x) > self.a_min]
        self.t_first_hit[hits[np.isnan(self.t_first_hit[hits])]] = t
        self.control_steps[hits] += 1
        self.escaped[live[out]] = True

    def fates(self, horizon: float) -> list[RayFate]:
        drift = self.drift / np.abs(self.h0)
        fates = []
        for ray in range(len(drift)):
            if self.escaped[ray]:
                kind = "escaped"
            elif not np.isnan(self.t_first_hit[ray]):
                kind = "controlled"
            else:
                kind = "trapped_at_horizon"
            fates.append(RayFate(
                kind, float(drift[ray]), t_exit=float(self.t_exit[ray]),
                t_first_hit=float(self.t_first_hit[ray]),
                time_in_control=float(self.control_steps[ray] * self.dt),
                horizon=horizon if kind == "trapped_at_horizon" else np.nan,
            ))
        return fates


def classify_ray(
    trajectory: Trajectory,
    damping: DampingField,
    escape_radius: float,
    a_min: float = 1e-8,
) -> RayFate:
    """Classify one recorded trajectory by replaying it through the rule of
    :class:`_FateRule`, so it gets the fate an ensemble of one would.

    The trajectory's last time is the horizon of a trapped ray.
    """
    if escape_radius <= damping.support_radius:
        raise DomainError(
            f"escape radius {escape_radius} must exceed the damping support "
            f"{damping.support_radius}"
        )
    times = trajectory.times
    positions, hams = trajectory.positions, trajectory.hamiltonians
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    rule = _FateRule(damping, positions[:1], hams[:1], dt, escape_radius, a_min)
    for i in range(1, len(times)):
        live = rule.live()
        if not live.size:
            break
        rule.advance(i, live, positions[i - 1:i], positions[i:i + 1],
                     hams[i:i + 1])
    return rule.fates(float(times[-1]))[0]


def sample_ensemble(
    dim: int,
    count: int,
    sample_radius: float,
    seed: int = 0,
    mode: str = "random",
) -> tuple[np.ndarray, np.ndarray]:
    """Initial conditions: x0 in B(0, R_sample), |xi0| = 1."""
    if mode == "random":
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((count, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = sample_radius * rng.random(count) ** (1.0 / dim)
        pos_dirs = rng.standard_normal((count, dim))
        pos_dirs /= np.linalg.norm(pos_dirs, axis=1, keepdims=True)
        x0 = radii[:, None] * pos_dirs
        return x0, dirs
    if mode == "lattice":
        per_axis = max(2, int(np.ceil(count ** (1.0 / dim))))
        axes = [np.linspace(-sample_radius, sample_radius, per_axis)] * dim
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        mesh = mesh[np.linalg.norm(mesh, axis=1) <= sample_radius]
        directions = np.concatenate([np.eye(dim), -np.eye(dim)])
        x0 = np.repeat(mesh, len(directions), axis=0)
        xi0 = np.tile(directions, (len(mesh), 1))
        return x0, xi0
    raise DomainError(f"sampling mode must be random or lattice, got {mode!r}")


@dataclass
class EnsembleSummary:
    """Per-ray fates plus aggregate counts for an ensemble run."""

    x0: np.ndarray
    xi0: np.ndarray
    fates: list[RayFate]
    counts: dict[str, int]
    exterior_control_holds: bool


def verify_exterior_control(
    metric: MetricField,
    damping: DampingField,
    x0: np.ndarray,
    xi0: np.ndarray,
    horizon: float,
    dt: float,
    escape_radius: float,
    a_min: float = 1e-8,
) -> EnsembleSummary:
    """Advance an ensemble and classify every ray; vectorized over rays.

    Exterior control holds empirically iff no ray is trapped at the horizon.
    """
    if dt <= 0.0 or horizon <= 0.0:
        raise DomainError("ensemble integration needs dt > 0 and horizon > 0")
    reach = max(metric.support_radius, damping.support_radius)
    if escape_radius <= reach:
        raise DomainError(
            f"escape radius {escape_radius} must exceed the coefficient support {reach}"
        )
    x = np.array(x0, dtype=float)
    xi = np.array(xi0, dtype=float)
    d = x.shape[1]
    y = np.concatenate([x, xi], axis=1)
    rhs = _hamilton_rhs(metric)
    n_steps = int(round(horizon / dt))
    h0 = np.atleast_1d(hamiltonian(x, xi, metric))
    rule = _FateRule(damping, x, h0, dt, escape_radius, a_min)
    for i in range(1, n_steps + 1):
        live = rule.live()
        if not live.size:
            break
        y_prev = y[live]
        y_live = rk4(y_prev, rhs, dt)
        if not np.all(np.isfinite(y_live)):
            raise StabilityError(
                f"ensemble state became non-finite at t={i * dt:.6g} (dt={dt})"
            )
        y[live] = y_live
        h_live = np.atleast_1d(hamiltonian(y_live[:, :d], y_live[:, d:], metric))
        rule.advance(i, live, y_prev[:, :d], y_live[:, :d], h_live)

    fates = rule.fates(horizon)
    counts = {kind: 0 for kind in FATE_KINDS}
    for fate in fates:
        counts[fate.kind] += 1
    return EnsembleSummary(
        x0=np.array(x0, dtype=float),
        xi0=np.array(xi0, dtype=float),
        fates=fates,
        counts=counts,
        exterior_control_holds=counts["trapped_at_horizon"] == 0,
    )


def default_escape_radius(metric: MetricField, damping: DampingField) -> float:
    """1.5 * max(R_G, R_a) + 5, the documented classification default."""
    return 1.5 * max(metric.support_radius, damping.support_radius) + 5.0
