"""Hamiltonian ray tracing for the principal symbol h(x, xi) = G(x) xi . xi.

The flow is
    dx/dt  = 2 G(x) xi,
    dxi/dt = - sum_ij (dG_ij/dx) xi_i xi_j.
With G = I + p(|x|) S it is written in closed form on the structure, from one
radial evaluation ``MetricField.eval_radial`` (p and the scalar slope c with
grad p = c x) and never from the d x d or d x d x d coefficient tables:
    identity:             dx/dt = 2 xi,                 dxi/dt = 0;
    conformal, S = I:     dx/dt = 2 (1 + p) xi,         dxi/dt = -|xi|^2 c x;
    rank-one, S = v v^T:  dx/dt = 2 (xi + p (v.xi) v), dxi/dt = -(v.xi)^2 c x.
The symbol itself, :func:`hamiltonian`, comes from the same evaluator.

Rays are advanced together, one ray per column of a (2 dim, n) state whose
rows are x then xi, so the per-ray scalars p, c and |xi|^2 broadcast along the
rows. A step is one classical fourth-order Runge-Kutta step (``grid.rk4``);
coefficients are never interpolated from a grid. Each RK4 stage makes one
radial evaluation, and the new state's evaluation serves both its symbol and
the first stage of the next step, so a step makes four. An ensemble gathers
its state again only on a step where rays escape.

One rule, :class:`_FateRule`, turns states into a :class:`RayFate`: the
ensemble feeds it from its RK4 loop, and :func:`classify_ray` replays a
recorded trajectory through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError
from .geometry import DampingField, MetricField
from .grid import rk4, step_count

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


def hamiltonian(x: np.ndarray, xi: np.ndarray, metric: MetricField,
                p: np.ndarray | None = None) -> np.ndarray:
    """G(x) xi . xi on the structure: |xi|^2 + p |xi|^2 conformal,
    |xi|^2 + p (v.xi)^2 rank-one; works on (..., dim) stacks.

    p comes from one radial evaluation at x, unless the caller passes the
    ``p`` it has already evaluated there.
    """
    xi = np.asarray(xi, dtype=float)
    h = np.square(xi).sum(-1)
    if metric.is_identity:
        return h
    if p is None:
        p, _ = metric.eval_radial(x)
    return h + p * (h if metric.conformal else (xi @ metric.direction) ** 2)


class _Flow:
    """Hamilton's equations on stacked states y of shape (2 dim, n): rows x
    then xi, one ray per column (see the module docstring for the three
    forms). Called on y, as ``grid.rk4`` does, it makes the one radial
    evaluation at y and returns the slope.
    """

    def __init__(self, metric: MetricField):
        self.metric = metric
        self.dim = metric.spec.dim

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.slope(y, *self.metric.eval_radial(y[:self.dim].T))

    def slope(self, y: np.ndarray, p: np.ndarray, c: np.ndarray) -> np.ndarray:
        """dy/dt from p and c (grad p = c x) evaluated at the positions of y."""
        d, metric = self.dim, self.metric
        x, xi = y[:d], y[d:]
        out = np.empty_like(y)
        if metric.is_identity:
            np.multiply(2.0, xi, out=out[:d])
            out[d:] = 0.0
        elif metric.conformal:
            np.multiply(2.0 * (1.0 + p), xi, out=out[:d])
            np.multiply(-c * np.square(xi).sum(0), x, out=out[d:])
        else:
            v = metric.direction
            v_xi = v @ xi
            np.multiply(2.0, xi + (p * v_xi) * v[:, None], out=out[:d])
            np.multiply(-c * v_xi**2, x, out=out[d:])
        return out

    def evaluate(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The symbol and the slope at y, from one radial evaluation."""
        d = self.dim
        p, c = self.metric.eval_radial(y[:d].T)
        return hamiltonian(y[:d].T, y[d:].T, self.metric, p), self.slope(y, p, c)


def _initial_state(x0: np.ndarray, xi0: np.ndarray,
                   metric: MetricField) -> np.ndarray:
    """The (2 dim, n) state of n rays given by the rows of x0 and xi0."""
    x = np.asarray(x0, dtype=float)
    xi = np.asarray(xi0, dtype=float)
    d = metric.spec.dim
    if x.ndim != 2 or x.shape[1] != d or xi.shape != x.shape:
        raise DomainError(
            f"ray positions and momenta must both have shape (n, {d}), "
            f"got {x.shape} and {xi.shape}"
        )
    if not np.any(xi, axis=1).all():
        raise DomainError("ray momentum must be nonzero")
    return np.concatenate([x, xi], axis=1).T.copy()


def _step(flow: _Flow, y: np.ndarray, k1: np.ndarray, dt: float,
          i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step i of the rays y from their slope k1: the new state, its symbol
    and its slope."""
    y = rk4(y, flow, dt, k1)
    if not np.isfinite(y).all():
        raise StabilityError(
            f"ray state became non-finite at t={i * dt:.6g} (dt={dt})"
        )
    return (y, *flow.evaluate(y))


def integrate_ray(
    x0: np.ndarray,
    xi0: np.ndarray,
    metric: MetricField,
    horizon: float,
    dt: float,
) -> Trajectory:
    """Integrate one ray to the horizon, recording every step; the horizon
    must be a run length :func:`grid.step_count` counts."""
    n_steps = step_count(horizon, dt, "horizon")
    y = _initial_state(np.reshape(x0, (1, -1)), np.reshape(xi0, (1, -1)), metric)
    flow = _Flow(metric)
    states = np.empty((n_steps + 1, len(y)))
    hams = np.empty(n_steps + 1)
    h, k1 = flow.evaluate(y)
    states[0], hams[0] = y[:, 0], h[0]
    for i in range(1, n_steps + 1):
        y, h, k1 = _step(flow, y, k1, dt, i)
        states[i], hams[i] = y[:, 0], h[0]
    d = flow.dim
    return Trajectory(np.arange(n_steps + 1) * dt, states[:, :d], states[:, d:],
                      hams)


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

    Positions are (dim, m) arrays, one ray per column. The rule keeps the
    rays it still follows in the caller's order; rays leave that order only
    on a step where some escape.
    """

    def __init__(self, damping: DampingField, x0: np.ndarray, h0: np.ndarray,
                 dt: float, escape_radius: float, a_min: float):
        n = len(h0)
        self.damping = damping
        self.dt = dt
        self.escape_radius = escape_radius
        self.a_min = a_min
        self.escaped = np.zeros(n, dtype=bool)
        self.t_exit = np.full(n, np.nan)
        # per ray: h0, drift, t_first_hit and the count of control steps, as
        # columns of ``tally`` for the rays still followed (ray indices in
        # ``rays``) and of ``final`` for the rays no longer followed
        self.rays = np.arange(n)
        self.tally = np.zeros((4, n))
        self.tally[0] = h0
        self.tally[2] = np.where(damping.eval_damping(x0.T) > a_min, 0.0, np.nan)
        self.final = np.empty((4, n))

    def advance(self, i: int, x_prev: np.ndarray, x: np.ndarray,
                h: np.ndarray) -> np.ndarray | None:
        """Step i of the rays still followed: positions x_prev -> x, symbol
        values h. On a step where rays escape, stop following them and return
        the mask of the rays kept; otherwise return None."""
        dt = self.dt
        t = i * dt
        h0, drift, first_hit, control_steps = self.tally
        np.maximum(drift, np.abs(h - h0), out=drift)
        hits = self.damping.eval_damping(x.T) > self.a_min
        first_hit[hits & np.isnan(first_hit)] = t
        control_steps += hits
        out = np.square(x).sum(0) > self.escape_radius**2
        if not out.any():
            return None
        for j in np.flatnonzero(out):
            self.t_exit[self.rays[j]] = _refine_exit_time(
                x_prev[:, j], x[:, j], t - dt, dt, self.escape_radius
            )
        self.escaped[self.rays[out]] = True
        self.final[:, self.rays[out]] = self.tally[:, out]
        keep = ~out
        self.rays, self.tally = self.rays[keep], self.tally[:, keep]
        return keep

    def fates(self, horizon: float) -> list[RayFate]:
        self.final[:, self.rays] = self.tally
        h0, drift, first_hit, control_steps = self.final
        drift = drift / np.abs(h0)
        fates = []
        for ray in range(len(drift)):
            if self.escaped[ray]:
                kind = "escaped"
            elif not np.isnan(first_hit[ray]):
                kind = "controlled"
            else:
                kind = "trapped_at_horizon"
            fates.append(RayFate(
                kind, float(drift[ray]), t_exit=float(self.t_exit[ray]),
                t_first_hit=float(first_hit[ray]),
                time_in_control=float(control_steps[ray] * self.dt),
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
    positions, hams = trajectory.positions.T, trajectory.hamiltonians
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    rule = _FateRule(damping, positions[:, :1], hams[:1], dt, escape_radius, a_min)
    for i in range(1, len(times)):
        if rule.advance(i, positions[:, i - 1:i], positions[:, i:i + 1],
                        hams[i:i + 1]) is not None:
            break  # the ray escaped
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

    Exterior control holds empirically iff no ray is trapped at the horizon,
    a run length :func:`grid.step_count` counts.
    """
    n_steps = step_count(horizon, dt, "horizon")
    reach = max(metric.support_radius, damping.support_radius)
    if escape_radius <= reach:
        raise DomainError(
            f"escape radius {escape_radius} must exceed the coefficient support {reach}"
        )
    y = _initial_state(x0, xi0, metric)
    flow = _Flow(metric)
    d = flow.dim
    h, k1 = flow.evaluate(y)
    rule = _FateRule(damping, y[:d], h, dt, escape_radius, a_min)
    for i in range(1, n_steps + 1):
        y_prev = y
        y, h, k1 = _step(flow, y_prev, k1, dt, i)
        keep = rule.advance(i, y_prev[:d], y[:d], h)
        if keep is not None:
            if not keep.any():
                break
            y, k1 = y[:, keep], k1[:, keep]

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
