"""Coefficient fields: metric perturbations G, damping potentials a, control checks.

All presets are radial profiles built from the standard compactly supported
bump b(r) = exp(1 - 1/(1 - (r/R)^2)) for r < R. Closed-form evaluators are
authoritative (the ray tracer never interpolates grid tables); grid tables are
the evaluators sampled at the grid points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, GridMismatchError, InvalidMetricError
from .grid import GridSpec, real_derivatives

__all__ = [
    "smooth_transition",
    "cutoff_field",
    "MetricField",
    "DampingField",
    "ControlReport",
    "build_preset",
    "check_control",
    "coercivity_constant",
    "gradient_bound_constant",
    "default_escape_radius",
    "PRESET_NAMES",
]

PRESET_NAMES = ("identity", "conformal_bump", "anisotropic_bump", "uncontrolled_bump")

DEFAULT_METRIC_AMPLITUDE = {
    "identity": 0.0,
    "conformal_bump": 0.3,
    "anisotropic_bump": 0.3,
    "uncontrolled_bump": -0.9,
}


def _bump(s2: np.ndarray, slope: bool = False):
    """b = exp(1 - 1/(1 - s2)) of the squared scaled radius s2 = (r/R)^2, and
    with ``slope`` the pair (b, db/ds2) with db/ds2 = -b/(1 - s2)^2; both are
    0 for s2 >= 1.

    Only points inside the support are evaluated: on a grid most points lie
    outside, and exp is slow where it underflows.
    """
    inside = s2 < 1.0
    t = 1.0 - s2[inside]
    b_in = np.exp(1.0 - 1.0 / t)
    b = np.zeros(s2.shape)
    b[inside] = b_in
    if not slope:
        return b
    b_s2 = np.zeros(s2.shape)
    b_s2[inside] = -b_in / t / t
    return b, b_s2


def smooth_transition(s: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    with np.errstate(over="ignore"):
        f = np.exp(-1.0 / sm)
        g = np.exp(-1.0 / (1.0 - sm))
    out[mid] = f / (f + g)
    return out


def cutoff_field(spec: GridSpec, flat_radius: float, support_radius: float) -> np.ndarray:
    """Radial cutoff equal to 1 on B(0, flat_radius), 0 outside B(0, support_radius)."""
    if not 0.0 < flat_radius < support_radius < spec.length:
        raise DomainError(
            "cutoff radii must satisfy 0 < flat < support < box half-length, got "
            f"flat={flat_radius}, support={support_radius}, L={spec.length}"
        )
    r = np.sqrt(spec.radius_squared)
    return smooth_transition((support_radius - r) / (support_radius - flat_radius))


class MetricField:
    """Symmetric coefficient matrix G(x) = I + amplitude * b(|x|) * S.

    S is the identity for conformal bumps or a fixed symmetric rank-one matrix
    for anisotropic ones, and the package uses G only through that structure:
    on the grid through ``perturbation`` p and ``direction`` v (S = v v^T, or
    S = I when v is None), off the grid through :meth:`eval_radial`, which
    gives p and its radial slope c (grad p = c x) in closed form.
    :meth:`eval_metric` and :meth:`eval_metric_grad` expand them into the
    generic G and dG/dx arrays at given points.
    """

    def __init__(
        self,
        spec: GridSpec,
        amplitude: float = 0.0,
        radius: float = 0.0,
        direction: np.ndarray | None = None,
    ):
        self.spec = spec
        self.amplitude = float(amplitude)
        self.radius = float(radius)
        if not np.isfinite(self.amplitude):
            raise DomainError(f"metric amplitude must be finite, got {self.amplitude}")
        if self.amplitude != 0.0:
            # the bump reads |x|^2 / R^2, so R^2 must not underflow to 0
            if not (0.0 < self.radius < spec.length and self.radius**2 > 0.0):
                raise DomainError(
                    f"metric bump radius must lie in (0, L) with a nonzero "
                    f"square, got {self.radius}"
                )
        if direction is None:
            self.direction = None
            self.structure = np.eye(spec.dim)
            self.conformal = True
        else:
            v = np.asarray(direction, dtype=np.float64)
            self.direction = v / np.linalg.norm(v)
            self.structure = np.outer(self.direction, self.direction)
            self.conformal = False
        self.is_identity = self.amplitude == 0.0
        self.support_radius = 0.0 if self.is_identity else self.radius

    # -- closed-form evaluators ------------------------------------------------

    def eval_radial(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p(x) = amplitude b(|x|) and the radial slope c = p'(r) / r at
        arbitrary points, so that grad p = c x.

        points (..., dim) -> p (...), c (...), from one bump evaluation. With
        s2 = |x|^2 / R^2, c = 2 amplitude db/ds2 / R^2, so no radius is taken
        and the origin needs no special case.
        """
        points = np.asarray(points, dtype=np.float64)
        if self.is_identity:
            return np.zeros(points.shape[:-1]), np.zeros(points.shape[:-1])
        scale = 1.0 / self.radius**2
        b, b_s2 = _bump(np.square(points).sum(-1) * scale, slope=True)
        return self.amplitude * b, 2.0 * scale * self.amplitude * b_s2

    def eval_metric(self, points: np.ndarray) -> np.ndarray:
        """G = I + p S at arbitrary points: (..., dim) -> (..., dim, dim)."""
        points = np.asarray(points, dtype=np.float64)
        d = self.spec.dim
        if self.is_identity:
            return np.broadcast_to(np.eye(d), points.shape[:-1] + (d, d)).copy()
        p, _ = self.eval_radial(points)
        return np.eye(d) + p[..., None, None] * self.structure

    def eval_metric_grad(self, points: np.ndarray) -> np.ndarray:
        """All partials dG_ij/dx_k = (dp/dx_k) S_ij, indexed [..., k, i, j]."""
        points = np.asarray(points, dtype=np.float64)
        _, c = self.eval_radial(points)
        return (c[..., None] * points)[..., :, None, None] * self.structure

    # -- grid tables -----------------------------------------------------------

    @cached_property
    def perturbation(self) -> np.ndarray | None:
        """Grid samples of the scalar p with G - I = p S; None when G = I.

        S is the identity for a conformal metric and ``direction`` v gives
        S = v v^T otherwise. The samples are :meth:`eval_radial`'s p at the
        grid points, bit for bit.
        """
        if self.is_identity:
            return None
        return self.amplitude * _bump(self.spec.radius_squared
                                      * (1.0 / self.radius**2))

    def apply(self, w: Sequence[np.ndarray]) -> list[np.ndarray]:
        """G w for a real vector field w given by its components, by the
        structure G = I + p S."""
        p = self.perturbation
        if p is None:
            return list(w)
        if self.conformal:
            return [(1.0 + p) * wj for wj in w]
        v = self.direction
        pvw = p * sum(vj * wj for vj, wj in zip(v, w) if vj != 0.0)
        return [wj + vj * pvw if vj != 0.0 else wj for vj, wj in zip(v, w)]

    def deviation_norm(self) -> np.ndarray:
        """Pointwise Frobenius norm of G - I = p S on the grid, in closed form:
        |p| sqrt(d) for S = I and |p| for S = v v^T with unit v."""
        if self.is_identity:
            return np.zeros(self.spec.shape)
        dev = np.abs(self.perturbation)
        return dev * np.sqrt(self.spec.dim) if self.conformal else dev

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of G over the grid, in closed form.

        G = I + p S has eigenvalue 1 + p on the range of S and 1 on its
        complement, which is empty when S = I or d = 1.
        """
        if self.is_identity:
            return 1.0
        low = 1.0 + float(self.perturbation.min())
        if self.conformal or self.spec.dim == 1:
            return low
        return min(1.0, low)


class DampingField:
    """Non-negative compactly supported damping potential a(x): a bump of the
    given finite amplitude on a ball or an annulus about ``center``."""

    def __init__(
        self,
        spec: GridSpec,
        amplitude: float = 1.0,
        shape: str = "ball",
        radius: float = 3.0,
        inner_radius: float = 0.0,
        outer_radius: float = 0.0,
        center: np.ndarray | None = None,
    ):
        if not 0.0 <= amplitude < np.inf:
            raise DomainError(
                f"damping amplitude must be finite and >= 0, got {amplitude}"
            )
        if shape not in ("ball", "annulus"):
            raise DomainError(f"damping shape must be ball or annulus, got {shape!r}")
        self.spec = spec
        self.amplitude = float(amplitude)
        self.shape = shape
        self.center = (
            np.zeros(spec.dim) if center is None else np.asarray(center, dtype=float)
        )
        if shape == "ball":
            if not 0.0 < radius < np.inf:
                raise DomainError(
                    f"damping ball radius must be finite and positive, got {radius}"
                )
            self.radius = float(radius)
            reach = self.radius
        else:
            if not 0.0 < inner_radius < outer_radius:
                raise DomainError(
                    f"annulus needs 0 < inner < outer, got {inner_radius}, {outer_radius}"
                )
            self.inner_radius = float(inner_radius)
            self.outer_radius = float(outer_radius)
            self.radius = 0.5 * (outer_radius - inner_radius)
            self._mid = 0.5 * (outer_radius + inner_radius)
            reach = self.outer_radius
        # how far the shape reaches from the origin, whatever the amplitude
        self.reach = reach + float(np.abs(self.center).max())
        if self.amplitude > 0.0 and not self.reach < spec.length:
            raise DomainError("damping support must fit inside the box")
        self.support_radius = 0.0 if self.amplitude == 0.0 else self.reach
        self._metric_terms: tuple | None = None

    def _profile(self, r2: np.ndarray, slope: bool = False):
        """a at the squared distances r2 = |x - center|^2; with ``slope`` the
        pair (a, |grad a|), |grad a| = 2 A |db/ds2| rho / R^2 for the bump's
        distance rho = |x - center| (ball) or ||x - center| - mid| (annulus)."""
        rho = np.sqrt(r2)
        if self.shape == "annulus":
            rho = np.abs(rho - self._mid)
        if not slope:
            return self.amplitude * _bump((rho / self.radius) ** 2)
        b, b_s2 = _bump((rho / self.radius) ** 2, slope=True)
        return (self.amplitude * b,
                2.0 * self.amplitude * np.abs(b_s2) * rho / self.radius**2)

    def eval_damping(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return self._profile(np.add.reduce(np.square(points - self.center),
                                           axis=-1))

    @cached_property
    def table(self) -> np.ndarray:
        """a on the grid, from :meth:`GridSpec.squared_distance`."""
        return self._profile(self.spec.squared_distance(self.center))

    @property
    def sup(self) -> float:
        return float(self.table.max())

    def div_G_grad(self, metric: MetricField) -> np.ndarray:
        """div(G grad a) on the grid, the source of the energy law's mass term."""
        return self._terms(metric)[0]

    def G_grad(self, metric: MetricField) -> list[np.ndarray]:
        """G grad a on the grid, the weight of the energy law's flux form."""
        return self._terms(metric)[1]

    def _terms(self, metric: MetricField):
        """(div(G grad a), G grad a) from one real transform of a, kept for the
        last metric asked: a run's monitors and energy/lambda bound share one
        build."""
        if self._metric_terms is None or self._metric_terms[0] is not metric:
            lap, grad = real_derivatives(self.table, metric)
            self._metric_terms = (metric, lap, metric.apply(grad))
        return self._metric_terms[1:]


@dataclass
class ControlReport:
    """Result of scanning supp(G - I) against {a > a_min}."""

    satisfied: bool
    violation_points: np.ndarray  # (m, dim) physical coordinates
    delta0: float                 # min of a over the perturbation support
    support_count: int = 0

    @property
    def violation_count(self) -> int:
        return int(self.violation_points.shape[0])


def check_control(
    metric: MetricField,
    damping: DampingField,
    g_tol: float = 1e-12,
    a_min: float = 1e-8,
) -> ControlReport:
    """Grid scan of the exterior control condition supp(G - I) in {a > a_min}."""
    if metric.spec != damping.spec:
        raise GridMismatchError("metric and damping live on different grids")
    spec = metric.spec
    dev = metric.deviation_norm()
    support = dev > g_tol
    a = damping.table
    if not support.any():
        return ControlReport(
            satisfied=True,
            violation_points=np.empty((0, spec.dim)),
            delta0=np.inf,
            support_count=0,
        )
    delta0 = float(a[support].min())
    bad = support & (a <= a_min)
    idx = np.argwhere(bad)
    points = np.stack([spec.x1d[idx[:, j]] for j in range(spec.dim)], axis=-1)
    return ControlReport(
        satisfied=not bad.any(),
        violation_points=points,
        delta0=delta0,
        support_count=int(support.sum()),
    )


def coercivity_constant(metric: MetricField) -> float:
    """Smallest eigenvalue of G over the grid; errors if not positive."""
    c = metric.min_eigenvalue()
    if c <= 0.0:
        raise InvalidMetricError(
            f"metric loses uniform coercivity: min eigenvalue {c:.6g} <= 0"
        )
    return c


def gradient_bound_constant(damping: DampingField, eps: float) -> float:
    """Minimal C on the grid with |grad a| <= C a + eps, |grad a| in the
    closed form of ``DampingField._profile``: a spectral gradient's rounding
    would set C where a -> 0."""
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if damping.amplitude == 0.0:
        return 0.0
    a, grad_mag = damping._profile(
        damping.spec.squared_distance(damping.center), slope=True)
    positive = a > 0.0
    excess = np.maximum(grad_mag - eps, 0.0)
    return float((excess[positive] / a[positive]).max(initial=0.0))


def default_escape_radius(metric: MetricField, damping: DampingField) -> float:
    """1.5 * max(R_G, R_a) + 5, the documented classification default."""
    return 1.5 * max(metric.support_radius, damping.support_radius) + 5.0


def build_preset(
    name: str, spec: GridSpec, params: dict | None = None
) -> tuple[MetricField, DampingField]:
    """Construct a (MetricField, DampingField) pair for a named preset.

    ``uncontrolled_bump`` deliberately places the damping away from the metric
    perturbation so that the control condition fails; everything else must pass
    check_control with the default thresholds.
    """
    if name not in PRESET_NAMES:
        raise DomainError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    p = dict(params or {})

    metric_radius = float(p.pop("metric_radius", 2.0))
    metric_amplitude = float(
        p.pop("metric_amplitude", DEFAULT_METRIC_AMPLITUDE[name])
    )
    damping_amplitude = float(p.pop("damping_amplitude", 1.0))
    damping_shape = str(p.pop("damping_shape", "ball"))
    if name == "uncontrolled_bump":
        default_radius = metric_radius
    elif name == "identity":
        default_radius = 4.0  # no bump to clear; metric_radius + 2 at the default
    else:
        default_radius = metric_radius + 2.0
    damping_radius = float(p.pop("damping_radius", default_radius))
    damping_inner = float(p.pop("damping_inner_radius", 0.0))
    damping_outer = float(p.pop("damping_outer_radius", 0.0))
    offset_default = (
        metric_radius + damping_radius + 1.0 if name == "uncontrolled_bump" else 0.0
    )
    damping_offset = float(p.pop("damping_center_offset", offset_default))
    if p:
        raise DomainError(f"unknown preset parameters: {sorted(p)}")

    if name == "identity":
        metric = MetricField(spec)
    elif name in ("conformal_bump", "uncontrolled_bump"):
        metric = MetricField(spec, amplitude=metric_amplitude, radius=metric_radius)
    else:
        axis = np.zeros(spec.dim)
        axis[0] = 1.0
        metric = MetricField(
            spec, amplitude=metric_amplitude, radius=metric_radius, direction=axis
        )
    coercivity_constant(metric)  # rejects amplitudes that break positivity

    center = np.zeros(spec.dim)
    center[0] = damping_offset
    damping = DampingField(
        spec,
        amplitude=damping_amplitude,
        shape=damping_shape,
        radius=damping_radius,
        inner_radius=damping_inner,
        outer_radius=damping_outer,
        center=center,
    )
    return metric, damping
