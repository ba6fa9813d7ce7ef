"""Functionals and identity residuals evaluated on simulation snapshots.

Everything here is a pure function of fields and recorded series, and the
monitors a run records are built from it; each recorded series feeds a
report of :func:`run_reports` or an acceptance criterion. Time integrals
use the trapezoid rule on the recorded cadence, in the expression (and so
with the bits) of scipy's ``cumulative_trapezoid``; rate residuals use
centered differences, so their discretization error tracks the recording
cadence squared.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, SamplingError, SeriesAlignmentError
from .geometry import DampingField, MetricField
from .grid import (
    Field,
    GridSpec,
    WeightTables,
    abs2,
    dot,
    gradient,
    sobolev_norms,
)

__all__ = [
    "ObservableSeries",
    "Frame",
    "Monitor",
    "mass",
    "energy",
    "morawetz_virial",
    "morawetz_rate_rhs",
    "bilinear_interaction",
    "local_sobolev_decay",
    "smooth_random_field",
    "standard_monitors",
    "mass_law_residual",
    "energy_law_residual",
    "energy_law_residual_flux_form",
    "morawetz_rate_residual",
    "lambda_accumulator",
    "energy_lambda_bound_check",
    "l4_accumulator",
    "interaction_inequality_check",
    "RunReports",
    "run_reports",
]

# the slacks of the energy/lambda bound and of the interaction inequality;
# the l4 tail is bounded when the last quarter of the horizon adds below 5 %
_BOUND_TOL, _INTERACTION_TOL = 1e-9, 1e-6
_L4_TAIL_WINDOW, _L4_TAIL_TOL = 0.25, 0.05


def _cumulative_trapezoid(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples v at stamps t, starting at 0:
    the expression ``scipy.integrate.cumulative_trapezoid(v, t, initial=0)``
    evaluates, so the bits are the same."""
    out = np.zeros(len(v))
    np.cumsum(np.diff(t) * (v[1:] + v[:-1]) / 2.0, out=out[1:])
    return out


class ObservableSeries:
    """Time-stamped scalar record with finite values and strictly monotone
    stamps, built once from both.

    Forward runs record increasing t; backward probes record decreasing t.
    ``times`` and ``values`` are read-only copies of the given sequences.
    """

    def __init__(self, name: str, times=(), values=()):
        self.name = name
        self.times = np.array(times, dtype=np.float64)
        self.values = np.array(values, dtype=np.float64)
        self.times.flags.writeable = self.values.flags.writeable = False
        if self.times.shape != self.values.shape:
            raise SeriesAlignmentError(f"series {name!r}: {len(self.times)} "
                                       f"stamps for {len(self.values)} values")
        bad = ~np.isfinite(self.values)
        if bad.any():
            raise DomainError(f"series {name!r}: non-finite value at "
                              f"t={self.times[bad.argmax()]}")
        signs = np.sign(np.diff(self.times))
        wrong = (signs != signs[:1]) | (signs == 0.0)
        if wrong.any():
            i = wrong.argmax()
            raise SeriesAlignmentError(f"series {name!r}: non-monotone stamp "
                                       f"{self.times[i + 1]} after {self.times[i]}")

    def __len__(self) -> int:
        return len(self.times)

    def cumulative_trapezoid(self) -> np.ndarray:
        """Running trapezoid integral on the recorded cadence (starts at 0)."""
        return _cumulative_trapezoid(self.values, self.times)

    def integrated(self, name: str) -> "ObservableSeries":
        """The series ``name`` of :meth:`cumulative_trapezoid` on these stamps."""
        return ObservableSeries(name, self.times, self.cumulative_trapezoid())


class Frame:
    """The densities of one field that the monitors read, each built once, in
    real arithmetic, on first use, and kept while the frame lives.

    A run builds one frame per record, so a record pays only for what the
    monitors that fire read, and every monitor is a reduction over these:

    * ``mod2`` |u|^2 = re^2 + im^2 and ``mod4`` |u|^4;
    * ``grads``, the d spectral gradients, and ``grad_sq`` |grad u|^2;
    * ``momentum``, the d components of Im(conj(u) grad u), and their
      contraction :meth:`momentum_along` with a vector field w; the real
      parts Re(conj(u) grad u) enter only through :meth:`current_along`;
    * ``h1_density`` |u|^2 + |grad u|^2;
    * :meth:`energy_density` G grad u . conj(grad u), which is ``grad_sq``
      itself for G = I;
    * ``mod2_hat``, the half spectrum of |u|^2, and :meth:`cutoff_power`.

    Transforms: ``grads`` one forward and one inverse transform along each
    axis j for d_j (2d n^(d-1) line transforms, no full one),
    ``cutoff_power`` 1 full complex, ``mod2_hat`` 1 real. With the full
    standard bundle a record costs 1 full complex transform, the d axis
    pairs of the gradients and 1 + d real transforms (the interaction's d
    inverse transforms on half spectra); without the interaction it makes
    no real transform.
    """

    def __init__(self, u: Field):
        self.u = u
        self.spec = u.spec
        self._held: dict[str, tuple[object, np.ndarray]] = {}

    def _held_for(self, slot: str, key, build) -> np.ndarray:
        """``build()``, kept for the last ``key`` asked for under ``slot``."""
        held = self._held.get(slot)
        if held is None or held[0] is not key:
            held = self._held[slot] = (key, build())
        return held[1]

    @cached_property
    def grads(self) -> list[Field]:
        """The d spectral gradients."""
        return gradient(self.u)

    @cached_property
    def mod2(self) -> np.ndarray:
        """|u|^2."""
        return abs2(self.u.values)

    @cached_property
    def mod4(self) -> np.ndarray:
        """|u|^4."""
        return np.square(self.mod2)

    @cached_property
    def grad_sq(self) -> np.ndarray:
        """|grad u|^2."""
        out = abs2(self.grads[0].values)
        for g in self.grads[1:]:
            out += abs2(g.values)
        return out

    @cached_property
    def momentum(self) -> list[np.ndarray]:
        """Components of Im(conj(u) grad u) = re grad im - im grad re."""
        re, im = self.u.values.real, self.u.values.imag
        out = []
        for g in self.grads:
            m = re * g.values.imag
            m -= im * g.values.real
            out.append(m)
        return out

    @cached_property
    def h1_density(self) -> np.ndarray:
        """|u|^2 + |grad u|^2."""
        return self.mod2 + self.grad_sq

    @cached_property
    def mod2_hat(self) -> np.ndarray:
        """Half spectrum of |u|^2 (:meth:`GridSpec.rfft`)."""
        return self.spec.rfft(self.mod2)

    def energy_density(self, metric: MetricField) -> np.ndarray:
        """G grad u . conj(grad u) of ``metric`` (kept for the last metric)."""
        return self._held_for("energy", metric,
                              lambda: _metric_energy_density(self, metric))

    def momentum_along(self, w: Sequence[np.ndarray]) -> np.ndarray:
        """Im(conj(u) grad u) . w for a real vector field w given by its
        components (kept for the last w asked for)."""
        def build():
            out = self.momentum[0] * w[0]
            for m, wj in zip(self.momentum[1:], w[1:]):
                out += m * wj
            return out

        return self._held_for("momentum_along", w, build)

    def current_along(self, w: Sequence[np.ndarray]) -> np.ndarray:
        """Re(conj(u) grad u) . w = sum_j (re d_j re + im d_j im) w_j for a
        real vector field w; one monitor reads it, so it is not kept."""
        re, im = self.u.values.real, self.u.values.imag
        out = np.zeros(self.spec.shape)
        for g, wj in zip(self.grads, w):
            c = re * g.values.real
            c += im * g.values.imag
            c *= wj
            out += c
        return out

    def cutoff_power(self, cutoff: np.ndarray) -> np.ndarray:
        """|c_k|^2 of cutoff*u, one transform for all exponents (kept for the
        last cutoff asked for)."""
        return self._held_for(
            "cutoff", cutoff,
            lambda: abs2(self.spec.fft(cutoff * self.u.values)))


@dataclass
class Monitor:
    """Named scalar hook recorded during a run at its own cadence.

    ``fn(state, frame)`` reads the record's shared quantities from ``frame``,
    the :class:`Frame` of ``state.u``, which is discarded after each record.
    """

    name: str
    fn: object
    every: int = 1

    def __post_init__(self):
        if self.every < 1:
            raise DomainError(
                f"monitor {self.name!r}: every must be >= 1, got {self.every}")


def _check_aligned(*series: ObservableSeries) -> np.ndarray:
    base = series[0].times
    for s in series[1:]:
        if len(s) != len(series[0]) or not np.allclose(s.times, base, atol=1e-12):
            raise SeriesAlignmentError(
                f"series {series[0].name!r} and {s.name!r} have mismatched stamps"
            )
    return base


# ----------------------------------------------------------------------------
# pointwise functionals
# ----------------------------------------------------------------------------


def _integral(a: np.ndarray, b: np.ndarray, spec: GridSpec) -> float:
    """Quadrature of the product of two real grid arrays, int a b, as one
    :func:`grid.dot`."""
    return float(dot(a, b)[0]) * spec.dx**spec.dim


def mass(frame: Frame) -> float:
    """Total mass int |u|^2 of the frame's field."""
    return float(frame.spec.quadrature(frame.mod2))


def _metric_energy_density(frame: Frame, metric: MetricField) -> np.ndarray:
    """Pointwise G grad u . grad conj(u); real and non-negative for PSD G.

    Uses the structure G = I + p S: |grad u|^2 for G = I, times (1 + p) for a
    conformal G, plus p |v . grad u|^2 for G = I + p v v^T.
    """
    p = metric.perturbation
    if p is None:
        return frame.grad_sq
    if metric.conformal:
        return frame.grad_sq * (1.0 + p)
    v = metric.direction
    vg = sum(vj * g.values for vj, g in zip(v, frame.grads) if vj != 0.0)
    return frame.grad_sq + p * abs2(vg)


def energy(frame: Frame, metric: MetricField) -> float:
    """E[u] = 1/2 int G grad u . grad conj(u) + 1/4 int |u|^4.

    The :class:`Frame` of u supplies the energy density and |u|^4; the
    functionals below take it the same way, as their first argument.
    """
    spec = frame.spec
    kinetic = spec.quadrature(frame.energy_density(metric))
    quartic = spec.quadrature(frame.mod4)
    return float(0.5 * kinetic + 0.25 * quartic)


def morawetz_virial(frame: Frame, tables: WeightTables) -> float:
    """Virial moment V = Im int conj(u) grad u . grad chi; its rate carries the
    monotonicity information the decay monitors are built on."""
    return float(frame.spec.quadrature(frame.momentum_along(tables.grad_chi)))


def morawetz_rate_rhs(
    frame: Frame,
    tables: WeightTables,
    damping: DampingField,
    nonlinearity: bool = True,
) -> float:
    """Right-hand side of the virial rate identity:

    int 2 D^2chi grad u . grad conj(u) - 1/2 lap^2 chi |u|^2 + 1/2 lap chi |u|^4
        - 2 a Im(conj(u) grad u) . grad chi.

    The Hessian term uses the closed form D^2 chi = I/chi - x x^T/chi^3, so
    with grad chi = x/chi its density is

        sum_ij 2 D^2chi_ij Re(conj(g_i) g_j) = 2/chi (|grad u|^2 - |grad chi . grad u|^2),

    and no d x d table is read. The quartic term is dropped when the run had
    the nonlinearity disabled.
    """
    spec = frame.spec
    # |grad chi . grad u|^2 from its real and imaginary parts, in place: a
    # complex sum here raised the peak resident memory of 128^2 runs
    pairs = zip(tables.grad_chi, frame.grads)
    gc, g = next(pairs)
    radial_re, radial_im = gc * g.values.real, gc * g.values.imag
    for gc, g in pairs:
        radial_re += gc * g.values.real
        radial_im += gc * g.values.imag
    hessian = np.square(radial_re, out=radial_re)
    hessian += np.square(radial_im, out=radial_im)
    np.subtract(frame.grad_sq, hessian, out=hessian)
    hessian /= tables.chi
    total = 2.0 * float(spec.quadrature(hessian))
    total -= 0.5 * _integral(tables.bilap_chi, frame.mod2, spec)
    if nonlinearity:
        total += 0.5 * _integral(tables.lap_chi, frame.mod4, spec)
    total -= 2.0 * _integral(damping.table,
                             frame.momentum_along(tables.grad_chi), spec)
    return total


def bilinear_interaction(frame: Frame, tables: WeightTables) -> float:
    """Two-point functional int |u(y)|^2 Im(conj(u) grad u)(x) . grad_rho(x-y) dx dy.

    The inner integral is the circular convolution of |u|^2 with the
    periodized grad|x| kernels. Both are real, so it runs on half spectra:
    the kernels ``tables.grad_rho_hat`` (taken once per set of tables), one
    real transform of |u|^2 (``frame.mod2_hat``) and d inverse ones, on top
    of the frame's gradients. The kernels are ifftshifted so that index 0
    carries the zero displacement and wrapped indices carry displacements in
    [-L, L).
    """
    spec = frame.spec
    total = 0.0
    for m, kernel_hat in zip(frame.momentum, tables.grad_rho_hat):
        total += _integral(m, spec.irfft(kernel_hat * frame.mod2_hat), spec)
    return total


def local_sobolev_decay(frame: Frame, cutoff: np.ndarray, s: float) -> float:
    """H^s norm of the cutoff field cutoff*u, for 0 <= s < 1 (the decay range),
    from the frame's power spectrum of cutoff*u."""
    if not 0.0 <= s < 1.0:
        raise DomainError(f"local Sobolev decay is monitored for 0 <= s < 1, got {s}")
    return float(sobolev_norms(frame.cutoff_power(cutoff), frame.spec, (s,))[0])


def smooth_random_field(spec: GridSpec, seed: int = 0, k_scale: float = 2.0) -> Field:
    """Unit-L2 random field with Gaussian spectral envelope exp(-|k|^2/k_scale^2)."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    coeffs *= np.exp(-spec.k_squared / k_scale**2)
    coeffs[~spec.dealias_mask] = 0.0
    f = Field(spec.ifft(coeffs), spec)
    norm = f.l2_norm()
    return Field(f.values / norm, spec)


# ----------------------------------------------------------------------------
# standard monitor bundle
# ----------------------------------------------------------------------------


def standard_monitors(
    metric: MetricField,
    damping: DampingField,
    tables: WeightTables,
    record_every: int = 1,
    interaction_every: int = 10,
    local_radius: float | None = None,
    cutoff: np.ndarray | None = None,
    cutoff_exponents: Sequence[float] = (0.0, 0.5),
    nonlinearity: bool = True,
    g_tol: float = 1e-12,
    a_min: float = 1e-8,
) -> list[Monitor]:
    """Monitors for every law and functional the workbench verifies.

    Each reads the record's :class:`Frame`; the tables fixed for the run
    (damping support, perturbation support, ball) are built here, once.
    Every series has a reader. :func:`run_reports` reads all of them but
    ``local_energy`` (recorded with ``local_radius``) and ``cutoff_hs_<s>``
    (with a ``cutoff``), the series of the local energy and local H^s decay
    criteria; ``morawetz_proxy`` is recorded for a non-identity metric only.
    """
    spec = metric.spec
    dv = spec.dx**spec.dim
    a = damping.table
    a_support = a > a_min
    lap_G_a = damping.div_G_grad(metric)
    G_grad_a = damping.G_grad(metric)
    pert_support = metric.deviation_norm() > g_tol if not metric.is_identity else None

    def mon_mass(state, frame):
        return mass(frame)

    def mon_energy(state, frame):
        return energy(frame, metric)

    def mon_damping_mass(state, frame):
        return _integral(a, frame.mod2, spec)

    def mon_damping_energy(state, frame):
        return (_integral(a, frame.mod4, spec)
                + _integral(a, frame.energy_density(metric), spec))

    def mon_mass_lapGa(state, frame):
        return _integral(frame.mod2, lap_G_a, spec)

    def mon_flux_alt(state, frame):
        # Re int G grad u . conj(u) grad a = int Re(conj(u) grad u) . G grad a
        return float(spec.quadrature(frame.current_along(G_grad_a)))

    def mon_virial(state, frame):
        return morawetz_virial(frame, tables)

    def mon_virial_rhs(state, frame):
        return morawetz_rate_rhs(frame, tables, damping, nonlinearity)

    def mon_lambda_density(state, frame):
        return _integral(tables.lambda_kernel, frame.mod2, spec)

    def mon_l4(state, frame):
        return float(spec.quadrature(frame.mod4))

    def mon_h1_sq(state, frame):
        # ||u||_{H^1}^2 by Parseval, from the record's gradients
        return float(spec.quadrature(frame.h1_density))

    def mon_supp_a_h1(state, frame):
        return float(frame.h1_density[a_support].sum() * dv)

    def mon_interaction(state, frame):
        return bilinear_interaction(frame, tables)

    monitors = [
        Monitor("mass", mon_mass, record_every),
        Monitor("energy", mon_energy, record_every),
        Monitor("damping_mass", mon_damping_mass, record_every),
        Monitor("damping_energy", mon_damping_energy, record_every),
        Monitor("mass_lapGa", mon_mass_lapGa, record_every),
        Monitor("energy_flux_alt", mon_flux_alt, record_every),
        Monitor("virial", mon_virial, record_every),
        Monitor("virial_rhs", mon_virial_rhs, record_every),
        Monitor("lambda_density", mon_lambda_density, record_every),
        Monitor("l4", mon_l4, record_every),
        Monitor("h1_sq", mon_h1_sq, record_every),
        Monitor("supp_a_h1", mon_supp_a_h1, record_every),
        Monitor("interaction", mon_interaction, interaction_every),
    ]

    if pert_support is not None:
        def mon_proxy(state, frame):
            return float((frame.h1_density[pert_support].sum()
                          + frame.mod4[pert_support].sum()) * dv)

        monitors.append(Monitor("morawetz_proxy", mon_proxy, record_every))

    if local_radius is not None:
        ball = spec.ball_mask(local_radius)

        # quadrature over B(0, local_radius) of |u|^2 + |grad u|^2
        def mon_local_energy(state, frame):
            return float(frame.h1_density[ball].sum() * dv)

        monitors.append(Monitor("local_energy", mon_local_energy, record_every))

    if cutoff is not None:
        for s in cutoff_exponents:
            def mon_cut(state, frame, s=s):
                return local_sobolev_decay(frame, cutoff, s)

            monitors.append(
                Monitor(f"cutoff_hs_{s:g}", mon_cut, record_every)
            )

    return monitors


# ----------------------------------------------------------------------------
# law residuals and bound checks
# ----------------------------------------------------------------------------


def _balance(name: str, quantity: ObservableSeries,
             *terms: tuple[float, ObservableSeries]) -> ObservableSeries:
    """The balance-law residual r = Q - Q(0) + sum_i c_i int_0^t S_i of the
    quantity Q and the terms (c_i, S_i), on their common stamps."""
    times = _check_aligned(quantity, *(s for _, s in terms))
    r = quantity.values - quantity.values[0]
    for c, s in terms:
        r += c * s.cumulative_trapezoid()
    return ObservableSeries(name, times, r)


def mass_law_residual(
    mass_series: ObservableSeries, damping_mass: ObservableSeries
) -> ObservableSeries:
    """r(t) = M(t) - M(0) + 2 int_0^t int a |u|^2 (trapezoid)."""
    return _balance("mass_law_residual", mass_series, (2.0, damping_mass))


def energy_law_residual(
    energy_series: ObservableSeries,
    damping_energy: ObservableSeries,
    mass_lapGa: ObservableSeries,
) -> ObservableSeries:
    """Divergence form of the energy law:

        dE/dt = -int a(|u|^4 + G grad u . grad conj u) + 1/2 int |u|^2 div(G grad a),

    so r = E - E(0) + int_0^t int a(...) - 1/2 int_0^t int |u|^2 div(G grad a).
    """
    return _balance("energy_law_residual", energy_series,
                    (1.0, damping_energy), (-0.5, mass_lapGa))


def energy_law_residual_flux_form(
    energy_series: ObservableSeries,
    damping_energy: ObservableSeries,
    flux_alt: ObservableSeries,
) -> ObservableSeries:
    """Flux form, equivalent by integration by parts:

        r = E - E(0) + int a(...) + Re int G grad u . conj(u) grad a.
    """
    return _balance("energy_law_residual_flux", energy_series,
                    (1.0, damping_energy), (1.0, flux_alt))


@dataclass
class MorawetzResidualReport:
    residual: ObservableSeries
    fitted_constant: float | None = None


def morawetz_rate_residual(
    virial: ObservableSeries,
    rhs: ObservableSeries,
    proxy: ObservableSeries | None = None,
) -> MorawetzResidualReport:
    """r(t) = dV/dt (centered difference) - recorded identity right-hand side.

    With G = I the identity is exact and r vanishes to discretization order.
    When a perturbation-support proxy series is supplied, the least-squares
    constant of |r| against the proxy is reported.
    """
    times = _check_aligned(virial, rhs)
    if len(virial) < 3:
        raise SamplingError(
            "virial rate residual needs >= 3 records; record the virial monitor "
            "every step"
        )
    v = virial.values
    dv = (v[2:] - v[:-2]) / (times[2:] - times[:-2])
    r = dv - rhs.values[1:-1]
    residual = ObservableSeries("morawetz_rate_residual", times[1:-1], r)
    fitted = None
    if proxy is not None:
        _check_aligned(virial, proxy)
        p = proxy.values[1:-1]
        denom = float(p @ p)
        if denom > 0:
            fitted = float(np.abs(r) @ p / denom)
    return MorawetzResidualReport(residual, fitted)


def lambda_accumulator(lambda_density: ObservableSeries) -> ObservableSeries:
    """Running trapezoid of int (15/chi^7) |u|^2; non-decreasing by positivity."""
    return lambda_density.integrated("lambda")


@dataclass
class BoundCheckReport:
    passed: bool
    constant: float
    worst_margin: float
    worst_time: float
    used_fraction: float | None


def energy_lambda_bound_check(
    energy_series: ObservableSeries,
    lambda_series: ObservableSeries,
    metric: MetricField,
    damping: DampingField,
    tables: WeightTables,
    constant: float | None = None,
) -> BoundCheckReport:
    """Verify E(t) <= E(0) + C0 lambda(t) + tol (``_BOUND_TOL``) with
    C0 = (1/2) max |div(G grad a)| / (15/chi^7) over supp a, the grid points
    with a > 0 (0 without damping): off supp a the spectral div(G grad a) is
    only the ringing of the damping table, largest at the box edge where
    15/chi^7 is smallest.

    The margin is tol at the first stamp by construction, so the worst margin
    and its time are taken over the later stamps, and ``used_fraction`` is the
    largest share (E(t) - E(0)) / (C0 lambda(t)) of the allowance used there
    (None where C0 lambda is 0 at every later stamp). A series of one stamp
    reports that stamp.
    """
    times = _check_aligned(energy_series, lambda_series)
    if constant is None:
        lap_G_a = damping.div_G_grad(metric)
        constant = float(0.5 * np.max(np.abs(lap_G_a) / tables.lambda_kernel,
                                      where=damping.table > 0.0, initial=0.0))
    e = energy_series.values
    allowance = constant * lambda_series.values
    margins = e[0] + allowance + _BOUND_TOL - e
    start = 1 if len(times) > 1 else 0
    worst = start + int(np.argmin(margins[start:]))
    growth, allowed = e[start:] - e[0], allowance[start:]
    positive = allowed > 0.0
    used = (float(np.max(growth[positive] / allowed[positive]))
            if positive.any() else None)
    return BoundCheckReport(
        passed=bool(np.all(margins >= 0.0)),
        constant=constant,
        worst_margin=float(margins[worst]),
        worst_time=float(times[worst]),
        used_fraction=used,
    )


@dataclass
class AccumulatorReport:
    accumulator: ObservableSeries
    tail_fraction: float
    bounded: bool


def l4_accumulator(l4_series: ObservableSeries) -> AccumulatorReport:
    """Running int |u|^4 with a bounded-trend verdict: the increment over the
    last quarter of the horizon must stay below 5% of the total."""
    acc = l4_series.integrated("l4_accumulator")
    times, values = acc.times, acc.values
    total = values[-1]
    if total <= 0.0:
        return AccumulatorReport(acc, 0.0, True)
    t_split = times[-1] - _L4_TAIL_WINDOW * (times[-1] - times[0])
    idx = int(np.searchsorted(times, t_split))
    idx = min(max(idx, 0), len(values) - 1)
    tail = (total - values[idx]) / total
    return AccumulatorReport(acc, float(tail), bool(tail < _L4_TAIL_TOL))


def _join(a: ObservableSeries, b: ObservableSeries):
    """Values of two series restricted to their common time stamps."""
    ta, tb = a.times, b.times
    common = np.intersect1d(np.round(ta, 10), np.round(tb, 10))
    ia = np.nonzero(np.isin(np.round(ta, 10), common))[0]
    ib = np.nonzero(np.isin(np.round(tb, 10), common))[0]
    if len(ia) == 0:
        raise SeriesAlignmentError(
            f"series {a.name!r} and {b.name!r} share no time stamps"
        )
    return ta[ia], a.values[ia], b.values[ib]


@dataclass
class InteractionReport:
    passed: bool
    fitted_constant: float
    worst_margin: float


def interaction_inequality_check(
    l4_series: ObservableSeries,
    interaction_series: ObservableSeries,
    h1_sq_series: ObservableSeries,
    supp_a_h1_series: ObservableSeries,
) -> InteractionReport:
    """Verify 4*pi int_0^t |u|^4 <= C sup_s ||u||_H1^2 int_0^t int_{supp a}(..)
    + B(t) - B(0) + tol at the recorded interaction stamps (3d constant)."""
    tol = _INTERACTION_TOL
    l4_acc = l4_series.integrated("l4_acc")
    _check_aligned(l4_series, h1_sq_series, supp_a_h1_series)
    h1_sup = np.maximum.accumulate(h1_sq_series.values)
    control_acc = ObservableSeries(
        "control", supp_a_h1_series.times, h1_sup * supp_a_h1_series.values
    ).integrated("control_acc")
    times, b_vals, l4_vals = _join(interaction_series, l4_acc)
    _, _, ctrl_vals = _join(interaction_series, control_acc)
    gain = 4.0 * np.pi * l4_vals - (b_vals - b_vals[0])
    denom = float(ctrl_vals @ ctrl_vals)
    fitted = float(gain @ ctrl_vals / denom) if denom > 0 else 0.0
    fitted = max(fitted, 0.0)
    margins = fitted * ctrl_vals + tol - gain
    worst = float(margins.min()) if len(margins) else 0.0
    passed = bool(np.all(margins >= 0.0))
    if not passed and denom > 0:
        # least squares can undershoot; the minimal valid constant is the max ratio
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(ctrl_vals > 0, (gain - tol) / ctrl_vals, 0.0)
        fitted = float(max(ratios.max(), 0.0))
        margins = fitted * ctrl_vals + tol - gain
        worst = float(margins.min())
        passed = bool(np.all(margins >= -1e-12))
    return InteractionReport(passed, fitted, worst)


@dataclass
class RunReports:
    """The residual and accumulator ``series`` of a run by name, in write
    order, and ``payload``, every ``reports.json`` entry but ``control``."""

    series: dict[str, ObservableSeries]
    payload: dict


def run_reports(
    series: dict[str, ObservableSeries],
    metric: MetricField,
    damping: DampingField,
    tables: WeightTables,
) -> RunReports:
    """Every law check of the ``series`` of a :func:`standard_monitors` run:
    the series ``mass_law_residual``, ``energy_law_residual``, ``lambda``,
    ``morawetz_rate_residual`` (with >= 3 virial records) and
    ``l4_accumulator``, and the reports. A sparser virial is reported as an
    ``{"error": ...}`` entry; any other error propagates."""
    r_mass = mass_law_residual(series["mass"], series["damping_mass"])
    r_energy = energy_law_residual(series["energy"], series["damping_energy"],
                                   series["mass_lapGa"])
    r_energy_alt = energy_law_residual_flux_form(
        series["energy"], series["damping_energy"], series["energy_flux_alt"])
    lam = lambda_accumulator(series["lambda_density"])
    written = [r_mass, r_energy, lam]
    try:
        mor = morawetz_rate_residual(series["virial"], series["virial_rhs"],
                                     series.get("morawetz_proxy"))
    except SamplingError as exc:  # sparse cadence: report instead of failing the run
        morawetz = {"error": str(exc)}
    else:
        written.append(mor.residual)
        morawetz = {"max_residual": float(np.max(np.abs(mor.residual.values))),
                    "fitted_constant": mor.fitted_constant}
    l4 = l4_accumulator(series["l4"])
    written.append(l4.accumulator)
    return RunReports({s.name: s for s in written}, {
        "mass_law_max_residual": float(np.max(np.abs(r_mass.values))),
        "energy_law_max_residual": float(np.max(np.abs(r_energy.values))),
        "energy_law_two_form_gap": float(
            np.max(np.abs(r_energy.values - r_energy_alt.values))),
        "energy_lambda_bound": asdict(energy_lambda_bound_check(
            series["energy"], lam, metric, damping, tables)),
        "morawetz_rate": morawetz,
        "l4_tail": {"tail_fraction": l4.tail_fraction, "bounded": l4.bounded},
        "interaction_inequality": asdict(interaction_inequality_check(
            series["l4"], series["interaction"], series["h1_sq"],
            series["supp_a_h1"])),
    })
