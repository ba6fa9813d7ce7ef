"""Time integration of i u_t + div(G grad u) + i a u = |u|^2 u by operator splitting.

A step is Strang splitting of two exactly solvable substeps:

* nonlinear + damping, u_t = -a u - i |u|^2 u, solved pointwise in closed form
  (the modulus obeys |u(tau)| = |u0| e^{-a tau} exactly);
* the linear flow exp(i tau div(G grad .)), exact via the e^{-i |k|^2 tau}
  multiplier when G = I, otherwise an inner Strang sandwich: half free
  multiplier, fourth-order steps of u_t = i div((G-I) grad u), half free
  multiplier. The substep works on the retained (2/3 band) coefficients
  only, from the pruned ``GridSpec.band_fft`` to ``GridSpec.band_ifft``; the
  inner RK4's flux is a ``grid.FluxKernel``, a DFT restricted to them and
  supp p.

A :class:`Propagator`, built once per run from (metric, damping, cfg), holds
what every step shares; the step and both substeps read everything from it.
The run's :class:`SolverConfig` is the ``[solver]`` section of its
configuration. :func:`stability_probe` steps two nearby data through one
propagator in lockstep.

Between two observations (a monitor, a snapshot or the end of the run)
:func:`simulate` fuses the steps first-same-as-last: the closing N(dt/2) of
one step and the opening N(dt/2) of the next are one exact N(dt), and the
band limit between them is left to the next linear substep's forward
transform, which keeps only the band anyway.

Grid transforms per Strang step, for any metric and inner step count, and
no full-grid one: 2 band transforms on a step that nothing observes (the
linear substep's ``band_fft`` and ``band_ifft``), 4 on an observed step of a
dealiased run (the pair of the trailing band limit too). With dealiasing
each is pruned to the lines that reach the band: n^2 + n nb + nb^2 line
transforms at 3-d instead of 3 n^2, 4977 instead of 6912 at n = 48, nb = 33.
Without it the band is every mode, each is a full transform and there is no
band limit, so every step makes 2. A snapshot step hands its sink the band
coefficients of its trailing band limit, so a snapshot costs no transform.
The flux kernel, applied four times per inner RK4 step, makes none. The
blow-up guard reads the coefficients' L2 norm (Parseval, no transform).

Strang splitting is second order for cubic NLS (Lubich, Math. Comp. 77,
2008). The tests cross-check it against a method-of-lines reference, the
classical RK4 on the full dealiased right-hand side, kept in
``tests/reference.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GridMismatchError, StabilityError
from .geometry import DampingField, MetricField
from .grid import (Field, FluxKernel, GridSpec, abs2, norm_sq, rk4, step_count,
                   support_box)
from .observables import Frame, Monitor, ObservableSeries, smooth_random_field
from .snapshots import Snapshot

__all__ = [
    "SnapshotSink",
    "SolverConfig",
    "SimulationState",
    "SimulationResult",
    "Monitor",
    "Propagator",
    "nonlinear_damping_substep",
    "linear_substep",
    "step",
    "simulate",
    "cfl_suggestion",
    "StabilityReport",
    "stability_probe",
]

_BLOWUP_FACTOR = 1e6

# Receives each snapshot of a run as it is taken.
SnapshotSink = Callable[[Snapshot], None]


@dataclass
class SolverConfig:
    """The ``[solver]`` section of a run configuration."""

    dt: float = 0.01
    duration: float = 1.0  # simulated horizon T; negative runs the backward probe
    dealias: bool = True
    nonlinearity: bool = True
    inner_perturbation_steps: int = 1
    boundary_mass_warn: float = 1e-6

    def __post_init__(self):
        self.n_steps  # grid.step_count refuses a length it cannot count
        if self.inner_perturbation_steps < 1:
            raise DomainError("inner_perturbation_steps must be >= 1")

    @property
    def n_steps(self) -> int:
        return step_count(abs(self.duration), self.dt, "duration")

    @property
    def signed_dt(self) -> float:
        return self.dt if self.duration >= 0 else -self.dt


@dataclass
class SimulationState:
    u: Field
    t: float
    step: int
    # u still lacks the closing N(dt/2) of its last step, which the next step
    # takes in its opening N(dt) (see :func:`step`)
    pending: bool = False
    # the retained Fourier coefficients of u that the closing band limit
    # computed, kept only when the step was asked for them
    band: np.ndarray | None = None


@dataclass
class SimulationResult:
    state: SimulationState
    series: dict[str, ObservableSeries]
    boundary_mass_warned: bool = False


class Propagator:
    """The time step dt = ``cfg.signed_dt`` of one run, with everything fixed
    for the run computed once.

    Built from (metric, damping, cfg) on the metric's grid, it holds:

    * the decay and phase factors of :func:`nonlinear_damping_substep` over
      the half step dt/2 and the whole step dt, tabulated on the bounding
      box of supp a only (outside it the flow is the plain rotation by
      -|u0|^2 tau);
    * the free multiplier e^{-i |k|^2 tau} as the d one-dimensional
      :meth:`GridSpec.free_factors` restricted to the retained modes
      (:meth:`GridSpec.retained`): over tau = dt when G = I, over
      tau = dt/2 (each half of the inner sandwich) otherwise;
    * the :class:`FluxKernel` of G - I = p S on the retained modes (None if
      G = I).

    It lives for one ``simulate`` call (or one stability probe), so its tables
    are freed with it.
    """

    def __init__(self, metric: MetricField, damping: DampingField,
                 cfg: SolverConfig):
        spec = metric.spec
        if damping.spec != spec:
            raise GridMismatchError("metric and damping live on different grids")
        self.spec = spec
        self.metric = metric
        self.cfg = cfg
        self.dt = dt = cfg.signed_dt
        self.half_dt = tau = dt / 2.0
        self.box = support_box(damping.table)
        # (tau, decay, phase) of the pointwise flow, by whether it spans dt
        self.pointwise = {whole: (span, *_pointwise_tables(damping, self.box, span))
                          for whole, span in ((False, tau), (True, dt))}
        self.free = spec.free_factors(dt if metric.is_identity else tau, cfg.dealias)
        self.flux = None if metric.is_identity else FluxKernel(
            spec, metric.perturbation, metric.direction, spec.retained(cfg.dealias))

    def project(self, values: np.ndarray, keep: bool = False):
        """``values`` limited to the dealias band if the run dealiases. With
        ``keep``, the pair of that and the retained Fourier coefficients the
        band limit went through (None without dealiasing)."""
        if not self.cfg.dealias:
            return (values, None) if keep else values
        return self.spec.band_limit(values, keep)

    def stability_error(self, reason: str) -> StabilityError:
        """The run's abort for ``reason``, with its :func:`cfl_suggestion`."""
        cfg = self.cfg
        bound = cfl_suggestion(self.spec, self.metric, cfg.duration,
                               cfg.inner_perturbation_steps, cfg.dealias)
        return StabilityError(f"{reason}; suggested dt bound {bound:.3g}",
                              dt_suggestion=bound)


def _pointwise_tables(damping: DampingField, box, tau: float):
    """(decay, phase) of the pointwise flow over tau on ``box``, or
    (None, None) without damping."""
    if box is None:
        return None, None
    a = damping.table[box]
    positive = a > 0.0
    phase = np.where(positive,
                     np.expm1(-2.0 * a * tau) / np.where(positive, 2.0 * a, 1.0),
                     -tau)
    return np.exp(-a * tau), phase


def nonlinear_damping_substep(u: Field, propagator: Propagator,
                              whole: bool = False) -> Field:
    """Pointwise exact flow of u_t = -a u - i |u|^2 u over the half step
    tau = dt/2 of ``propagator``, or over tau = dt if ``whole``.

    With A = a(x): |u| picks up e^{-A tau} and the phase advances by
    theta = |u0|^2 expm1(-2 A tau) / (2A)  (= -|u0|^2 tau at A = 0).
    The flow over dt is the flow over dt/2 taken twice.
    Valid for negative tau (backward probes).
    """
    p = propagator
    tau, decay, phase = p.pointwise[whole]
    values = u.values
    if p.cfg.nonlinearity:
        mod2 = abs2(values)
        theta = mod2 * -tau
        if p.box is not None:
            theta[p.box] = mod2[p.box] * phase
        # e^{i theta} written part by part, cheaper than a complex exp
        out = np.empty_like(values)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        out *= values
    else:
        out = values.copy()
    if p.box is not None:
        out[p.box] *= decay
    return Field(out, u.spec)


def linear_substep(u: Field, propagator: Propagator) -> Field:
    """exp(i dt div(G grad .)) u over the step dt of ``propagator``; exact
    when G = I.

    Works on the retained Fourier coefficients only, from
    :meth:`GridSpec.band_fft` to :meth:`GridSpec.band_ifft`: the free
    multiplier, or otherwise an inner Strang sandwich, half free multiplier,
    ``inner_perturbation_steps`` RK4 steps of u_t = i div((G-I) grad u), which
    abort when the coefficients' L2 norm passes ``_BLOWUP_FACTOR`` times its
    value at entry, half free multiplier.
    """
    p, spec, cfg = propagator, propagator.spec, propagator.cfg
    band = spec.band_fft(u.values, cfg.dealias)
    for factor in p.free:
        band *= factor
    if p.flux is not None:
        guard = _BLOWUP_FACTOR * np.sqrt(norm_sq(band))
        m = cfg.inner_perturbation_steps
        for _ in range(m):
            band = rk4(band, lambda c: 1j * p.flux(c), p.dt / m)
            if np.sqrt(norm_sq(band)) > guard:
                raise p.stability_error("linear substep blew up; reduce dt or "
                                        "raise inner_perturbation_steps")
        for factor in p.free:
            band *= factor
    return Field(spec.band_ifft(band, cfg.dealias), spec)


def step(state: SimulationState, propagator: Propagator,
         close: bool = True, band: bool = False) -> SimulationState:
    """Advance one Strang step of the run's ``propagator``.

    The step is N(dt/2), the linear substep L, N(dt/2), then the band limit
    P (:meth:`Propagator.project`). It opens with N(dt) instead when
    ``state`` is pending: that is its own opening N(dt/2) and the previous
    step's closing one, composed exactly. Without ``close`` it stops after L
    and returns a pending state; the next step's L applies the band limit
    in its forward transform. With ``band`` a closed state keeps the
    coefficients its band limit computed, for a snapshot.
    """
    u = nonlinear_damping_substep(state.u, propagator, whole=state.pending)
    u = linear_substep(u, propagator)
    t, index = state.t + propagator.dt, state.step + 1
    if not close:
        return SimulationState(u, t, index, pending=True)
    u = nonlinear_damping_substep(u, propagator)
    if band:
        values, coeffs = propagator.project(u.values, keep=True)
        return SimulationState(Field(values, u.spec), t, index, band=coeffs)
    return SimulationState(Field(propagator.project(u.values), u.spec), t, index)


def cfl_suggestion(
    spec: GridSpec,
    metric: MetricField,
    horizon: float,
    inner_steps: int = 1,
    dealias: bool = True,
) -> float:
    """Suggested dt bound for the Strang step.

    Only the metric-perturbation substep constrains dt: its inner RK4 steps
    need dt / inner_steps * |k|_max^2 sup|G - I| under a constant. With G = I
    the step is exact and the suggestion is the cap |horizon|/10.
    """
    cap = abs(horizon) / 10.0
    pert = float(metric.deviation_norm().max()) if not metric.is_identity else 0.0
    if pert == 0.0:
        return cap
    m_axis = len(spec.retained(dealias)) // 2
    k2max = spec.dim * (np.pi / spec.length * m_axis) ** 2
    stability_const = 2.0  # under the 2*sqrt(2) RK4 imaginary-axis limit
    return min(inner_steps * stability_const / (k2max * pert), cap)


def simulate(
    u0: Field,
    metric: MetricField,
    damping: DampingField,
    cfg: SolverConfig,
    monitors: Sequence[Monitor] = (),
    snapshot_every: int = 0,
    t0: float = 0.0,
    snapshot_sink: SnapshotSink | None = None,
    step0: int = 0,
) -> SimulationResult:
    """Run the solver from t0 to t0 + duration, recording monitors and snapshots.

    The steps are numbered from ``step0`` (a resumed run passes the index of
    the state it resumes from), and every cadence counts on that index.
    Monitors fire at the first and the final step and at every multiple of
    their cadence. Snapshots (when snapshot_every > 0) follow the same rule:
    each goes to ``snapshot_sink`` the moment it is taken, as a
    :class:`snapshots.Snapshot` of the time, the step index and either the
    retained coefficients the closing band limit computed (no extra
    transform) or, when the run does not dealias, the grid values. The run
    keeps none, and no step without a snapshot keeps its coefficients. The
    run never writes into a payload it has handed out, so the sink may hold
    or store it without a copy; ``list.append`` collects a run's snapshots
    in memory.
    A boundary-shell mass above ``cfg.boundary_mass_warn`` of the total
    triggers a one-shot warning.

    A step is observed when a monitor fires, a snapshot is taken or it is the
    final step; every other step is left pending (see :func:`step`), so
    between two observations the closing N(dt/2) and band limit of each step
    and the next step's opening N(dt/2) are one N(dt). An observed step
    still ends with N(dt/2) and the band limit, so monitors, snapshots and
    the returned state read closed, band-limited fields. Leaving out the
    band limit between two half steps moves the trajectory at the aliasing
    level only, so it depends on which steps are observed (and not at all
    without dealiasing). Pending states still pass both blow-up guards and
    the boundary-shell check.
    """
    if snapshot_every > 0 and snapshot_sink is None:
        raise DomainError("snapshot_every > 0 needs a snapshot_sink")
    spec = u0.spec
    propagator = Propagator(metric, damping, cfg)
    if propagator.spec != spec:
        raise GridMismatchError("initial data and coefficients on different grids")
    u0.validate()
    last = step0 + cfg.n_steps

    def snapshot_at(i: int) -> bool:
        return snapshot_every > 0 and (i % snapshot_every == 0 or i in (step0, last))

    values, band = propagator.project(u0.values, keep=True)
    state = SimulationState(Field(values, spec), t0, step0,
                            band=band if snapshot_at(step0) else None)
    del values, band  # the state alone holds them, and drops them as it steps

    recorded: dict[str, list] = {mon.name: [] for mon in monitors}  # (t, value)
    cadences = {mon.every for mon in monitors} | (
        {snapshot_every} if snapshot_every > 0 else set())
    shell = spec.boundary_shell
    warned = False

    def record(st: SimulationState) -> float:
        """Guard and observe ``st``, and return its peak |u|. One Frame,
        freed on return, gives the guards, the shell check and the monitors
        the same |u|^2; the first step has no guard. The state gives its
        band coefficients to the snapshot and keeps none."""
        nonlocal warned
        frame = Frame(st.u)
        edge = st.step in (step0, last)
        # one pass: NaN and inf reach the peak through max
        peak = float(np.sqrt(frame.mod2.max()))
        if st.step > step0:
            if not np.isfinite(peak):
                raise StabilityError(
                    f"solution became non-finite at step {st.step}")
            # defocusing dynamics cannot blow up; norm explosion means instability
            if initial_peak > 0 and peak > _BLOWUP_FACTOR * initial_peak:
                raise propagator.stability_error(
                    f"norm explosion at step {st.step} (t={st.t:.6g})")
        # before the monitors, so the band coefficients are gone while they run
        if snapshot_at(st.step):
            band, st.band = st.band, None
            snapshot_sink(Snapshot(st.t, st.step, spec,
                                   band if cfg.dealias else st.u.values, cfg.dealias))
            del band
        for mon in monitors:
            if st.step % mon.every == 0 or edge:
                value = float(mon.fn(st, frame))
                if not np.isfinite(value):
                    raise StabilityError(
                        f"observable {mon.name!r} became non-finite at t={st.t:.6g}"
                    )
                recorded[mon.name].append((st.t, value))
        if not warned and cfg.boundary_mass_warn > 0:
            total = frame.mod2
            shell_mass = float(total[shell].sum())
            full_mass = float(total.sum())
            if full_mass > 0 and shell_mass > cfg.boundary_mass_warn * full_mass:
                warnings.warn(
                    f"boundary-shell mass fraction {shell_mass / full_mass:.2e} "
                    f"exceeds {cfg.boundary_mass_warn:.1e}; wrap-around "
                    "contamination likely",
                    stacklevel=2,
                )
                warned = True
        return peak

    initial_peak = record(state)
    for i in range(step0 + 1, last + 1):
        observed = i == last or any(i % every == 0 for every in cadences)
        state = step(state, propagator, close=observed, band=snapshot_at(i))
        record(state)
    return SimulationResult(
        state=state,
        series={name: ObservableSeries(name, *zip(*pairs))
                for name, pairs in recorded.items()},
        boundary_mass_warned=warned,
    )


@dataclass
class StabilityReport:
    delta: float
    sup_difference: float
    amplification: float


def stability_probe(
    u0: Field,
    delta: float,
    metric: MetricField,
    damping: DampingField,
    cfg: SolverConfig,
    seed: int = 0,
) -> StabilityReport:
    """Run u0 and u0 + delta * (unit smooth perturbation) in lockstep and report
    the sup-in-time L^2 difference and its amplification over delta."""
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    spec = u0.spec
    propagator = Propagator(metric, damping, cfg)
    base = propagator.project(u0.values)
    pert = propagator.project(smooth_random_field(spec, seed=seed).values)
    s1 = SimulationState(Field(base.copy(), spec), 0.0, 0)
    s2 = SimulationState(Field(base + delta * pert, spec), 0.0, 0)
    sup = Field(s2.u.values - s1.u.values, spec).l2_norm()
    for _ in range(cfg.n_steps):
        s1, s2 = step(s1, propagator), step(s2, propagator)
        # np.maximum, unlike max(), keeps a nan difference
        diff = Field(s2.u.values - s1.u.values, spec).l2_norm()
        sup = float(np.maximum(sup, diff))
    return StabilityReport(
        delta=delta,
        sup_difference=sup,
        amplification=sup / delta if delta > 0 else 0.0,
    )
