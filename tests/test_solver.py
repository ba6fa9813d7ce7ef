import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import dnls.solver
from dnls.errors import DomainError, GridMismatchError, StabilityError
from dnls.geometry import DampingField, MetricField, build_preset
from dnls.grid import Field, GridSpec
from dnls.observables import Frame, Monitor, mass
from dnls.solver import (
    Propagator,
    SimulationState,
    SolverConfig,
    cfl_suggestion,
    linear_substep,
    nonlinear_damping_substep,
    simulate,
    step,
)

from conftest import band_limited_random, gaussian_field, peak_traced_bytes
from reference import full_grid_step, mol_solve

SPEC = GridSpec(2, 64, 10.0)


def _mass_monitor():
    return [Monitor("mass", lambda st_, frame: mass(frame), 1)]


def _half_step(damping, tau, nonlinearity=True):
    """A propagator whose damping half step is tau (negative runs backward)."""
    cfg = SolverConfig(dt=2.0 * abs(tau), duration=2.0 * tau,
                       nonlinearity=nonlinearity)
    return Propagator(MetricField(damping.spec), damping, cfg)


def _linear(metric, cfg):
    """A propagator for the linear flow of ``metric`` over cfg.dt, undamped."""
    return Propagator(metric, DampingField(metric.spec, amplitude=0.0, radius=1.0),
                      cfg)


# -- nonlinear + damping substep -----------------------------------------------


def test_substep_pure_phase_rotation_without_damping():
    damping = DampingField(SPEC, amplitude=0.0, radius=3.0)
    u = Field(np.ones(SPEC.shape, dtype=complex), SPEC)  # |u|^2 = 1
    out = nonlinear_damping_substep(u, _half_step(damping, 1.0))
    assert np.max(np.abs(out.values - np.exp(-1j))) < 1e-14


def test_substep_pure_decay_with_nonlinearity_off():
    damping = DampingField(SPEC, amplitude=0.7, radius=3.0)
    u = band_limited_random(SPEC, seed=1)
    out = nonlinear_damping_substep(
        u, _half_step(damping, 0.5, nonlinearity=False))
    expected = u.values * np.exp(-damping.table * 0.5)
    assert np.max(np.abs(out.values - expected)) < 1e-14


def test_substep_modulus_law_generic():
    damping = DampingField(SPEC, amplitude=1.3, radius=3.0)
    raw = band_limited_random(SPEC, seed=2)
    u = Field(raw.values / np.abs(raw.values).max(), SPEC)
    tau = 0.1
    out = nonlinear_damping_substep(u, _half_step(damping, tau))
    got = np.abs(out.values) ** 2
    expected = np.abs(u.values) ** 2 * np.exp(-2.0 * damping.table * tau)
    assert np.max(np.abs(got - expected)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(
    tau=st.floats(-0.5, 0.5).filter(lambda t: abs(t) > 1e-4),
    amp=st.floats(0.0, 2.0),
)
def test_substep_modulus_law_property(tau, amp):
    spec = GridSpec(1, 32, 4.0)
    damping = DampingField(spec, amplitude=amp, radius=2.0)
    u = band_limited_random(spec, seed=5)
    out = nonlinear_damping_substep(u, _half_step(damping, tau))
    expected = np.abs(u.values) * np.exp(-damping.table * tau)
    assert np.max(np.abs(np.abs(out.values) - expected)) < 1e-12


def test_substep_composition_matches_single_step():
    # exact flow: two half steps equal one full step to rounding
    damping = DampingField(SPEC, amplitude=0.9, radius=3.0)
    raw = band_limited_random(SPEC, seed=3)
    u = Field(raw.values / np.abs(raw.values).max(), SPEC)
    once = nonlinear_damping_substep(u, _half_step(damping, 0.2))
    half = _half_step(damping, 0.1)
    twice = nonlinear_damping_substep(nonlinear_damping_substep(u, half), half)
    assert np.max(np.abs(once.values - twice.values)) < 1e-13
    # the whole-step flow a fused step opens with is that same composition
    whole = nonlinear_damping_substep(u, half, whole=True)
    assert np.max(np.abs(whole.values - twice.values)) < 1e-13
    assert np.array_equal(whole.values, once.values)


# -- linear substep ---------------------------------------------------------------


def test_linear_substep_mode_multiplier():
    metric, _ = build_preset("identity", SPEC)
    cfg = SolverConfig(dt=0.37, duration=0.37, dealias=False)
    k = np.pi / 10.0 * 3
    u = Field(np.exp(1j * k * np.broadcast_to(SPEC.coords[0], SPEC.shape)), SPEC)
    out = linear_substep(u, _linear(metric, cfg))
    expected = np.exp(-1j * k**2 * 0.37) * u.values
    assert np.max(np.abs(out.values - expected)) < 1e-13


def test_linear_substep_free_gaussian_closed_form():
    # u(t) = (s0/s)^{d/2} exp(-x^2/(2s)), s = s0 + 2it solves u_t = i u_xx
    spec = GridSpec(1, 128, 15.0)
    metric = MetricField(spec)
    cfg = SolverConfig(dt=0.5, duration=1.0, dealias=False)
    s0 = 1.0
    u0 = Field(np.exp(-spec.x1d**2 / (2 * s0)).astype(complex), spec)
    t = 0.5
    out = linear_substep(u0, _linear(metric, cfg))
    s = s0 + 2j * t
    exact = (s0 / s) ** 0.5 * np.exp(-spec.x1d**2 / (2 * s))
    err = np.sqrt(spec.quadrature(np.abs(out.values - exact) ** 2).real)
    assert err < 1e-10


def test_linear_substep_self_convergence_generic_metric():
    metric = MetricField(SPEC, amplitude=0.3, radius=2.5)
    u0 = gaussian_field(SPEC, amplitude=1.0, width=1.5)
    tau = 0.2

    def advance(n_sub):
        cfg = SolverConfig(dt=tau / n_sub, duration=1.0,
                           inner_perturbation_steps=4)
        propagator = _linear(metric, cfg)
        u = u0
        for _ in range(n_sub):
            u = linear_substep(u, propagator)
        return u.values

    reference = advance(16)
    err_coarse = np.max(np.abs(advance(2) - reference))
    err_fine = np.max(np.abs(advance(4) - reference))
    assert err_coarse / err_fine > 3.0  # observed order >= 2


def test_linear_substep_stability_abort():
    metric = MetricField(SPEC, amplitude=-0.9, radius=2.0)
    cfg = SolverConfig(dt=5.0, duration=10.0, inner_perturbation_steps=4)
    u0 = band_limited_random(SPEC, seed=8, k_scale=50.0)  # flat in-band spectrum
    with pytest.raises(StabilityError) as excinfo:
        linear_substep(u0, _linear(metric, cfg))
    assert excinfo.value.dt_suggestion == cfl_suggestion(SPEC, metric,
                                                         cfg.duration, 4)
    assert "inner_perturbation_steps" in str(excinfo.value)


# -- full step ---------------------------------------------------------------------


def test_plane_wave_exact_over_hundred_steps():
    metric, damping = build_preset("identity", SPEC, {"damping_amplitude": 0.0})
    k = 2 * np.pi / 10.0
    A = 0.5
    x = np.broadcast_to(SPEC.coords[0], SPEC.shape)
    state = SimulationState(Field(A * np.exp(1j * k * x), SPEC), 0.0, 0)
    propagator = Propagator(metric, damping, SolverConfig(dt=0.01, duration=1.0))
    for _ in range(100):
        state = step(state, propagator)
    omega = k**2 + A**2
    exact = A * np.exp(1j * (k * x - omega * state.t))
    assert np.max(np.abs(state.u.values - exact)) < 1e-8


def test_zero_field_stays_zero():
    metric, damping = build_preset("conformal_bump", SPEC)
    state = SimulationState(Field(np.zeros(SPEC.shape, dtype=complex), SPEC), 0.0, 0)
    out = step(state, Propagator(metric, damping, SolverConfig(dt=0.01, duration=1.0)))
    assert np.all(out.u.values == 0.0)


def test_schemes_agree_at_second_order():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 3.0})
    u0 = band_limited_random(SPEC, seed=4, k_scale=0.8)  # smooth data
    u0 = Field(0.4 * u0.values / u0.l2_norm(), SPEC)
    diffs = []
    for dt in (0.02, 0.01):
        cfg = SolverConfig(dt=dt, duration=0.2)
        strang = simulate(u0, metric, damping, cfg).state.u.values
        mol = mol_solve(u0, metric, damping, cfg).values
        diffs.append(np.sqrt(SPEC.quadrature(np.abs(strang - mol) ** 2).real))
    assert diffs[0] / diffs[1] > 3.0  # strang error dominates at O(dt^2)


def test_strang_self_convergence_order_two():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 3.0})
    u0 = gaussian_field(SPEC, amplitude=0.5, width=1.2)
    finals = {}
    for dt in (0.02, 0.01, 0.005):
        cfg = SolverConfig(dt=dt, duration=0.4)
        finals[dt] = simulate(u0, metric, damping, cfg).state.u.values
    err1 = np.max(np.abs(finals[0.02] - finals[0.01]))
    err2 = np.max(np.abs(finals[0.01] - finals[0.005]))
    assert err1 / err2 >= 3.5


def test_step_reuses_a_propagator_built_for_its_dt_only():
    # stepping leaves a propagator as built: reused, it gives the bits of
    # fresh ones, and it advances the clock by its own signed dt
    metric, damping = build_preset("conformal_bump", SPEC)
    state = SimulationState(gaussian_field(SPEC), 0.0, 0)
    cfg = SolverConfig(dt=0.01, duration=1.0)
    reused = Propagator(metric, damping, cfg)
    twice = step(step(state, reused), reused)
    fresh = step(step(state, Propagator(metric, damping, cfg)),
                 Propagator(metric, damping, cfg))
    assert np.array_equal(twice.u.values, fresh.u.values)
    assert (twice.t, twice.step) == (0.02, 2)
    backward = Propagator(metric, damping, SolverConfig(dt=0.01, duration=-1.0))
    back = step(state, backward)
    assert (back.t, back.step) == (-0.01, 1)
    with pytest.raises(GridMismatchError):
        Propagator(metric, DampingField(GridSpec(2, 32, 10.0)), cfg)


def test_propagator_free_multiplier_is_the_grids_free_factors():
    # one builder of e^{-i k_j^2 tau}: over dt for G = I, over dt/2 for each
    # half of the inner sandwich, restricted to the retained modes along its
    # axis, and the same bits as the expression itself
    for dealias, (preset, tau) in itertools.product(
            (True, False), (("identity", 0.01), ("conformal_bump", 0.005))):
        cfg = SolverConfig(dt=0.01, duration=1.0, dealias=dealias)
        retained = SPEC.retained(dealias)
        metric, damping = build_preset(preset, SPEC)
        free = Propagator(metric, damping, cfg).free
        expected = [np.exp(-1j * SPEC.k1d[retained] ** 2 * tau).reshape(shape)
                    for shape in ((-1, 1), (1, -1))]
        assert len(free) == len(expected) == SPEC.dim
        for j, (got, shared, want) in enumerate(
                zip(free, SPEC.free_factors(tau), expected)):
            assert np.array_equal(got, np.take(shared, retained, axis=j))
            assert np.array_equal(got, want)


# -- simulate ---------------------------------------------------------------------


def test_mass_conserved_without_damping():
    metric, damping = build_preset("identity", SPEC, {"damping_amplitude": 0.0})
    u0 = gaussian_field(SPEC, amplitude=0.3, width=1.5)
    res = simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=1.0),
                   monitors=_mass_monitor())
    M = res.series["mass"].values
    assert np.max(np.abs(M - M[0])) / M[0] < 1e-8


def test_mass_strictly_decreases_with_damping():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.5, width=1.5)
    res = simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=1.0),
                   monitors=_mass_monitor())
    M = res.series["mass"].values
    assert M[-1] < M[0]
    assert np.all(np.diff(M) <= 1e-12)  # non-increasing at every step


def test_backward_probe_respects_exponential_mass_bound():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.5, width=1.5)
    res = simulate(u0, metric, damping, SolverConfig(dt=0.005, duration=-0.5),
                   monitors=_mass_monitor())
    M = res.series["mass"]
    assert M.times[-1] == pytest.approx(-0.5)
    bound = M.values[0] * np.exp(2.0 * damping.sup * np.abs(M.times)) * (1 + 1e-6)
    assert np.all(M.values <= bound)
    assert M.values[-1] > M.values[0]  # the damped group grows backward


def test_simulate_records_final_step_and_snapshots():
    metric, damping = build_preset("identity", SPEC, {"damping_amplitude": 0.0})
    u0 = gaussian_field(SPEC, amplitude=0.2)
    snapshots = []
    res = simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=0.25),
                   monitors=[Monitor("mass", lambda s, frame: mass(frame), every=10)],
                   snapshot_every=10, snapshot_sink=snapshots.append)
    times = res.series["mass"].times
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.25)
    assert len(snapshots) == 4  # steps 0, 10, 20, 25
    assert snapshots[-1].t == pytest.approx(0.25)
    # the band the closing band limit went through: the state is its inverse
    assert np.array_equal(snapshots[-1].field.values, res.state.u.values)


def test_streamed_snapshots_cost_no_memory():
    # the run keeps no snapshot: handing 41 of them to a sink that drops them
    # peaks within 2 field sizes of the run that takes none
    spec = GridSpec(3, 24, 8.0)
    metric, damping = build_preset("identity", spec, {"damping_radius": 3.0})
    u0 = gaussian_field(spec, amplitude=0.3, width=1.2)
    cfg = SolverConfig(dt=0.01, duration=0.4)
    assert cfg.n_steps == 40

    def run(every):
        simulate(u0, metric, damping, cfg, snapshot_every=every,
                 snapshot_sink=lambda snapshot: None)

    run(1)  # transform plans and grid tables
    streamed, bare = peak_traced_bytes(lambda: run(1)), peak_traced_bytes(lambda: run(0))
    assert streamed <= bare + 2 * 16 * spec.size


def test_simulate_never_writes_into_a_snapshot_it_handed_out():
    metric, damping = build_preset("conformal_bump", SPEC, {
        "metric_amplitude": -0.5, "metric_radius": 2.0, "damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.4, width=1.2)
    for dealias in (True, False):
        handed, copies = [], []

        def sink(snapshot):
            handed.append(snapshot)
            copies.append(snapshot.values.copy())

        cfg = SolverConfig(dt=0.01, duration=0.1, dealias=dealias)
        simulate(u0, metric, damping, cfg, snapshot_every=1, snapshot_sink=sink,
                 monitors=[Monitor("mass", lambda s, frame: mass(frame))])
        assert len(handed) == 11
        assert all(snapshot.band == dealias for snapshot in handed)
        for snapshot, copy in zip(handed, copies):
            assert np.array_equal(snapshot.values, copy)


def test_simulate_keeps_no_band_past_its_snapshot(monkeypatch):
    # a snapshot step's band coefficients go to the sink and nowhere else:
    # a sink that drops them frees them before the next step, the state
    # keeps none, and steps without a snapshot are asked for none
    handed = []
    asked = []
    original = dnls.solver.step

    def checked(state, propagator, **kwargs):
        gc.collect()
        assert all(band() is None for band in handed) and state.band is None
        asked.append(kwargs["band"])
        return original(state, propagator, **kwargs)

    def sink(snapshot):
        assert snapshot.band and snapshot.values.shape == SPEC.band_shape(True)
        handed.append(weakref.ref(snapshot.values))

    monkeypatch.setattr(dnls.solver, "step", checked)
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    result = simulate(gaussian_field(SPEC), metric, damping,
                      SolverConfig(dt=0.01, duration=0.07),
                      snapshot_every=3, snapshot_sink=sink,
                      monitors=[Monitor("mass", lambda s, frame: mass(frame), 2)])
    assert asked == [False, False, True, False, False, True, True]
    assert len(handed) == 4 and result.state.band is None


def test_run_lengths_not_a_whole_number_of_steps_are_refused_by_the_api():
    # 1.0 / 0.3 ended at t = 0.9 without a message
    with pytest.raises(DomainError, match="not a whole number of steps"):
        SolverConfig(dt=0.3, duration=1.0)
    with pytest.raises(DomainError, match="not a whole number of steps"):
        SolverConfig(dt=0.3, duration=-1.0)
    assert SolverConfig(dt=0.1, duration=0.7).n_steps == 7


def test_snapshots_need_a_sink():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    with pytest.raises(DomainError, match="snapshot_sink"):
        simulate(gaussian_field(SPEC), metric, damping,
                 SolverConfig(dt=0.01, duration=0.02), snapshot_every=1)


def test_resumed_run_matches_uninterrupted_run_exactly():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.4, width=1.2)
    cfg_full = SolverConfig(dt=0.01, duration=0.2)
    cfg_half = SolverConfig(dt=0.01, duration=0.1)
    # a run resumes from a snapshot, so the straight run takes one at the
    # resume step: both runs then observe the same steps
    straight = simulate(u0, metric, damping, cfg_full, snapshot_every=10,
                        snapshot_sink=lambda snapshot: None).state
    first = simulate(u0, metric, damping, cfg_half).state
    resumed = simulate(first.u, metric, damping, cfg_half, t0=first.t).state
    assert resumed.t == pytest.approx(straight.t)
    # resume re-projects the stored state (one extra fft round trip), so agree
    # to rounding rather than bitwise
    assert np.max(np.abs(resumed.u.values - straight.u.values)) < 1e-13


def test_simulate_boundary_mass_warning():
    metric, damping = build_preset("identity", SPEC, {"damping_amplitude": 0.0})
    u0 = Field(np.ones(SPEC.shape, dtype=complex), SPEC)
    with pytest.warns(UserWarning, match="boundary-shell"):
        res = simulate(u0, metric, damping, SolverConfig(dt=0.05, duration=0.1))
    assert res.boundary_mass_warned


def _patched_linear_substep(monkeypatch, at_step, spoil):
    """Let the linear substep of step ``at_step`` hand back ``spoil(values)``."""
    original = dnls.solver.linear_substep
    calls = []

    def patched(u, propagator):
        calls.append(1)
        out = original(u, propagator)
        return Field(spoil(out.values), out.spec) if len(calls) == at_step else out

    monkeypatch.setattr(dnls.solver, "linear_substep", patched)


def test_simulate_aborts_when_a_step_turns_non_finite(monkeypatch):
    metric, damping = build_preset("conformal_bump", SPEC)
    _patched_linear_substep(monkeypatch, 3, lambda v: np.full_like(v, np.nan))
    with pytest.raises(StabilityError,
                       match=r"solution became non-finite at step 3$") as excinfo:
        simulate(gaussian_field(SPEC), metric, damping,
                 SolverConfig(dt=0.01, duration=0.1))
    assert excinfo.value.dt_suggestion is None


def test_simulate_aborts_on_a_norm_explosion(monkeypatch):
    metric, damping = build_preset("conformal_bump", SPEC)
    cfg = SolverConfig(dt=0.01, duration=0.1)
    _patched_linear_substep(monkeypatch, 2, lambda v: 1e7 * v)
    with pytest.raises(StabilityError,
                       match=r"norm explosion at step 2 \(t=0\.02\)") as excinfo:
        simulate(gaussian_field(SPEC), metric, damping, cfg)
    expected = cfl_suggestion(SPEC, metric, cfg.duration)
    assert excinfo.value.dt_suggestion == expected
    assert f"suggested dt bound {expected:.3g}" in str(excinfo.value)


def test_simulate_holds_no_frame_while_it_steps(monkeypatch):
    # each step's Frame serves its guards, shell check and monitors, and is
    # freed before the next step: a record's densities (the gradients, |u|^2,
    # ...) are not carried through the step, where they would raise its peak
    alive = weakref.WeakSet()

    class TrackedFrame(Frame):
        def __init__(self, u):
            super().__init__(u)
            alive.add(self)

    original = dnls.solver.step

    def checked(state, propagator, **kwargs):
        gc.collect()
        assert not alive
        return original(state, propagator, **kwargs)

    monkeypatch.setattr(dnls.solver, "Frame", TrackedFrame)
    monkeypatch.setattr(dnls.solver, "step", checked)
    metric, damping = build_preset("conformal_bump", SPEC)
    monitors = [Monitor("mass", lambda state, frame: mass(frame), 1)]
    result = simulate(gaussian_field(SPEC), metric, damping,
                      SolverConfig(dt=0.01, duration=0.03), monitors=monitors)
    assert len(result.series["mass"]) == 4


# -- step-size suggestion ------------------------------------------------------------


def test_cfl_identity_strang_capped_by_horizon():
    metric, _ = build_preset("identity", SPEC)
    assert cfl_suggestion(SPEC, metric, 1.0) == pytest.approx(0.1)
    assert cfl_suggestion(SPEC, metric, 5.0) == pytest.approx(0.5)


def test_cfl_strang_scales_with_resolution():
    # the inner RK4 of a bump metric needs dt |k|_max^2 sup|G - I| bounded;
    # the bump's peak sits on a grid node at both resolutions
    def suggestion(n):
        spec = GridSpec(2, n, 10.0)
        return cfl_suggestion(spec, MetricField(spec, amplitude=0.3, radius=2.0),
                              100.0)

    assert suggestion(64) / suggestion(128) == pytest.approx(4.0, rel=1e-12)


def test_cfl_shrinks_with_bump_amplitude():
    values = []
    for amp in (0.2, 0.4, 0.8):
        metric = MetricField(SPEC, amplitude=amp, radius=2.0)
        values.append(cfl_suggestion(SPEC, metric, 1000.0))
    assert values[0] > values[1] > values[2]
    assert values[0] / values[1] == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n", [4, 6, 48, 64, 128])
def test_cfl_band_is_the_retained_band(n, dealias):
    # the axis band of the bound, taken from GridSpec.retained, is the one the
    # 2/3 rule gives: |m| <= n//3 with dealias, n//2 without
    spec = GridSpec(2, n, 10.0)
    metric = MetricField(spec, amplitude=0.3, radius=2.0)
    m_axis = n // 3 if dealias else n // 2
    k2max = spec.dim * (np.pi / spec.length * m_axis) ** 2
    expected = 2.0 / (k2max * float(metric.deviation_norm().max()))
    assert cfl_suggestion(spec, metric, 1e9, dealias=dealias) == expected


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(dt=-0.1, duration=1.0)
    with pytest.raises(DomainError):
        SolverConfig(dt=0.5, duration=0.1)
    cfg = SolverConfig(dt=0.01, duration=-1.0)
    assert cfg.signed_dt == -0.01
    assert cfg.n_steps == 100


# -- golden values ---------------------------------------------------------------
#
# Mass and the pairing sum_x w(x) u(x) with a fixed random w, after 100 Strang
# steps of every preset (and 20 steps of the method-of-lines reference,
# ``reference.mol_solve``, in the two rk4-* cases). GOLDEN was recorded with
# the solver that ran its inner RK4 on grid values, applied div((G-I) grad .)
# through the generic d x d table, still shipped the method of lines as a
# scheme and closed every step with N(dt/2) and the band limit: a run with a
# monitor at every step still steps that way. GOLDEN_FUSED holds the dealiased
# Strang cases of a run that observes only its final step, so that its other
# 99 steps are fused (``solver.step``); without dealiasing fusing changes
# rounding only. Any rewrite of the step that keeps the discrete operator may
# change rounding only.

GOLDEN_CASES = {
    # id: (preset, dim, n, integrator, n_steps, dt, extra SolverConfig fields)
    "identity-2d": ("identity", 2, 64, "strang", 100, 0.01, {}),
    "conformal-2d": ("conformal_bump", 2, 64, "strang", 100, 0.01, {}),
    "anisotropic-2d": ("anisotropic_bump", 2, 64, "strang", 100, 0.01, {}),
    "uncontrolled-2d": ("uncontrolled_bump", 2, 64, "strang", 100, 0.01, {}),
    "identity-3d": ("identity", 3, 24, "strang", 100, 0.01, {}),
    "conformal-3d": ("conformal_bump", 3, 24, "strang", 100, 0.01, {}),
    "anisotropic-3d": ("anisotropic_bump", 3, 24, "strang", 100, 0.01, {}),
    "uncontrolled-3d": ("uncontrolled_bump", 3, 24, "strang", 100, 0.01, {}),
    "conformal-2d-m2": ("conformal_bump", 2, 64, "strang", 100, 0.01,
                        {"inner_perturbation_steps": 2}),
    "anisotropic-2d-aliased": ("anisotropic_bump", 2, 64, "strang", 100, 0.01,
                               {"dealias": False}),
    "rk4-conformal-2d": ("conformal_bump", 2, 64, "mol", 20, 0.005, {}),
    "rk4-anisotropic-3d": ("anisotropic_bump", 3, 24, "mol", 20, 0.005, {}),
}

GOLDEN = {
    # id: (mass, Re sum w u, Im sum w u)
    "anisotropic-2d": (0.3902285475698054, -0.6393272391066755, 1.3871271751397969),
    "anisotropic-2d-aliased": (0.3902278807723074, -0.6385809076115543, 1.3874969992364994),
    "anisotropic-3d": (2.0180203300751987, 0.6370446519666595, -0.31406195759314626),
    "conformal-2d": (0.3939718753531697, -0.5794769507499697, 1.423352399158067),
    "conformal-2d-m2": (0.3939718753778991, -0.5794769499139305, 1.4233524021162274),
    "conformal-3d": (2.0302130103644442, 0.6301391618259712, -0.16834735071457818),
    "identity-2d": (0.3722893670854466, -0.926441537255714, 1.0497698550515766),
    "identity-3d": (1.9838960654339821, 0.6107417237756163, -0.3819816426542001),
    "rk4-anisotropic-3d": (3.4481294587183267, 0.5710719119559801, -0.6558777380779094),
    "rk4-conformal-2d": (1.021468291673313, 2.4464516974271873, -2.161111577338431),
    "uncontrolled-2d": (1.192417044653518, 0.9952385777076949, -2.1786295884926545),
    "uncontrolled-3d": (3.8478728220307907, 0.8714576936565995, -0.42997947650526536),
}


GOLDEN_FUSED = {
    # id: (mass, Re sum w u, Im sum w u) with no monitor
    "anisotropic-2d": (0.39022854848337385, -0.6393272600512084, 1.387127147794774),
    "anisotropic-3d": (2.0180232116814882, 0.6370376724153887, -0.31405112485861775),
    "conformal-2d": (0.39397187629124475, -0.5794769668322659, 1.4233523557774064),
    "conformal-2d-m2": (0.3939718763159743, -0.5794769659965271, 1.4233523587359798),
    "conformal-3d": (2.0302161091674287, 0.6301330600948605, -0.16833443491840838),
    "identity-2d": (0.37228936780123123, -0.9264415167859787, 1.049769863448211),
    "identity-3d": (1.9838977963555136, 0.6107354531561386, -0.3819791624370589),
    "uncontrolled-2d": (1.192416677217618, 0.9952467717585969, -2.1786336370448236),
    "uncontrolled-3d": (3.847854839477159, 0.8714467084355435, -0.42997976327347687),
}

# Bound on the relative L2 gap between the fused and the observed run after
# 100 steps, about twice the gap measured: 5.5e-9 to 1.9e-8 at 64^2 (1.6e-6 on
# the uncontrolled bump), 4.1e-6 to 9.0e-6 at 24^3, 5.2e-15 without
# dealiasing. Halving dt moves the observed run by 5.8e-6 to 8.4e-4 at 64^2
# and 4.4e-6 to 5.2e-5 at 24^3.
FUSED_GAP_BOUND = {
    "anisotropic-2d": 4e-8,
    "anisotropic-2d-aliased": 1e-13,
    "anisotropic-3d": 1.2e-5,
    "conformal-2d": 4e-8,
    "conformal-2d-m2": 4e-8,
    "conformal-3d": 1.2e-5,
    "identity-2d": 1.2e-8,
    "identity-3d": 8e-6,
    "uncontrolled-2d": 3e-6,
    "uncontrolled-3d": 1.8e-5,
}


def _golden_field(case, monitors=()):
    preset, dim, n, integrator, n_steps, dt, extra = GOLDEN_CASES[case]
    spec = GridSpec(dim, n, 8.0)
    metric, damping = build_preset(preset, spec)
    packet = gaussian_field(spec, amplitude=0.5, width=1.2, momentum=1.0)
    noise = band_limited_random(spec, seed=dim)
    u0 = Field(packet.values + 0.05 * noise.values / np.abs(noise.values).max(), spec)
    cfg = SolverConfig(dt=dt, duration=n_steps * dt, **extra)
    if integrator == "strang":
        return simulate(u0, metric, damping, cfg, monitors=monitors).state.u
    return mol_solve(u0, metric, damping, cfg)


def _golden_run(case, monitors=()):
    u = _golden_field(case, monitors)
    w = np.random.default_rng(11).standard_normal(u.spec.shape)
    pairing = complex(np.sum(w * u.values))
    return mass(Frame(u)), pairing.real, pairing.imag


def _assert_golden(got, gold):
    got_mass, got_re, got_im = got
    gold_mass, gold_re, gold_im = gold
    assert got_mass == pytest.approx(gold_mass, rel=1e-12, abs=0.0)
    gold = complex(gold_re, gold_im)
    assert abs(complex(got_re, got_im) - gold) <= 1e-12 * abs(gold)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_values_after_hundred_steps(case):
    _assert_golden(_golden_run(case), GOLDEN_FUSED.get(case, GOLDEN[case]))


STRANG_CASES = sorted(case for case, fields in GOLDEN_CASES.items()
                      if fields[3] == "strang")


@pytest.mark.parametrize("case", STRANG_CASES)
def test_observed_golden_values_after_hundred_steps(case):
    # a monitor at every step observes every step: the run's scheme is then
    # the one the golden values were recorded with
    _assert_golden(_golden_run(case, monitors=_mass_monitor()), GOLDEN[case])


@pytest.mark.parametrize("case", STRANG_CASES)
def test_fused_against_observed_steps_after_hundred_steps(case):
    # fusing leaves out the band limit between two half steps: the runs part
    # at the aliasing level, below the step's own time error
    fused = _golden_field(case).values
    observed = _golden_field(case, monitors=_mass_monitor()).values
    gap = np.linalg.norm(fused - observed) / np.linalg.norm(observed)
    assert gap <= FUSED_GAP_BOUND[case]


@pytest.mark.parametrize("preset", ["identity", "conformal_bump",
                                    "anisotropic_bump", "uncontrolled_bump"])
@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("dealias", [True, False])
def test_band_step_matches_the_full_grid_reference_step(preset, dim, n, dealias):
    # the step on retained coefficients, from a pruned transform to its
    # inverse, is the full-grid step with its mask, gather and scatter
    spec = GridSpec(dim, n, 8.0)
    metric, damping = build_preset(preset, spec)
    cfg = SolverConfig(dt=0.01, duration=1.0, dealias=dealias,
                       inner_perturbation_steps=2 if dim == 2 else 1)
    propagator = Propagator(metric, damping, cfg)
    packet = gaussian_field(spec, amplitude=0.5, width=1.2, momentum=1.0)
    u0 = Field(propagator.project(
        packet.values + 0.05 * band_limited_random(spec, seed=dim).values), spec)
    band = full = SimulationState(u0, 0.0, 0)
    for _ in range(20):
        band, full = step(band, propagator), full_grid_step(full, propagator)
    assert (band.t, band.step) == (full.t, full.step)
    assert (np.linalg.norm(band.u.values - full.u.values)
            <= 1e-13 * np.linalg.norm(full.u.values))


# -- transforms per step ------------------------------------------------------------


def _count_transforms(monkeypatch, fn):
    """(full-grid, band) transforms that ``fn()`` makes."""
    calls = {"fft": 0, "ifft": 0, "band_fft": 0, "band_ifft": 0}
    for name in calls:
        original = getattr(GridSpec, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(GridSpec, name, counted)
    fn()
    monkeypatch.undo()
    return calls["fft"] + calls["ifft"], calls["band_fft"] + calls["band_ifft"]


def _transforms_per_step(monkeypatch, preset, dim, n, inner_steps, dealias):
    """(full-grid, band) transforms of one step."""
    spec = GridSpec(dim, n, 8.0)
    metric, damping = build_preset(preset, spec)
    cfg = SolverConfig(dt=0.01, duration=1.0, dealias=dealias,
                       inner_perturbation_steps=inner_steps)
    state = SimulationState(gaussian_field(spec), 0.0, 0)
    propagator = Propagator(metric, damping, cfg)
    return _count_transforms(monkeypatch, lambda: step(state, propagator))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("inner_steps", [1, 2])
def test_fft_count_per_strang_step(monkeypatch, dim, n, inner_steps):
    # no full-grid transform: a band transform forward and one inverse around
    # the linear substep and two for the trailing band limit (dealiased runs
    # only), for every preset; the flux kernel makes none (it multiplies by
    # restricted DFT matrices) and the blow-up guard reads the coefficients'
    # L2 norm
    for preset in ("identity", "conformal_bump", "anisotropic_bump"):
        for dealias, band in ((True, 4), (False, 2)):
            assert _transforms_per_step(monkeypatch, preset, dim, n, inner_steps,
                                        dealias) == (0, band)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("snapshot_every", [0, 3])
def test_fft_count_of_a_fused_run(monkeypatch, dim, n, snapshot_every):
    # 10 steps with no monitor: snapshots at steps 3, 6 and 9 (if any) and
    # the final step are observed. Dealiased, the initial projection makes 2
    # band transforms, an observed step 4 and a fused one 2 (no trailing band
    # limit); without dealiasing there is no band limit and every step makes 2
    spec = GridSpec(dim, n, 8.0)
    u0 = gaussian_field(spec)
    observed = 1 + (3 if snapshot_every else 0)
    for preset in ("identity", "conformal_bump", "anisotropic_bump"):
        metric, damping = build_preset(preset, spec)
        for dealias in (True, False):
            cfg = SolverConfig(dt=0.01, duration=0.1, dealias=dealias)
            expected = (2 + 4 * observed + 2 * (10 - observed) if dealias
                        else 2 * 10)
            assert _count_transforms(monkeypatch, lambda: simulate(
                u0, metric, damping, cfg, snapshot_every=snapshot_every,
                snapshot_sink=lambda snapshot: None)) == (0, expected)


@pytest.mark.parametrize("dim,n,lines", [(3, 48, 48**2 + 48 * 33 + 33**2),
                                         (2, 128, 128 + 85), (1, 64, 1)])
def test_band_transforms_prune_their_line_transforms(monkeypatch, dim, n, lines):
    # at 48^3 a band transform makes 4977 line transforms, not 3 * 48^2 = 6912:
    # n^2 on the full grid, then n * nb and nb^2 on what reaches the band
    spec = GridSpec(dim, n, 12.0)
    counted = []
    for name in ("fft", "ifft"):
        original = getattr(scipy.fft, name)

        def count(x, *args, _original=original, **kwargs):
            counted.append(x.size // x.shape[kwargs["axis"]])
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, count)
    band = spec.band_fft(gaussian_field(spec).values, True)
    assert sum(counted) == lines
    counted.clear()
    spec.band_ifft(band, True)
    assert sum(counted) == lines


@pytest.mark.parametrize("preset", ["conformal_bump", "anisotropic_bump"])
def test_flux_kernel_is_box_by_band_matrices(monkeypatch, preset):
    # the evolve3d geometry: p lives on 7^3 of 48^3 points and the 2/3 band
    # keeps 33 modes per axis, so the restricted DFT is one 7 x 33 matrix per
    # axis and an apply transforms nothing
    spec = GridSpec(3, 48, 12.0)
    metric, damping = build_preset(preset, spec, {"metric_amplitude": -0.95,
                                                  "metric_radius": 2.0,
                                                  "damping_radius": 4.0})
    flux = Propagator(metric, damping, SolverConfig(dt=0.02, duration=0.08)).flux
    assert tuple(s.stop - s.start for s in flux.box) == (7, 7, 7)
    assert [e.shape for e in flux.synthesis] == [(7, 33)] * 3
    assert [a.shape for a in flux.analysis] == [(33, 7)] * 3
    coeffs = spec.fft(gaussian_field(spec).values)[np.ix_(*[spec.retained(True)] * 3)]
    counted = []
    for name in scipy.fft.__all__:
        original = getattr(scipy.fft, name)
        if callable(original):
            def count(*args, _original=original, **kwargs):
                counted.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, count)
    flux(coeffs)
    assert counted == []


# -- discrete invariants -----------------------------------------------------------
#
# They guard the RK4 shared with the ray tracer: the inner perturbation steps
# of a conformal or rank-one metric run through it.

INVARIANT_SPEC = GridSpec(2, 64, 8.0)


def _smooth_field(kind, seed, amplitude, width, momentum):
    spec = INVARIANT_SPEC
    if kind == "packet":
        return gaussian_field(spec, amplitude=amplitude, width=width,
                              momentum=momentum)
    noise = band_limited_random(spec, seed=seed, k_scale=1.0 / width).values
    return Field(amplitude * noise / np.abs(noise).max(), spec)


_SMOOTH_FIELDS = dict(
    kind=st.sampled_from(["packet", "noise"]),
    seed=st.integers(0, 50),
    amplitude=st.floats(0.1, 0.6),
    width=st.floats(1.2, 1.5),
    momentum=st.floats(0.0, 0.5),
)


@settings(max_examples=20, deadline=None)
@given(preset=st.sampled_from(["identity", "conformal_bump", "anisotropic_bump"]),
       **_SMOOTH_FIELDS)
def test_undamped_strang_step_conserves_mass(preset, kind, seed, amplitude, width,
                                             momentum):
    spec = INVARIANT_SPEC
    metric, damping = build_preset(preset, spec, {"damping_amplitude": 0.0})
    u0 = _smooth_field(kind, seed, amplitude, width, momentum)
    u0 = Field(spec.band_limit(u0.values), spec)
    cfg = SolverConfig(dt=0.01, duration=1.0)
    u1 = step(SimulationState(u0, 0.0, 0), Propagator(metric, damping, cfg)).u
    assert abs(mass(Frame(u1)) - mass(Frame(u0))) <= 1e-13 * mass(Frame(u0))


@settings(max_examples=20, deadline=None)
@given(**_SMOOTH_FIELDS)
def test_free_strang_step_is_time_reversible(kind, seed, amplitude, width,
                                             momentum):
    spec = INVARIANT_SPEC
    metric, damping = build_preset("identity", spec, {"damping_amplitude": 0.0})
    u0 = _smooth_field(kind, seed, amplitude, width, momentum)
    forward = SolverConfig(dt=0.01, duration=1.0, dealias=False)
    backward = SolverConfig(dt=0.01, duration=-1.0, dealias=False)
    state = step(SimulationState(u0, 0.0, 0), Propagator(metric, damping, forward))
    back = step(state, Propagator(metric, damping, backward)).u
    assert np.max(np.abs(back.values - u0.values)) <= 1e-14 * np.abs(u0.values).max()
