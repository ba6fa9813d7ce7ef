import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnls.rays
from dnls.errors import DomainError
from dnls.geometry import (
    PRESET_NAMES,
    DampingField,
    MetricField,
    build_preset,
    default_escape_radius,
)
from dnls.grid import GridSpec
from dnls.rays import (
    _Flow,
    classify_ray,
    hamiltonian,
    integrate_ray,
    sample_ensemble,
    verify_exterior_control,
)
from reference import ray_ensemble_fates

SPEC = GridSpec(2, 32, 12.0)
SPEC3 = GridSpec(3, 16, 12.0)

TRAP_PARAMS = {"metric_amplitude": -0.95, "metric_radius": 2.0, "damping_radius": 2.0}


def test_hamiltonian_identity_unit_momentum():
    metric, _ = build_preset("identity", SPEC3)
    assert hamiltonian(np.zeros(3), np.array([1.0, 0, 0]), metric) == pytest.approx(1.0)


def test_hamiltonian_scaled_identity():
    # at the apex of a conformal bump of amplitude 1, G = 2 I
    metric = MetricField(SPEC3, amplitude=1.0, radius=2.0)
    h = hamiltonian(np.zeros(3), np.array([1.0, 1.0, 0.0]), metric)
    assert h == pytest.approx(4.0)


def test_hamiltonian_at_bump_apex():
    metric = MetricField(SPEC, amplitude=0.5, radius=2.0)
    h = hamiltonian(np.zeros(2), np.array([1.0, 0.0]), metric)
    assert h == pytest.approx(1.5, rel=1e-12)


def test_straight_ray_for_identity_metric():
    metric, _ = build_preset("identity", SPEC)
    traj = integrate_ray(np.zeros(2), np.array([1.0, 0.0]), metric, 2.0, 1e-2)
    # dx/dt = 2 G xi = 2 xi: x(t) = (2t, 0)
    assert np.max(np.abs(traj.positions[:, 0] - 2.0 * traj.times)) < 1e-12
    assert np.max(np.abs(traj.positions[:, 1])) == 0.0
    assert np.max(np.abs(traj.momenta - np.array([1.0, 0.0]))) == 0.0


def test_hamiltonian_conservation_default_step():
    metric, _ = build_preset("conformal_bump", SPEC,
                             {"metric_amplitude": -0.5, "metric_radius": 2.0})
    traj = integrate_ray(
        np.array([0.5, 0.2]), np.array([0.4, 0.9]), metric, 10.0, 1e-3
    )
    h0 = traj.hamiltonians[0]
    assert np.max(np.abs(traj.hamiltonians - h0)) / abs(h0) < 1e-8


def test_fourth_order_drift_scaling():
    metric = MetricField(SPEC, amplitude=-0.8, radius=2.0)
    x0, xi0 = np.array([1.0, 0.0]), np.array([0.1, 0.9])
    drifts = []
    for dt in (4e-2, 2e-2):
        traj = integrate_ray(x0, xi0, metric, 4.0, dt)
        drifts.append(np.max(np.abs(traj.hamiltonians - traj.hamiltonians[0])))
    assert drifts[0] / drifts[1] > 10.0  # ~16x for a 4th-order method


def test_radial_ray_stays_on_radial_line_by_symmetry():
    metric = MetricField(SPEC, amplitude=0.5, radius=2.0)
    traj = integrate_ray(np.array([-4.0, 0.0]), np.array([1.0, 0.0]), metric, 3.0, 1e-3)
    assert np.max(np.abs(traj.positions[:, 1])) < 1e-13
    assert np.max(np.abs(traj.momenta[:, 1])) < 1e-13


def test_time_reversal_roundtrip():
    metric = MetricField(SPEC, amplitude=-0.6, radius=2.0)
    x0, xi0 = np.array([0.8, -0.3]), np.array([0.3, 0.7])
    fwd = integrate_ray(x0, xi0, metric, 5.0, 1e-3)
    back = integrate_ray(
        fwd.positions[-1], -fwd.momenta[-1], metric, 5.0, 1e-3
    )
    assert np.linalg.norm(back.positions[-1] - x0) < 1e-6
    assert np.linalg.norm(-back.momenta[-1] - xi0) < 1e-6


def test_integrate_ray_input_validation():
    metric, _ = build_preset("identity", SPEC)
    with pytest.raises(DomainError):
        integrate_ray(np.zeros(2), np.zeros(2), metric, 1.0, 1e-2)
    with pytest.raises(DomainError):
        integrate_ray(np.zeros(2), np.ones(2), metric, -1.0, 1e-2)


def _run_rays(how, metric, damping, x0, xi0, horizon=1.0, dt=1e-2):
    if how == "ensemble":
        return verify_exterior_control(metric, damping, x0, xi0, horizon=horizon,
                                       dt=dt, escape_radius=9.0)
    return integrate_ray(x0, xi0, metric, horizon, dt)


@pytest.mark.parametrize("how", ["ensemble", "single"])
def test_ray_shapes_must_match_the_metric(how):
    metric, damping = build_preset("conformal_bump", SPEC)
    if how == "ensemble":
        x0, xi0 = sample_ensemble(2, 4, 1.0, seed=0)
        bad = [(x0, np.ones((4, 3))), (x0[:, :1], xi0[:, :1]), (x0, xi0[:3]),
               (x0[0], xi0[0])]
    else:
        bad = [(np.zeros(3), np.ones(3)), (np.zeros(2), np.ones(3))]
    for x, xi in bad:
        with pytest.raises(DomainError, match="shape"):
            _run_rays(how, metric, damping, x, xi)


@pytest.mark.parametrize("how", ["ensemble", "single"])
def test_zero_momentum_ray_is_refused(how):
    metric, damping = build_preset("conformal_bump", SPEC)
    x0, xi0 = sample_ensemble(2, 4, 1.0, seed=0)
    xi0[2] = 0.0
    if how == "single":
        x0, xi0 = x0[2], xi0[2]
    with pytest.raises(DomainError, match="momentum"):
        _run_rays(how, metric, damping, x0, xi0)


# -- the structure-aware flow ---------------------------------------------------------
#
# The flow and the symbol use G = I + p S through one radial evaluation. Their
# references are the generic contraction of the d x d and d x d x d arrays,
# and Hamilton's equations taken by central differences of the symbol.

FLOW_GRIDS = {1: GridSpec(1, 32, 12.0), 2: SPEC, 3: SPEC3}


def _flow_case(preset, dim, amplitude, radii, x_dirs, xis):
    params = {} if preset == "identity" else {"metric_amplitude": amplitude}
    metric, _ = build_preset(preset, FLOW_GRIDS[dim], params)
    dirs = np.array(x_dirs)[:, :dim]
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    # radii are fractions of the bump radius (2): inside, outside, the origin
    x = np.concatenate([2.0 * np.array(radii)[:, None] * dirs, np.zeros((1, dim))])
    xi = np.concatenate([np.array(xis)[:, :dim], np.ones((1, dim))])
    return metric, x, xi


def _table_flow(metric, x, xi):
    dx = 2.0 * np.einsum("nij,nj->ni", metric.eval_metric(x), xi)
    dxi = -np.einsum("nkij,ni,nj->nk", metric.eval_metric_grad(x), xi, xi)
    return dx, dxi


_vectors = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
_flow_draws = dict(
    preset=st.sampled_from(PRESET_NAMES),
    dim=st.sampled_from(sorted(FLOW_GRIDS)),
    amplitude=st.floats(-0.9, 0.9),
    radii=st.lists(st.floats(0.0, 1.5), min_size=4, max_size=4),
    x_dirs=st.lists(_vectors, min_size=4, max_size=4),
    xis=st.lists(_vectors, min_size=4, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(**_flow_draws)
def test_structure_flow_equals_the_table_flow(preset, dim, amplitude, radii,
                                             x_dirs, xis):
    metric, x, xi = _flow_case(preset, dim, amplitude, radii, x_dirs, xis)
    flow = _Flow(metric)(np.concatenate([x, xi], axis=1).T).T
    dx, dxi = _table_flow(metric, x, xi)
    # the floor admits the roundoff of subnormal bump values at the support edge
    for got, ref in ((flow[:, :dim], dx), (flow[:, dim:], dxi)):
        assert np.all(np.linalg.norm(got - ref, axis=1)
                      <= 1e-13 * np.linalg.norm(ref, axis=1) + 1e-300)
    # the symbol itself, against G xi . xi from the d x d evaluator
    h = hamiltonian(x, xi, metric)
    h_ref = np.einsum("nij,ni,nj->n", metric.eval_metric(x), xi, xi)
    assert np.all(np.abs(h - h_ref) <= 1e-13 * np.abs(h_ref) + 1e-300)


@settings(max_examples=40, deadline=None)
@given(**_flow_draws)
def test_flow_is_hamiltons_equations_of_the_symbol(preset, dim, amplitude, radii,
                                                  x_dirs, xis):
    metric, x, xi = _flow_case(preset, dim, amplitude, radii, x_dirs, xis)
    flow = _Flow(metric)(np.concatenate([x, xi], axis=1).T).T
    step = 1e-5
    dh_dx, dh_dxi = np.empty_like(x), np.empty_like(xi)
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        dh_dx[:, k] = (hamiltonian(x + e, xi, metric)
                       - hamiltonian(x - e, xi, metric)) / (2.0 * step)
        dh_dxi[:, k] = (hamiltonian(x, xi + e, metric)
                        - hamiltonian(x, xi - e, metric)) / (2.0 * step)
    scale = 1.0 + np.linalg.norm(xi, axis=1)[:, None] ** 2
    assert np.all(np.abs(flow[:, :dim] - dh_dxi) <= 1e-8 * scale)
    assert np.all(np.abs(flow[:, dim:] + dh_dx) <= 1e-7 * scale)


# -- classification ----------------------------------------------------------------


def test_classify_straight_ray_escape_time():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 3.0})
    xi = np.array([0.6, 0.8])
    traj = integrate_ray(np.zeros(2), xi, metric, 10.0, 1e-2)
    fate = classify_ray(traj, damping, escape_radius=8.0)
    assert fate.kind == "escaped"
    assert fate.t_exit == pytest.approx(8.0 / 2.0, abs=1e-9)  # |x| = 2|xi| t
    assert fate.hamiltonian_drift < 1e-14


def test_classify_trapped_orbit():
    metric, damping = build_preset("uncontrolled_bump", SPEC, dict(TRAP_PARAMS))
    # tangential launch at the effective-potential well of the depression
    traj = integrate_ray(
        np.array([1.107, 0.0]), np.array([0.0, 1.0]), metric, 30.0, 2e-3
    )
    fate = classify_ray(traj, damping, escape_radius=default_escape_radius(metric, damping))
    assert fate.kind == "trapped_at_horizon"
    assert np.max(np.linalg.norm(traj.positions, axis=1)) < 2.0


def test_classify_controlled_orbit_reports_residence():
    metric, damping = build_preset(
        "conformal_bump", SPEC,
        {"metric_amplitude": -0.95, "metric_radius": 2.0, "damping_radius": 3.0},
    )
    traj = integrate_ray(
        np.array([1.107, 0.0]), np.array([0.0, 1.0]), metric, 20.0, 2e-3
    )
    fate = classify_ray(traj, damping, escape_radius=default_escape_radius(metric, damping))
    assert fate.kind == "controlled"
    assert fate.t_first_hit == 0.0
    assert fate.time_in_control > 10.0


def test_trapped_orbit_threading_damping_annulus_is_controlled():
    # same trapping metric, but the damping is an annulus crossing the orbit
    metric = MetricField(SPEC, amplitude=-0.95, radius=2.0)
    damping = DampingField(SPEC, amplitude=1.0, shape="annulus",
                           inner_radius=0.8, outer_radius=1.6)
    traj = integrate_ray(
        np.array([1.107, 0.0]), np.array([0.0, 1.0]), metric, 20.0, 2e-3
    )
    fate = classify_ray(traj, damping, escape_radius=8.0)
    assert fate.kind == "controlled"
    assert fate.time_in_control > 0.0


def test_escaped_ray_still_reports_control_residence():
    metric, _ = build_preset("identity", SPEC)
    damping = DampingField(SPEC, amplitude=1.0, radius=2.0)
    traj = integrate_ray(np.array([-5.0, 0.0]), np.array([1.0, 0.0]), metric, 10.0, 1e-2)
    fate = classify_ray(traj, damping, escape_radius=7.0)
    assert fate.kind == "escaped"
    assert fate.time_in_control > 0.0
    assert not np.isnan(fate.t_first_hit)


# -- ensembles ------------------------------------------------------------------------


def test_sample_ensemble_random_properties():
    x0, xi0 = sample_ensemble(3, 128, 2.5, seed=1)
    assert x0.shape == (128, 3)
    assert np.all(np.linalg.norm(x0, axis=1) <= 2.5 + 1e-12)
    assert np.max(np.abs(np.linalg.norm(xi0, axis=1) - 1.0)) < 1e-12
    again, _ = sample_ensemble(3, 128, 2.5, seed=1)
    assert np.array_equal(x0, again)


def test_sample_ensemble_lattice_mode():
    x0, xi0 = sample_ensemble(2, 9, 2.0, mode="lattice")
    assert np.all(np.linalg.norm(x0, axis=1) <= 2.0 + 1e-12)
    assert np.max(np.abs(np.linalg.norm(xi0, axis=1) - 1.0)) < 1e-12
    with pytest.raises(DomainError):
        sample_ensemble(2, 4, 1.0, mode="spiral")


def test_identity_ensemble_all_escape_with_straight_line_times():
    metric, _ = build_preset("identity", SPEC)
    damping = DampingField(SPEC, amplitude=1.0, radius=2.0)
    x0, xi0 = sample_ensemble(2, 32, 2.0, seed=3)
    summary = verify_exterior_control(
        metric, damping, x0, xi0, horizon=30.0, dt=1e-2, escape_radius=9.0
    )
    assert summary.counts["escaped"] == 32
    assert summary.exterior_control_holds
    for i, fate in enumerate(summary.fates):
        a = 4.0 * xi0[i] @ xi0[i]
        b = 4.0 * x0[i] @ xi0[i]
        c = x0[i] @ x0[i] - 81.0
        t_exact = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert fate.t_exit == pytest.approx(t_exact, abs=1e-9)


def test_uncontrolled_ensemble_detects_trapping():
    metric, damping = build_preset("uncontrolled_bump", SPEC, dict(TRAP_PARAMS))
    x0, xi0 = sample_ensemble(2, 64, 2.0, seed=7)
    summary = verify_exterior_control(
        metric, damping, x0, xi0, horizon=30.0, dt=2e-3,
        escape_radius=default_escape_radius(metric, damping),
    )
    assert summary.counts["trapped_at_horizon"] >= 1
    assert not summary.exterior_control_holds
    drifts = [fate.hamiltonian_drift for fate in summary.fates]
    assert max(drifts) < 1e-8


def test_controlled_counterpart_has_no_trapped_rays():
    metric, damping = build_preset(
        "conformal_bump", SPEC,
        {"metric_amplitude": -0.95, "metric_radius": 2.0, "damping_radius": 3.0},
    )
    x0, xi0 = sample_ensemble(2, 64, 2.0, seed=7)
    summary = verify_exterior_control(
        metric, damping, x0, xi0, horizon=30.0, dt=2e-3,
        escape_radius=default_escape_radius(metric, damping),
    )
    assert summary.counts["trapped_at_horizon"] == 0
    assert summary.counts["controlled"] >= 1
    assert summary.exterior_control_holds


# The ensemble against the (n, 2 dim) reference loop: every metric structure
# in 2-d and 3-d, three damping shapes, and rays that start beyond the escape
# radius (heading out, and heading in from just outside it).

REFERENCE_METRICS = {
    "identity": (0.0, None),
    "conformal": (-0.95, None),
    "rank-one": (-0.95, (1.0, 2.0, -0.5)),
}

REFERENCE_DAMPINGS = {
    "ball": dict(radius=3.0),
    "annulus": dict(shape="annulus", inner_radius=0.8, outer_radius=1.6),
    "offset": dict(radius=1.0, center=(3.0, -1.0, 0.5)),
}


def _reference_case(structure, dim, damping_shape):
    spec = FLOW_GRIDS[dim]
    amplitude, direction = REFERENCE_METRICS[structure]
    metric = MetricField(spec, amplitude=amplitude, radius=2.0,
                         direction=None if direction is None else direction[:dim])
    params = dict(REFERENCE_DAMPINGS[damping_shape])
    if "center" in params:
        params["center"] = np.array(params["center"][:dim])
    damping = DampingField(spec, amplitude=1.0, **params)
    escape = default_escape_radius(metric, damping)
    x0, xi0 = sample_ensemble(dim, 24, 2.0, seed=dim)
    out = np.eye(dim)[0]
    x_far = np.array([1.05 * escape * out, 1.05 * escape * out,
                      (escape + 0.01) * out])
    xi_far = np.array([out, -out, -out])
    return (metric, damping, escape, np.concatenate([x0, x_far]),
            np.concatenate([xi0, xi_far]))


@pytest.mark.parametrize("damping_shape", sorted(REFERENCE_DAMPINGS))
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("structure", sorted(REFERENCE_METRICS))
def test_ensemble_matches_the_reference_loop(structure, dim, damping_shape):
    metric, damping, escape, x0, xi0 = _reference_case(structure, dim,
                                                       damping_shape)
    horizon, dt = 8.0, 2e-2
    got = verify_exterior_control(metric, damping, x0, xi0, horizon=horizon,
                                  dt=dt, escape_radius=escape).fates
    want = ray_ensemble_fates(metric, damping, x0, xi0, horizon, dt, escape)
    assert [f.kind for f in got] == [f.kind for f in want]
    for name in ("t_exit", "t_first_hit", "time_in_control", "horizon"):
        a = np.array([getattr(f, name) for f in got])
        b = np.array([getattr(f, name) for f in want])
        assert np.allclose(a, b, rtol=1e-12, atol=0.0, equal_nan=True), name
    assert np.allclose([f.hamiltonian_drift for f in got],
                       [f.hamiltonian_drift for f in want], rtol=0.0, atol=1e-12)
    assert got[-3].kind == got[-2].kind == "escaped"  # they started outside


def test_ensemble_evaluates_the_symbol_once_per_step(monkeypatch):
    # the benchmark's tracer counts the ensemble's steps by these calls
    calls = []
    symbol = dnls.rays.hamiltonian

    def counted(*args, **kwargs):
        calls.append(1)
        return symbol(*args, **kwargs)

    monkeypatch.setattr(dnls.rays, "hamiltonian", counted)
    metric, damping = build_preset("uncontrolled_bump", SPEC, dict(TRAP_PARAMS))
    x0, xi0 = sample_ensemble(2, 16, 2.0, seed=7)
    horizon, dt = 3.0, 1e-2
    summary = verify_exterior_control(
        metric, damping, x0, xi0, horizon=horizon, dt=dt,
        escape_radius=default_escape_radius(metric, damping),
    )
    assert summary.counts["trapped_at_horizon"] >= 1  # it ran to the horizon
    assert len(calls) == int(round(horizon / dt)) + 1


def test_whole_number_of_ray_steps_at_least_one():
    # horizon 0.01 at dt 0.05 took no step: 8 rays sampled inside the damping
    # all read controlled, and the ensemble said exterior control holds
    metric, damping = build_preset("conformal_bump", SPEC, {"damping_radius": 4.0})
    x0, xi0 = sample_ensemble(2, 8, 3.0, seed=0)
    with pytest.raises(DomainError, match="one step at least"):
        verify_exterior_control(metric, damping, x0, xi0, horizon=0.01, dt=0.05,
                                escape_radius=default_escape_radius(metric, damping))
    with pytest.raises(DomainError, match="one step at least"):
        integrate_ray(np.zeros(2), np.ones(2), metric, 0.01, 0.05)
    # one step is a run
    assert len(integrate_ray(np.zeros(2), np.ones(2), metric, 0.05, 0.05).times) == 2


@pytest.mark.parametrize("how", ["ensemble", "single"])
@pytest.mark.parametrize("horizon, message", [
    # was OverflowError from round(inf)
    pytest.param(np.inf, "horizon must be finite", id="infinite"),
    # integrate_ray asked numpy for 10^13 recorded states (291 TiB), and the
    # ensemble would have stepped 10^13 times
    pytest.param(1e12, "horizon / dt = 1e\\+13 steps exceeds the cap", id="over_the_cap"),
])
def test_ray_step_count_refuses_before_it_allocates_or_steps(how, horizon, message):
    metric, damping = build_preset("conformal_bump", SPEC, {"damping_radius": 4.0})
    x0, xi0 = sample_ensemble(2, 4, 3.0, seed=0)
    if how == "single":
        x0, xi0 = x0[0], xi0[0]
    with pytest.raises(DomainError, match=message):
        _run_rays(how, metric, damping, x0, xi0, horizon=horizon, dt=0.1)


def test_ray_horizons_not_a_whole_number_of_steps_are_refused():
    # horizon 1.0 at dt 0.3 stopped at t = 0.9, and its trapped rays still
    # reported the horizon 1.0
    metric, damping = build_preset("conformal_bump", SPEC, {"damping_radius": 4.0})
    x0, xi0 = sample_ensemble(2, 4, 3.0, seed=0)
    with pytest.raises(DomainError, match="horizon = 1.0 is not a whole number of steps"):
        verify_exterior_control(metric, damping, x0, xi0, horizon=1.0, dt=0.3,
                                escape_radius=default_escape_radius(metric, damping))
    with pytest.raises(DomainError, match="horizon = 1.0 is not a whole number of steps"):
        integrate_ray(np.zeros(2), np.ones(2), metric, 1.0, 0.3)


def test_escape_radius_must_clear_coefficient_support():
    metric, damping = build_preset("conformal_bump", SPEC, {"damping_radius": 4.0})
    x0, xi0 = sample_ensemble(2, 4, 1.0, seed=0)
    with pytest.raises(DomainError):
        verify_exterior_control(metric, damping, x0, xi0, 1.0, 1e-2, escape_radius=3.0)


# -- one classification rule ------------------------------------------------------------

ORACLE_GEOMETRIES = {
    "identity": ("identity", {"damping_radius": 2.0}),
    "conformal": ("conformal_bump", {"metric_amplitude": -0.95, "metric_radius": 2.0,
                                     "damping_radius": 3.0}),
    "uncontrolled": ("uncontrolled_bump", dict(TRAP_PARAMS)),
}


def _oracle_geometry(case):
    preset, params = ORACLE_GEOMETRIES[case]
    metric, damping = build_preset(preset, SPEC, params)
    return metric, damping, default_escape_radius(metric, damping)


def _assert_same_fate(single, ensemble):
    assert single.kind == ensemble.kind
    assert np.array_equal([single.t_first_hit], [ensemble.t_first_hit],
                          equal_nan=True)
    assert single.time_in_control == ensemble.time_in_control
    assert single.t_exit == pytest.approx(ensemble.t_exit, rel=1e-12, abs=1e-12,
                                          nan_ok=True)
    assert single.hamiltonian_drift == pytest.approx(
        ensemble.hamiltonian_drift, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("case", sorted(ORACLE_GEOMETRIES))
@settings(max_examples=15, deadline=None)
@given(
    radius=st.floats(0.0, 1.2),
    angle=st.floats(0.0, 2.0 * np.pi),
    heading=st.floats(0.0, 2.0 * np.pi),
    speed=st.floats(0.5, 1.5),
)
def test_recorded_ray_classifies_like_an_ensemble_of_one(case, radius, angle,
                                                          heading, speed):
    # radius is a fraction of the escape radius, so some rays start outside it
    metric, damping, escape = _oracle_geometry(case)
    x0 = radius * escape * np.array([np.cos(angle), np.sin(angle)])
    xi0 = speed * np.array([np.cos(heading), np.sin(heading)])
    horizon, dt = 6.0, 2e-2
    single = classify_ray(integrate_ray(x0, xi0, metric, horizon, dt), damping,
                          escape_radius=escape)
    ensemble = verify_exterior_control(
        metric, damping, x0[None, :], xi0[None, :], horizon=horizon, dt=dt,
        escape_radius=escape,
    ).fates[0]
    _assert_same_fate(single, ensemble)


def test_ray_starting_outside_escapes_on_its_first_step():
    metric, _ = build_preset("identity", SPEC)
    damping = DampingField(SPEC, amplitude=1.0, radius=2.0)
    x0, xi0 = np.array([9.0, 0.0]), np.array([1.0, 0.0])
    traj = integrate_ray(x0, xi0, metric, 2.0, 1e-2)
    fate = classify_ray(traj, damping, escape_radius=8.0)
    assert fate.kind == "escaped"
    assert fate.t_exit == 0.0  # moving outward: the segment root clips to t = 0
    assert np.isnan(fate.t_first_hit)
    # heading inward, it is back inside after one step and escapes later
    inward = classify_ray(integrate_ray(np.array([8.01, 0.0]), -xi0, metric, 20.0,
                                        1e-2), damping, escape_radius=8.0)
    assert inward.kind == "escaped"
    assert inward.t_exit > 5.0
    assert inward.time_in_control > 0.0


def test_drift_stops_at_escape():
    # a recorded trajectory that runs on after escape reports the drift up to
    # the exit step only, as an ensemble does
    metric, damping, escape = _oracle_geometry("conformal")
    x0, xi0 = np.array([1.0, 0.5]), np.array([0.6, 0.8])
    traj = integrate_ray(x0, xi0, metric, 20.0, 5e-2)
    fate = classify_ray(traj, damping, escape_radius=escape)
    assert fate.kind == "escaped"
    exit_step = int(np.argmax(np.linalg.norm(traj.positions, axis=1) > escape))
    h = traj.hamiltonians
    expected = np.max(np.abs(h[:exit_step + 1] - h[0])) / abs(h[0])
    assert fate.hamiltonian_drift == expected


# -- golden ray fates -------------------------------------------------------------------
#
# Every fate of the ensembles the criterion-9 ray workload runs (the trapping
# uncontrolled bump and its controlled twin, seeds 1-3) plus one trapping
# anisotropic ensemble in 2-d and in 3-d. The values in golden_ray_fates.json
# were recorded with the flow that contracted the d x d x d table of dG/dx at
# every RK4 stage. A rewrite of the flow that keeps its formula may change
# rounding only.

GOLDEN_RAY_FILE = Path(__file__).with_name("golden_ray_fates.json")

GOLDEN_RAY_CASES = {
    # id: (preset, dim, n, damping radius, seed)
    **{f"uncontrolled-seed{s}": ("uncontrolled_bump", 2, 32, 2.0, s) for s in (1, 2, 3)},
    **{f"conformal-seed{s}": ("conformal_bump", 2, 32, 3.0, s) for s in (1, 2, 3)},
    "anisotropic-2d": ("anisotropic_bump", 2, 32, 3.0, 1),
    "anisotropic-3d": ("anisotropic_bump", 3, 16, 3.0, 1),
}

GOLDEN_RAY_FIELDS = ("t_exit", "t_first_hit", "time_in_control", "hamiltonian_drift")


def _golden_ray_fates(case):
    preset, dim, n, damping_radius, seed = GOLDEN_RAY_CASES[case]
    metric, damping = build_preset(
        preset, GridSpec(dim, n, 12.0),
        {"metric_amplitude": -0.95, "metric_radius": 2.0,
         "damping_radius": damping_radius},
    )
    x0, xi0 = sample_ensemble(dim, 64, 2.0, seed=seed)
    summary = verify_exterior_control(
        metric, damping, x0, xi0, horizon=10.0, dt=0.01,
        escape_radius=default_escape_radius(metric, damping),
    )
    fates = {"kind": [fate.kind for fate in summary.fates]}
    for name in GOLDEN_RAY_FIELDS:
        fates[name] = [getattr(fate, name) for fate in summary.fates]
    return fates


def _load_golden_ray_fates():
    # NaN (no exit or no control hit) is stored as null
    raw = json.loads(GOLDEN_RAY_FILE.read_text())
    return {
        case: {name: values if name == "kind"
               else np.array([np.nan if v is None else v for v in values])
               for name, values in fates.items()}
        for case, fates in raw.items()
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_RAY_CASES))
def test_golden_ray_fates(case):
    got = _golden_ray_fates(case)
    gold = _load_golden_ray_fates()[case]
    assert got["kind"] == gold["kind"]
    for name in ("t_exit", "t_first_hit", "time_in_control"):
        assert np.array_equal(np.isnan(got[name]), np.isnan(gold[name])), name
        assert np.allclose(got[name], gold[name], rtol=1e-12, atol=0.0,
                           equal_nan=True), name
    assert np.allclose(got["hamiltonian_drift"], gold["hamiltonian_drift"],
                       rtol=0.0, atol=1e-12)
