import numpy as np
import pytest

from dnls.errors import DomainError, InvalidMetricError
from dnls.geometry import (
    DampingField,
    MetricField,
    PRESET_NAMES,
    build_preset,
    check_control,
    coercivity_constant,
    cutoff_field,
    gradient_bound_constant,
    smooth_transition,
)
from dnls.grid import GridSpec
from dnls.solver import cfl_suggestion

from reference import (
    bump_profile,
    bump_profile_derivative,
    metric_table,
    real_derivatives_full,
)


SPEC = GridSpec(2, 64, 10.0)
SPEC3 = GridSpec(3, 24, 10.0)


def _radial_bump(r: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """b and db/dr as the package forms them: p and grad p = c x of a
    unit-amplitude 1-d bump, sampled at x = r >= 0 by
    ``MetricField.eval_radial``."""
    metric = MetricField(GridSpec(1, 16, 10.0), amplitude=1.0, radius=radius)
    r = np.asarray(r, dtype=float)
    p, c = metric.eval_radial(r[:, None])
    return p, c * r


def test_bump_profile_shape():
    r = np.array([0.0, 1.0, 1.999, 2.0, 5.0])
    b, db = _radial_bump(r, 2.0)
    assert b[0] == 1.0
    assert 0 < b[1] < 1
    assert b[3] == 0.0 and b[4] == 0.0
    assert np.allclose(b, bump_profile(r, 2.0), rtol=1e-14, atol=0.0)
    assert db[0] == 0.0
    assert db[1] < 0.0
    assert db[3] == 0.0


def test_bump_derivative_matches_finite_differences():
    r = np.linspace(0.05, 1.9, 40)
    h = 1e-6
    fd = (bump_profile(r + h, 2.0) - bump_profile(r - h, 2.0)) / (2 * h)
    assert np.max(np.abs(fd - _radial_bump(r, 2.0)[1])) < 1e-7
    assert np.max(np.abs(fd - bump_profile_derivative(r, 2.0))) < 1e-7


def test_smooth_transition_endpoints_and_monotonicity():
    s = np.linspace(-0.5, 1.5, 101)
    t = smooth_transition(s)
    assert np.all(t[s <= 0] == 0.0)
    assert np.all(t[s >= 1] == 1.0)
    assert np.all(np.diff(t) >= 0.0)


def test_cutoff_field_flat_and_support():
    chi = cutoff_field(SPEC, 3.0, 6.0)
    r2 = SPEC.radius_squared
    assert np.all(chi[r2 <= 9.0 - 1e-12] == 1.0)
    assert np.all(chi[r2 >= 36.0] == 0.0)
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    with pytest.raises(DomainError):
        cutoff_field(SPEC, 6.0, 3.0)


# -- presets -------------------------------------------------------------------


def test_identity_preset_control_satisfied_with_infinite_delta0():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 3.0})
    report = check_control(metric, damping)
    assert report.satisfied
    assert report.delta0 == np.inf
    assert report.violation_count == 0
    assert metric.is_identity


def test_conformal_preset_control_satisfied_with_scanned_delta0():
    metric, damping = build_preset(
        "conformal_bump", SPEC,
        {"metric_amplitude": 0.5, "metric_radius": 2.0, "damping_radius": 4.0},
    )
    report = check_control(metric, damping, g_tol=1e-12, a_min=1e-8)
    assert report.satisfied
    assert report.delta0 > 0
    # exhaustive oracle: min of a over points where the off-grid evaluator
    # puts the perturbation above threshold
    pts = np.stack(
        [np.broadcast_to(x, SPEC.shape) for x in SPEC.coords], axis=-1
    ).reshape(-1, 2)
    dev = np.linalg.norm(
        metric.eval_metric(pts) - np.eye(2), axis=(-2, -1)
    )  # Frobenius
    a_vals = damping.eval_damping(pts)
    oracle = a_vals[dev > 1e-12].min()
    assert report.delta0 == pytest.approx(oracle, rel=1e-12)


def test_uncontrolled_preset_violates_control():
    metric, damping = build_preset("uncontrolled_bump", SPEC)
    report = check_control(metric, damping)
    assert not report.satisfied
    assert report.violation_count > 0
    assert report.violation_points.shape[1] == SPEC.dim
    # every reported violation point carries a perturbed metric and no damping
    dev = np.linalg.norm(
        metric.eval_metric(report.violation_points) - np.eye(2), axis=(-2, -1)
    )
    assert np.all(dev > 1e-12)
    assert np.all(damping.eval_damping(report.violation_points) <= 1e-8)


def test_shifted_bump_outside_damping_is_violation():
    metric = MetricField(SPEC, amplitude=0.3, radius=2.0)
    damping = DampingField(SPEC, amplitude=1.0, radius=2.0,
                           center=np.array([6.0, 0.0]))
    assert not check_control(metric, damping).satisfied


def test_unknown_preset_rejected():
    with pytest.raises(DomainError):
        build_preset("wormhole", SPEC)
    with pytest.raises(DomainError):
        build_preset("identity", SPEC, {"warp_factor": 2.0})


# -- coercivity -----------------------------------------------------------------


def test_coercivity_identity():
    metric, _ = build_preset("identity", SPEC)
    assert coercivity_constant(metric) == 1.0


def test_coercivity_positive_bump_never_lowers():
    metric = MetricField(SPEC, amplitude=0.5, radius=2.0)
    assert coercivity_constant(metric) == pytest.approx(1.0)


def test_coercivity_negative_bump_apex():
    # b attains 1 at the on-grid origin, so min eig = 1 - 0.9 exactly
    metric = MetricField(SPEC, amplitude=-0.9, radius=2.0)
    assert coercivity_constant(metric) == pytest.approx(0.1, abs=1e-12)


def test_coercivity_loss_rejected():
    metric = MetricField(SPEC, amplitude=-1.1, radius=2.0)
    with pytest.raises(InvalidMetricError) as excinfo:
        coercivity_constant(metric)
    assert "eigenvalue" in str(excinfo.value)
    with pytest.raises(InvalidMetricError):
        build_preset("conformal_bump", SPEC, {"metric_amplitude": -1.05})


_SPECS_BY_DIM = {1: GridSpec(1, 64, 10.0), 2: GridSpec(2, 32, 10.0),
                 3: GridSpec(3, 16, 10.0)}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("amplitude", [None, -0.5])
def test_min_eigenvalue_matches_eigvalsh_on_table(dim, preset, amplitude):
    params = {} if amplitude is None else {"metric_amplitude": amplitude}
    if preset == "identity":
        params = {}
    metric, _ = build_preset(preset, _SPECS_BY_DIM[dim], params)
    stacked = np.moveaxis(metric_table(metric), (0, 1), (-2, -1))
    reference = float(np.linalg.eigvalsh(stacked)[..., 0].min())
    assert metric.min_eigenvalue() == pytest.approx(reference, rel=1e-14, abs=1e-14)


def _table_deviation(metric):
    """Frobenius norm of G - I from the generic table: the reference for the
    closed form."""
    d = metric.spec.dim
    table = metric_table(metric)
    return np.sqrt(sum((table[i, j] - (1.0 if i == j else 0.0)) ** 2
                       for i in range(d) for j in range(d)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("amplitude", [None, -0.5])
def test_control_scan_and_cfl_match_the_table_reference(dim, preset, amplitude):
    params = {} if amplitude is None or preset == "identity" else {
        "metric_amplitude": amplitude}
    spec = _SPECS_BY_DIM[dim]
    metric, damping = build_preset(preset, spec, params)
    report = check_control(metric, damping)
    dev = metric.deviation_norm()
    reference = _table_deviation(metric)
    assert np.max(np.abs(dev - reference)) <= 1e-15
    support = reference > 1e-12
    assert np.array_equal(dev > 1e-12, support)
    assert report.support_count == int(support.sum())
    if support.any():
        assert report.delta0 == float(damping.table[support].min())
    expected_bad = np.argwhere(support & (damping.table <= 1e-8))
    assert report.violation_count == len(expected_bad)
    pert = float(reference.max())
    k2max = dim * (np.pi / spec.length * (spec.n // 3)) ** 2
    expected = 1.0 if pert == 0.0 else min(2.0 / (k2max * pert), 1.0)
    assert cfl_suggestion(spec, metric, 10.0) == pytest.approx(expected, rel=1e-15,
                                                               abs=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rank_one", [False, True])
@pytest.mark.parametrize("amplitude", [-1.0, -1.3])
def test_coercivity_loss_rejected_in_closed_form(dim, rank_one, amplitude):
    spec = _SPECS_BY_DIM[dim]
    direction = np.eye(dim)[0] if rank_one else None
    metric = MetricField(spec, amplitude=amplitude, radius=2.0, direction=direction)
    with pytest.raises(InvalidMetricError):
        coercivity_constant(metric)


def test_anisotropic_preset_symmetric_and_coercive():
    metric, _ = build_preset("anisotropic_bump", SPEC3,
                             {"metric_amplitude": 0.4, "metric_radius": 2.0})
    table = metric_table(metric)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(table[i, j], table[j, i])
    assert coercivity_constant(metric) == pytest.approx(1.0)
    g = metric.eval_metric(np.array([[0.0, 0.0, 0.0]]))[0]
    assert g[0, 0] == pytest.approx(1.4)
    assert g[1, 1] == pytest.approx(1.0)


# -- gradient bound constant -------------------------------------------------------


def test_gradient_bound_zero_damping():
    damping = DampingField(SPEC, amplitude=0.0, radius=3.0)
    assert gradient_bound_constant(damping, 0.01) == 0.0


def _scanned_gradient_bound(damping, eps, h=1e-6):
    """max of (|grad a| - eps) / a over the grid points with a > 0, |grad a|
    by central differences of the closed-form evaluator."""
    spec = damping.spec
    points = np.stack([np.broadcast_to(x, spec.shape) for x in spec.coords],
                      axis=-1).reshape(-1, spec.dim)
    grad = np.stack([(damping.eval_damping(points + h * e)
                      - damping.eval_damping(points - h * e)) / (2.0 * h)
                     for e in np.eye(spec.dim)], axis=-1)
    a, mag = damping.eval_damping(points), np.linalg.norm(grad, axis=-1)
    best = 0.0
    for ai, mi in zip(a, mag):
        if ai > 0.0 and mi > eps:
            best = max(best, (mi - eps) / ai)
    return best


def test_gradient_bound_matches_exhaustive_scan():
    damping = DampingField(SPEC, amplitude=1.0, radius=3.0)
    got = gradient_bound_constant(damping, 0.01)
    assert got == pytest.approx(_scanned_gradient_bound(damping, 0.01), rel=1e-6)
    assert got == pytest.approx(28.48, abs=0.005)


@pytest.mark.parametrize("shape,center", [("ball", (1.5, -2.0)),
                                          ("annulus", (0.0, 0.0)),
                                          ("annulus", (-1.0, 2.0))])
def test_gradient_bound_of_annulus_and_offset_centre(shape, center):
    damping = DampingField(SPEC, amplitude=2.0, shape=shape, radius=2.5,
                           inner_radius=1.5, outer_radius=4.0,
                           center=np.array(center))
    got = gradient_bound_constant(damping, 0.01)
    assert got > 0.0
    assert got == pytest.approx(_scanned_gradient_bound(damping, 0.01), rel=1e-6)


def test_gradient_bound_monotone_in_eps():
    damping = DampingField(SPEC, amplitude=1.0, radius=3.0)
    values = [gradient_bound_constant(damping, eps) for eps in (0.005, 0.01, 0.05, 0.2)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(DomainError):
        gradient_bound_constant(damping, 0.0)


# -- evaluator / table agreement -----------------------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_offgrid_evaluator_matches_tables_at_grid_points(name):
    metric, damping = build_preset(name, SPEC3)
    pts = np.stack(
        [np.broadcast_to(x, SPEC3.shape) for x in SPEC3.coords], axis=-1
    ).reshape(-1, 3)
    g = metric.eval_metric(pts).reshape(SPEC3.shape + (3, 3))
    table = metric_table(metric)
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(g[..., i, j] - table[i, j])) < 1e-12
    a = damping.eval_damping(pts).reshape(SPEC3.shape)
    assert np.max(np.abs(a - damping.table)) < 1e-12


def test_metric_grad_evaluator_matches_finite_differences():
    metric = MetricField(SPEC3, amplitude=-0.5, radius=2.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.8, 1.8, size=(20, 3))
    dg = metric.eval_metric_grad(pts)
    h = 1e-6
    for k in range(3):
        shift = np.zeros(3)
        shift[k] = h
        fd = (metric.eval_metric(pts + shift) - metric.eval_metric(pts - shift)) / (
            2 * h
        )
        assert np.max(np.abs(fd - dg[:, k])) < 1e-6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_evaluator_matches_the_bump_profile(dim):
    metric = MetricField(GridSpec(dim, 16, 10.0), amplitude=-0.7, radius=2.0)
    rng = np.random.default_rng(dim)
    dirs = rng.standard_normal((40, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x = np.linspace(0.0, 3.0, 40)[:, None] * dirs
    r = np.linalg.norm(x, axis=1)
    p, c = metric.eval_radial(x)
    grad_p = c[:, None] * x
    radial = -0.7 * bump_profile_derivative(r, 2.0) / np.where(r == 0.0, 1.0, r)
    # at the support edge 1/(1 - s^2)^2 amplifies the rounding of |x|^2
    inside = r < 1.9
    assert np.allclose(p[inside], -0.7 * bump_profile(r[inside], 2.0),
                       rtol=1e-13, atol=0.0)
    assert np.allclose(grad_p[inside], radial[inside, None] * x[inside],
                       rtol=1e-13, atol=0.0)
    assert np.all(p[r >= 2.0] == 0.0) and np.all(grad_p[r >= 2.0] == 0.0)
    assert p[0] == -0.7 and np.all(grad_p[0] == 0.0)  # the origin
    p_id, c_id = MetricField(GridSpec(dim, 16, 10.0)).eval_radial(x)
    assert p_id.shape == (40,) and not p_id.any()
    assert c_id.shape == (40,) and not c_id.any()


def test_damping_annulus_shape():
    damping = DampingField(SPEC, amplitude=2.0, shape="annulus",
                           inner_radius=2.0, outer_radius=6.0)
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 7.0]])
    vals = damping.eval_damping(pts)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(2.0)  # annulus midline
    assert vals[2] == 0.0
    assert np.all(damping.table >= 0.0)
    with pytest.raises(DomainError):
        DampingField(SPEC, shape="annulus", inner_radius=3.0, outer_radius=2.0)


def test_div_G_grad_a_kept_for_the_last_metric_asked():
    conformal, damping = build_preset("conformal_bump", SPEC)
    anisotropic, _ = build_preset("anisotropic_bump", SPEC)
    first = damping.div_G_grad(conformal)
    want = real_derivatives_full(damping.table, conformal)[0]
    assert np.max(np.abs(first - want)) <= 1e-13 * np.max(np.abs(want))
    assert damping.div_G_grad(conformal) is first
    other = damping.div_G_grad(anisotropic)
    want = real_derivatives_full(damping.table, anisotropic)[0]
    assert np.max(np.abs(other - want)) <= 1e-13 * np.max(np.abs(want))
    assert not np.array_equal(other, first)


_TABLE_CASES = [
    ("conformal_bump", {}),
    ("identity", {"damping_shape": "annulus", "damping_inner_radius": 1.5,
                  "damping_outer_radius": 4.0}),
    ("uncontrolled_bump", {}),  # the damping centre sits off the origin
    ("uncontrolled_bump", {"damping_shape": "annulus",
                           "damping_inner_radius": 0.5,
                           "damping_outer_radius": 2.0}),
    ("conformal_bump", {"damping_amplitude": 0.0}),
]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name,params", _TABLE_CASES)
def test_damping_table_is_the_evaluator_at_the_grid_points(dim, name, params):
    spec = GridSpec(dim, {1: 32, 2: 32, 3: 16}[dim], 10.0)
    _, damping = build_preset(name, spec, params)
    points = np.stack([np.broadcast_to(x, spec.shape) for x in spec.coords],
                      axis=-1)
    assert np.array_equal(damping.table, damping.eval_damping(points))
    assert damping.table.shape == spec.shape
    assert np.any(damping.table) == (damping.amplitude > 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_metric_table_is_the_evaluator_at_the_grid_points(dim, name):
    spec = GridSpec(dim, {1: 32, 2: 32, 3: 16}[dim], 10.0)
    metric, _ = build_preset(name, spec)
    points = np.stack([np.broadcast_to(x, spec.shape) for x in spec.coords],
                      axis=-1)
    p, _ = metric.eval_radial(points)
    if metric.is_identity:
        assert metric.perturbation is None and not p.any()
    else:
        assert np.array_equal(metric.perturbation, p)
        assert np.count_nonzero(p) > 1


def test_damping_support_must_fit_in_box():
    with pytest.raises(DomainError):
        DampingField(SPEC, amplitude=1.0, radius=11.0)
    with pytest.raises(DomainError):
        DampingField(SPEC, amplitude=1.0, radius=4.0, center=np.array([8.0, 0.0]))


@pytest.mark.parametrize("amplitude", [np.inf, np.nan])
def test_damping_refuses_a_nonfinite_amplitude(amplitude):
    with pytest.raises(DomainError, match="amplitude"):
        DampingField(SPEC, amplitude=amplitude, radius=3.0)


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.inf, np.nan])
def test_damping_refuses_a_bad_ball_radius(radius):
    with pytest.raises(DomainError, match="radius"):
        DampingField(SPEC, amplitude=1.0, radius=radius)
    with pytest.raises(DomainError, match="radius"):
        DampingField(SPEC, amplitude=0.0, radius=radius)
    with pytest.raises(DomainError, match="radius"):
        build_preset("identity", SPEC, {"damping_radius": radius})
