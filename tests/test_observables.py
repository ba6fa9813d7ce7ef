import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dnls.errors import DomainError, SamplingError, SeriesAlignmentError
from dnls.geometry import DampingField, build_preset, cutoff_field
from dnls.grid import (
    Field,
    GridSpec,
    gradient,
    sobolev_norm,
    weight_tables,
)
from dnls.observables import (
    Frame,
    Monitor,
    ObservableSeries,
    bilinear_interaction,
    energy,
    energy_lambda_bound_check,
    energy_law_residual,
    energy_law_residual_flux_form,
    interaction_inequality_check,
    l4_accumulator,
    lambda_accumulator,
    local_sobolev_decay,
    mass,
    mass_law_residual,
    morawetz_rate_residual,
    morawetz_rate_rhs,
    morawetz_virial,
    run_reports,
    smooth_random_field,
    standard_monitors,
)
from dnls.solver import SimulationState, SolverConfig, simulate, stability_probe

from conftest import (
    band_limited_random,
    gaussian_field,
    local_integrals,
    local_monitors,
    logged_transforms,
)
from reference import (
    bilinear_interaction_full_spectrum,
    grad_rho,
    hess_chi,
    homogeneous_sobolev_norm,
)

SPEC = GridSpec(2, 64, 10.0)
TABLES = weight_tables(SPEC)


def _run(preset="identity", params=None, dt=0.005, duration=1.0, amplitude=0.5,
         spec=SPEC, tables=None, record_every=1, **solver_kw):
    tables = tables if tables is not None else weight_tables(spec)
    metric, damping = build_preset(preset, spec, params or {"damping_radius": 4.0})
    u0 = gaussian_field(spec, amplitude=amplitude, width=1.0)
    cfg = SolverConfig(dt=dt, duration=duration, **solver_kw)
    mons = standard_monitors(metric, damping, tables, record_every=record_every,
                             local_radius=2.0, nonlinearity=cfg.nonlinearity)
    return simulate(u0, metric, damping, cfg, monitors=mons), metric, damping


# -- series container -------------------------------------------------------------


def test_series_rejects_non_monotone_and_non_finite():
    with pytest.raises(SeriesAlignmentError):
        ObservableSeries("x", [0.0, 0.5, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(SeriesAlignmentError):
        ObservableSeries("x", [0.0, 0.5, 0.2], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        ObservableSeries("x", [0.0, 0.5, 1.0], [1.0, 2.0, np.nan])
    # a backward probe records decreasing stamps
    s = ObservableSeries("x", [0.0, -0.5, -1.0], [1.0, 2.0, 3.0])
    assert np.array_equal(s.times, [0.0, -0.5, -1.0])
    assert len(ObservableSeries("x")) == 0


def test_monitor_cadence_must_be_positive():
    with pytest.raises(DomainError, match="every"):
        Monitor("mass", lambda state, frame: 0.0, 0)


def test_series_cumulative_trapezoid():
    s = ObservableSeries("x", [0.0, 1.0, 2.0], [1.0, 1.0, 3.0])
    assert np.allclose(s.cumulative_trapezoid(), [0.0, 1.0, 3.0])


def test_residual_rejects_misaligned_series():
    a = ObservableSeries("a", [0.0, 1.0], [1.0, 1.0])
    b = ObservableSeries("b", [0.0, 2.0], [1.0, 1.0])
    with pytest.raises(SeriesAlignmentError):
        mass_law_residual(a, b)


# -- basic functionals ---------------------------------------------------------------


def test_mass_of_plane_wave_is_box_volume():
    f = Field(np.exp(1j * np.pi / 10.0 * np.broadcast_to(SPEC.coords[0], SPEC.shape)),
              SPEC)
    assert mass(Frame(f)) == pytest.approx(20.0**2, rel=1e-13)
    assert mass(Frame(Field(np.zeros(SPEC.shape, dtype=complex), SPEC))) == 0.0


def test_mass_of_3d_gaussian():
    spec = GridSpec(3, 64, 10.0)
    f = gaussian_field(spec, amplitude=1.0, width=1.0)  # int e^{-r^2} = pi^{3/2}
    assert mass(Frame(f)) == pytest.approx(np.pi**1.5, rel=1e-8)


def test_energy_single_mode_closed_form():
    metric, _ = build_preset("identity", SPEC)
    eps, m = 0.3, 2
    k = m * np.pi / 10.0
    f = Field(eps * np.exp(1j * k * np.broadcast_to(SPEC.coords[0], SPEC.shape)), SPEC)
    vol = 20.0**2
    expected = 0.5 * eps**2 * k**2 * vol + 0.25 * eps**4 * vol
    assert energy(Frame(f), metric) == pytest.approx(expected, rel=1e-12)


def test_energy_of_real_constant_is_quartic_only():
    metric, _ = build_preset("conformal_bump", SPEC)
    c = 0.7
    f = Field(np.full(SPEC.shape, c, dtype=complex), SPEC)
    assert energy(Frame(f), metric) == pytest.approx(0.25 * c**4 * 20.0**2, rel=1e-12)


def test_energy_gaussian_matches_dense_quadrature_1d():
    spec = GridSpec(1, 256, 15.0)
    metric, _ = build_preset("identity", spec, {"damping_radius": 3.0})
    f = Field(np.exp(-spec.x1d**2 / 2.0).astype(complex), spec)
    kinetic, _ = quad(lambda x: 0.5 * x**2 * np.exp(-(x**2)), -14, 14)
    quartic, _ = quad(lambda x: 0.25 * np.exp(-2 * x**2), -14, 14)
    assert energy(Frame(f), metric) == pytest.approx(kinetic + quartic, rel=1e-8)


# -- virial -----------------------------------------------------------------------


def test_virial_vanishes_for_real_fields():
    f = gaussian_field(SPEC, amplitude=1.0)
    assert abs(morawetz_virial(Frame(f), TABLES)) < 1e-14


def test_virial_of_plane_wave_suppressed_by_parity():
    # integrand is k d(chi)/dx1, odd in x1: exact cancellation except the
    # unpaired x1 = -L plane of the half-open grid, an O(1/n) defect
    k = 2 * np.pi / 10.0
    f = Field(np.exp(1j * k * np.broadcast_to(SPEC.coords[0], SPEC.shape)), SPEC)
    got = morawetz_virial(Frame(f), TABLES)
    exact_discrete = k * float(SPEC.quadrature(TABLES.grad_chi[0]).real)
    assert got == pytest.approx(exact_discrete, rel=1e-10)
    no_cancellation = k * float(SPEC.quadrature(np.abs(TABLES.grad_chi[0])).real)
    assert abs(got) < (4.0 / SPEC.n) * no_cancellation


def test_virial_of_boosted_packet_matches_dense_quadrature():
    # u = e^{ikx} g(x), g real: Im(conj u grad u) = k g^2, so
    # V = k int g(x)^2 dchi/dx ... with chi = sqrt(1+x^2+y^2) in 2d, oracle by
    # separable dense quadrature.
    k = 1.0
    f = gaussian_field(SPEC, amplitude=1.0, width=1.0, momentum=k)
    got = morawetz_virial(Frame(f), TABLES)

    def integrand_x(x, y):
        return np.exp(-(x**2 + y**2)) * k * x / np.sqrt(1 + x**2 + y**2)

    xs = np.linspace(-10, 10, 2001)
    ys = np.linspace(-10, 10, 2001)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    oracle = np.trapezoid(np.trapezoid(integrand_x(X, Y), ys, axis=1), xs)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_virial_cauchy_schwarz_bound_along_run():
    res, metric, damping = _run(duration=0.5, amplitude=0.6)
    grad_chi_max = np.max(np.sqrt(sum(TABLES.grad_chi[j] ** 2 for j in range(2))))
    M = res.series["mass"].values
    E = res.series["energy"].values
    V = res.series["virial"].values
    assert np.all(np.abs(V) <= np.sqrt(M) * np.sqrt(2 * E) * grad_chi_max + 1e-12)


# -- law residuals -----------------------------------------------------------------


def test_mass_law_residual_undamped_is_drift():
    res, *_ = _run(params={"damping_amplitude": 0.0, "damping_radius": 4.0},
                   duration=0.5)
    r = mass_law_residual(res.series["mass"], res.series["damping_mass"])
    assert np.max(np.abs(r.values)) < 1e-8 * res.series["mass"].values[0]


def test_mass_law_residual_order_two_convergence():
    maxima = []
    for dt in (0.01, 0.005):
        res, *_ = _run(dt=dt, duration=1.0)
        r = mass_law_residual(res.series["mass"], res.series["damping_mass"])
        maxima.append(np.max(np.abs(r.values)))
    assert maxima[0] / maxima[1] >= 3.5


def test_energy_law_residual_order_two_and_two_form_agreement():
    maxima = []
    for dt in (0.01, 0.005):
        res, *_ = _run(dt=dt, duration=1.0)
        r = energy_law_residual(res.series["energy"], res.series["damping_energy"],
                                res.series["mass_lapGa"])
        r_alt = energy_law_residual_flux_form(
            res.series["energy"], res.series["damping_energy"],
            res.series["energy_flux_alt"])
        assert np.max(np.abs(r.values - r_alt.values)) < 1e-9
        maxima.append(np.max(np.abs(r.values)))
    assert maxima[0] / maxima[1] >= 3.5


def test_single_step_mass_residual_third_order_locally():
    # one step with the exact substep: local defect O(dt^3)
    maxima = []
    for dt in (0.02, 0.01):
        res, *_ = _run(dt=dt, duration=dt)
        r = mass_law_residual(res.series["mass"], res.series["damping_mass"])
        maxima.append(np.max(np.abs(r.values)))
    assert maxima[0] / maxima[1] >= 6.0  # ~8x for a third-order local defect


# -- Morawetz rate ---------------------------------------------------------------------


def test_morawetz_residual_zero_field():
    z = ObservableSeries("virial", [0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
    rhs = ObservableSeries("virial_rhs", [0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
    rep = morawetz_rate_residual(z, rhs)
    assert np.all(rep.residual.values == 0.0)


def test_morawetz_residual_free_gaussian_refines():
    maxima = {}
    for dt in (0.01, 0.005):
        res, *_ = _run(params={"damping_amplitude": 0.0, "damping_radius": 4.0},
                       dt=dt, duration=0.4, amplitude=0.4)
        rep = morawetz_rate_residual(res.series["virial"], res.series["virial_rhs"])
        maxima[dt] = np.max(np.abs(rep.residual.values))
    assert maxima[0.01] < 1e-4
    assert maxima[0.01] / maxima[0.005] >= 3.5


def test_morawetz_residual_reports_fitted_constant_for_perturbed_metric():
    res, *_ = _run(
        preset="conformal_bump",
        params={"metric_amplitude": -0.4, "metric_radius": 2.0, "damping_radius": 4.0},
        dt=0.005, duration=0.5, amplitude=0.4,
    )
    rep = morawetz_rate_residual(res.series["virial"], res.series["virial_rhs"],
                                 res.series["morawetz_proxy"])
    assert rep.fitted_constant is not None
    assert rep.fitted_constant >= 0.0


def test_morawetz_residual_refuses_sparse_sampling():
    v = ObservableSeries("virial", [0.0, 1.0], [0.0, 1.0])
    rhs = ObservableSeries("virial_rhs", [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(SamplingError):
        morawetz_rate_residual(v, rhs)


def _rate_rhs_by_tables(u, tables, damping, nonlinearity):
    """The virial rate right-hand side with its Hessian term contracted
    against the d x d table of D^2 chi, entry by entry."""
    spec = u.spec
    grads = gradient(u)
    hess = hess_chi(spec, tables.chi)
    density = np.zeros(spec.shape)
    for i in range(spec.dim):
        for j in range(spec.dim):
            density += 2.0 * hess[i, j] * (
                np.conj(grads[i].values) * grads[j].values
            ).real
    mod2 = np.abs(u.values) ** 2
    density -= 0.5 * tables.bilap_chi * mod2
    if nonlinearity:
        density += 0.5 * tables.lap_chi * mod2**2
    for j in range(spec.dim):
        momentum = (np.conj(u.values) * grads[j].values).imag
        density -= 2.0 * damping.table * momentum * tables.grad_chi[j]
    return float(spec.quadrature(density).real)


_RATE_GRIDS = {2: GridSpec(2, 32, 8.0), 3: GridSpec(3, 16, 8.0)}
_RATE_TABLES = {d: weight_tables(spec) for d, spec in _RATE_GRIDS.items()}


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    k_scale=st.floats(0.5, 3.0),
    amplitude=st.floats(0.1, 10.0),
    nonlinearity=st.booleans(),
)
def test_virial_rate_hessian_closed_form_matches_the_table(
        dim, seed, k_scale, amplitude, nonlinearity):
    # sum_ij 2 D^2chi_ij Re(conj g_i g_j) = 2/chi (|g|^2 - |grad chi . g|^2)
    spec = _RATE_GRIDS[dim]
    tables = _RATE_TABLES[dim]
    damping = DampingField(spec, amplitude=1.0, radius=3.0)
    u = band_limited_random(spec, seed=seed, k_scale=k_scale)
    u = Field(amplitude * u.values, spec)
    got = morawetz_rate_rhs(Frame(u), tables, damping, nonlinearity)
    want = _rate_rhs_by_tables(u, tables, damping, nonlinearity)
    assert abs(got - want) <= 1e-13 * abs(want)


# -- lambda accumulator and the energy bound ----------------------------------------


def test_lambda_zero_field():
    z = ObservableSeries("lambda_density", [0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    lam = lambda_accumulator(z)
    assert np.all(lam.values == 0.0)


def test_lambda_linear_growth_for_frozen_field():
    u0 = gaussian_field(SPEC, amplitude=0.8)
    density = float(
        SPEC.quadrature(TABLES.lambda_kernel * np.abs(u0.values) ** 2).real
    )
    times = np.linspace(0.0, 2.0, 21)
    series = ObservableSeries("lambda_density", times, np.full(21, density))
    lam = lambda_accumulator(series)
    assert np.allclose(lam.values, density * times, rtol=1e-12)
    # 15/chi^7 kernel is the 3d closed form; check against it in 3d
    spec3 = GridSpec(3, 16, 6.0)
    t3 = weight_tables(spec3)
    assert np.allclose(t3.lambda_kernel, -t3.bilap_chi, rtol=1e-12)


def test_lambda_monotone_on_damped_run():
    res, *_ = _run(duration=1.0)
    lam = lambda_accumulator(res.series["lambda_density"])
    assert np.all(np.diff(lam.values) >= 0.0)


def test_energy_lambda_bound_on_damped_run():
    res, metric, damping = _run(duration=1.0)
    lam = lambda_accumulator(res.series["lambda_density"])
    rep = energy_lambda_bound_check(res.series["energy"], lam, metric, damping,
                                    TABLES)
    assert rep.passed
    assert rep.constant > 0.0
    assert rep.worst_margin >= 0.0


def test_energy_lambda_bound_undamped_reduces_to_conservation():
    res, metric, damping = _run(params={"damping_amplitude": 0.0,
                                        "damping_radius": 4.0}, duration=0.5)
    lam = lambda_accumulator(res.series["lambda_density"])
    rep = energy_lambda_bound_check(res.series["energy"], lam, metric, damping,
                                    TABLES)
    assert rep.constant == 0.0
    assert rep.passed


@pytest.mark.parametrize("preset", ["conformal_bump", "anisotropic_bump"])
def test_energy_lambda_bound_constant_is_the_max_over_supp_a(preset):
    # the 48^3 damped runs of the benchmark: off supp a, div(G grad a) is
    # spectral ringing that peaks at the box edge, where 15/chi^7 is
    # smallest, and read 3795 over the whole grid
    spec = GridSpec(3, 48, 12.0)
    tables = weight_tables(spec)
    metric, damping = build_preset(preset, spec, {
        "metric_amplitude": -0.95, "metric_radius": 2.0, "damping_radius": 4.0})
    times = np.linspace(0.0, 1.0, 3)
    series = ObservableSeries("energy", times, np.ones(3))
    rep = energy_lambda_bound_check(series, series, metric, damping, tables)
    ratio = 0.5 * np.abs(damping.div_G_grad(metric)) / tables.lambda_kernel
    assert rep.constant == ratio[damping.table > 0.0].max()
    assert rep.constant == pytest.approx(347.79, rel=1e-4)
    assert ratio.max() > 10.0 * rep.constant


def test_energy_lambda_bound_negative_control():
    # a synthetic run where E grows exactly like C0 * lambda: halving the
    # constant must fail the check
    times = np.linspace(0.0, 1.0, 11)
    lam = ObservableSeries("lambda", times, times.copy())
    e = ObservableSeries("energy", times, 1.0 + 2.0 * times)
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    ok = energy_lambda_bound_check(e, lam, metric, damping, TABLES, constant=2.0)
    assert ok.passed
    bad = energy_lambda_bound_check(e, lam, metric, damping, TABLES, constant=1.0)
    assert not bad.passed
    assert bad.worst_margin < 0.0


def test_energy_lambda_bound_reports_the_margin_after_the_first_stamp():
    # E grows at 0.25 C0 lambda: the margin at t = 0 is tol by construction,
    # so the worst margin and the used fraction are read after it
    times = np.linspace(0.0, 1.0, 11)
    lam = ObservableSeries("lambda", times, times.copy())
    e = ObservableSeries("energy", times, 1.0 + 0.5 * times)
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    rep = energy_lambda_bound_check(e, lam, metric, damping, TABLES, constant=2.0)
    assert rep.passed
    assert rep.worst_time == pytest.approx(0.1)
    assert rep.worst_margin == pytest.approx(0.15 + 1e-9)
    assert rep.used_fraction == pytest.approx(0.25)
    # raising E past the allowance at one stamp fails the check there
    raised = e.values.copy()
    raised[6] = 1.0 + 2.0 * times[6] + 1e-6
    bad = energy_lambda_bound_check(ObservableSeries("energy", times, raised),
                                    lam, metric, damping, TABLES, constant=2.0)
    assert not bad.passed
    assert bad.worst_time == pytest.approx(0.6)
    assert bad.worst_margin < 0.0 and bad.used_fraction > 1.0
    # no allowance after t = 0: no fraction to report
    flat = energy_lambda_bound_check(e, lam, metric, damping, TABLES, constant=0.0)
    assert flat.used_fraction is None and not flat.passed


# -- local norms ------------------------------------------------------------------------


def test_local_energy_zero_field():
    zero = Field(np.zeros(SPEC.shape, dtype=complex), SPEC)
    assert local_integrals(zero, 2.0)["local_energy"] == 0.0


def test_local_energy_decays_as_packet_exits_ball():
    # boosted packet leaves B(0, R): local energy drops below 1% of initial
    spec = GridSpec(2, 128, 16.0)
    metric, damping = build_preset("identity", spec, {"damping_amplitude": 0.0})
    u0 = gaussian_field(spec, amplitude=0.3, width=1.0, momentum=2.0)
    R = 2.0
    cfg = SolverConfig(dt=0.01, duration=2.0)  # group speed 2k = 4
    mons = [local_monitors(spec, R)["local_energy"]]
    res = simulate(u0, metric, damping, cfg, monitors=mons)
    series = res.series["local_energy"].values
    assert series[-1] < 0.01 * series[0]


def test_local_sobolev_decay_validation_and_l2_case():
    u = gaussian_field(SPEC, amplitude=0.5)
    chi = cutoff_field(SPEC, 3.0, 6.0)
    with pytest.raises(DomainError):
        local_sobolev_decay(Frame(u), chi, 1.0)
    got = local_sobolev_decay(Frame(u), chi, 0.0)
    assert got == pytest.approx(
        np.sqrt(SPEC.quadrature(np.abs(chi * u.values) ** 2).real), rel=1e-12
    )


def test_interpolation_bound_homogeneous_half_norm():
    # ||chi u||_{H^{1/2}hom}^2 <= ||grad(chi u)|| * ||chi u|| by Plancherel
    chi = cutoff_field(SPEC, 3.0, 6.0)
    for seed in range(5):
        u = band_limited_random(SPEC, seed=seed)
        w = Field(chi * u.values, SPEC)
        half = homogeneous_sobolev_norm(w, 0.5)
        grad_norm = np.sqrt(sum(g.l2_norm() ** 2 for g in gradient(w)))
        assert half**2 <= grad_norm * w.l2_norm() + 1e-10


# -- quartic accumulator ---------------------------------------------------------------


def test_l4_accumulator_zero_field():
    z = ObservableSeries("l4", [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    rep = l4_accumulator(z)
    assert rep.bounded
    assert rep.tail_fraction == 0.0


def test_l4_decay_matches_free_gaussian_closed_form():
    # int |u|^4 = A^4 (pi/2)^{d/2} sigma^{3d} / |sigma^2 + 2it|^d for the free
    # flow; the ~t^{-3} decay drives the accumulator's convergence
    spec = GridSpec(3, 48, 8.0)
    metric, damping = build_preset("identity", spec, {"damping_amplitude": 0.0,
                                                      "damping_radius": 3.0})
    A, sigma = 0.3, 1.25
    u0 = gaussian_field(spec, amplitude=A, width=sigma)
    cfg = SolverConfig(dt=0.01, duration=1.0, nonlinearity=False)
    from dnls.observables import Monitor

    mons = [Monitor("l4", lambda s, c: float(
        spec.quadrature(np.abs(s.u.values) ** 4).real), 10)]
    res = simulate(u0, metric, damping, cfg, monitors=mons)
    series = res.series["l4"]
    for t, got in zip(series.times, series.values):
        expected = (
            A**4 * (np.pi / 2.0) ** 1.5 * sigma**9
            / (sigma**4 + 4.0 * t**2) ** 1.5
        )
        assert got == pytest.approx(expected, rel=1e-6)
    # closed form predicts (sigma^4/(sigma^4+4))^{3/2} ~ 0.23 at T=1
    assert series.values[-1] < 0.3 * series.values[0]


# -- bilinear interaction ----------------------------------------------------------------


def test_bilinear_vanishes_for_real_field():
    spec = GridSpec(3, 16, 6.0)
    tables = weight_tables(spec)
    u = gaussian_field(spec, amplitude=1.0)
    # Im(conj u grad u) is pure rounding noise for real data
    scale = mass(Frame(u)) ** 2
    assert abs(bilinear_interaction(Frame(u), tables)) < 1e-8 * scale


def test_bilinear_plane_wave_reduces_to_kernel_mean():
    # constant density: B = k * (int grad_rho_1) * vol exactly; the kernel
    # integral itself is the O(1/n) parity defect of the half-open grid
    spec = GridSpec(3, 16, 6.0)
    tables = weight_tables(spec)
    k = np.pi / 6.0
    u = Field(np.exp(1j * k * np.broadcast_to(spec.coords[0], spec.shape)), spec)
    got = bilinear_interaction(Frame(u), tables)
    component = grad_rho(spec)[0]
    kernel_mean = float(spec.quadrature(component).real)
    assert got == pytest.approx(k * kernel_mean * spec.volume, rel=1e-10)
    no_cancellation = float(spec.quadrature(np.abs(component)).real)
    assert abs(kernel_mean) < (4.0 / spec.n) * no_cancellation


def test_bilinear_matches_direct_double_sum_oracle():
    spec = GridSpec(3, 16, 6.0)
    tables = weight_tables(spec)
    u = band_limited_random(spec, seed=11)
    got = bilinear_interaction(Frame(u), tables)
    grads = gradient(u)
    momentum = [(np.conj(u.values) * g.values).imag for g in grads]
    mod2 = np.abs(u.values) ** 2
    n = spec.n
    oracle = 0.0
    table = grad_rho(spec)
    for j in range(3):
        kernel = np.fft.ifftshift(table[j])
        conv = np.zeros(spec.shape)
        for ix in range(n):
            for iy in range(n):
                for iz in range(n):
                    w = mod2[ix, iy, iz]
                    conv += w * np.roll(kernel, (ix, iy, iz), axis=(0, 1, 2))
        conv *= spec.dx**3
        oracle += float(spec.quadrature(momentum[j] * conv).real)
    assert got == pytest.approx(oracle, rel=1e-6)


_INTERACTION_GRIDS = {2: GridSpec(2, 32, 8.0), 3: GridSpec(3, 16, 8.0)}
_INTERACTION_TABLES = {d: weight_tables(spec) for d, spec in _INTERACTION_GRIDS.items()}


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    k_scale=st.floats(0.5, 3.0),
    amplitude=st.floats(0.1, 10.0),
)
def test_half_spectrum_interaction_matches_the_full_spectrum(
        dim, seed, k_scale, amplitude):
    # the same circular convolution on rfft half spectra and on complex
    # spectra. B cancels: for nearly real fields it is as small as 2e-4 of
    # the sum of its absolute contributions, so the rounding of either path
    # is measured against that sum, which bounds |B|
    spec = _INTERACTION_GRIDS[dim]
    tables = _INTERACTION_TABLES[dim]
    u = band_limited_random(spec, seed=seed, k_scale=k_scale)
    u = Field(amplitude * u.values, spec)
    got = bilinear_interaction(Frame(u), tables)
    want = bilinear_interaction_full_spectrum(u)
    frame = Frame(u)
    terms = sum(
        float(np.abs(m * spec.irfft(kernel * frame.mod2_hat)).sum())
        for m, kernel in zip(frame.momentum, tables.grad_rho_hat)
    ) * spec.dx**dim
    assert abs(want) <= terms
    assert abs(got - want) <= 1e-13 * terms


def test_interaction_kernels_are_the_half_spectra_of_the_table():
    # built one component at a time on the shifted grid, without the table
    for spec in _INTERACTION_GRIDS.values():
        tables = weight_tables(spec)
        scale = spec.size * spec.dx**spec.dim
        for kernel, component in zip(tables.grad_rho_hat, grad_rho(spec)):
            full = spec.fft(np.fft.ifftshift(component)) * scale
            assert kernel.shape == spec.shape[:-1] + (spec.n // 2 + 1,)
            assert np.allclose(kernel, full[..., : spec.n // 2 + 1],
                               rtol=0.0, atol=1e-13 * np.abs(full).max())


def test_interaction_inequality_zero_field():
    times = [0.0, 0.5, 1.0]
    zeros = [0.0, 0.0, 0.0]
    rep = interaction_inequality_check(
        ObservableSeries("l4", times, zeros),
        ObservableSeries("interaction", times, zeros),
        ObservableSeries("h1_sq", times, zeros),
        ObservableSeries("supp_a_h1", times, zeros),
    )
    assert rep.passed


def test_interaction_inequality_damped_perturbed_run():
    spec = GridSpec(3, 32, 10.0)
    tables = weight_tables(spec)
    metric, damping = build_preset(
        "conformal_bump", spec,
        {"metric_amplitude": -0.5, "metric_radius": 2.0, "damping_radius": 4.0},
    )
    u0 = gaussian_field(spec, amplitude=0.6, width=1.0)
    mons = standard_monitors(metric, damping, tables, record_every=2,
                             interaction_every=10)
    res = simulate(u0, metric, damping,
                   SolverConfig(dt=0.01, duration=1.0, inner_perturbation_steps=1),
                   monitors=mons)
    rep = interaction_inequality_check(
        res.series["l4"], res.series["interaction"], res.series["h1_sq"],
        res.series["supp_a_h1"])
    assert rep.passed
    assert np.isfinite(rep.fitted_constant) and rep.fitted_constant >= 0.0


def test_interaction_inequality_free_run():
    spec = GridSpec(3, 32, 10.0)
    tables = weight_tables(spec)
    metric, damping = build_preset("identity", spec, {"damping_amplitude": 0.0})
    u0 = gaussian_field(spec, amplitude=0.8, width=1.0)
    mons = standard_monitors(metric, damping, tables, record_every=1,
                             interaction_every=20)
    res = simulate(u0, metric, damping, SolverConfig(dt=0.005, duration=1.0),
                   monitors=mons)
    rep = interaction_inequality_check(
        res.series["l4"], res.series["interaction"], res.series["h1_sq"],
        res.series["supp_a_h1"])
    assert rep.passed
    B = res.series["interaction"].values
    l4_total = res.series["l4"].cumulative_trapezoid()[-1]
    assert B[-1] - B[0] >= 4.0 * np.pi * l4_total - 1e-6


# -- stability probe ------------------------------------------------------------------------


def test_stability_probe_zero_delta():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.3)
    rep = stability_probe(u0, 0.0, metric, damping,
                          SolverConfig(dt=0.02, duration=0.2))
    assert rep.sup_difference == 0.0


def test_stability_probe_linear_scaling():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.3)
    cfg = SolverConfig(dt=0.01, duration=1.0)
    reps = [stability_probe(u0, d, metric, damping, cfg, seed=3)
            for d in (1e-3, 5e-4)]
    ratio = reps[0].sup_difference / reps[1].sup_difference
    assert 1.5 <= ratio <= 2.5
    assert reps[0].amplification == pytest.approx(
        reps[0].sup_difference / 1e-3)


def test_smooth_random_field_is_unit_norm_and_in_band():
    f = smooth_random_field(SPEC, seed=9)
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)
    coeffs = SPEC.fft(f.values)
    assert np.max(np.abs(coeffs[~SPEC.dealias_mask])) < 1e-15


def test_h1_sq_monitor_reuses_the_record_gradients(monkeypatch):
    spec = GridSpec(2, 64, 8.0)
    metric, damping = build_preset("conformal_bump", spec)
    monitors = {mon.name: mon for mon in standard_monitors(
        metric, damping, weight_tables(spec))}
    u = band_limited_random(spec, seed=3)
    state = SimulationState(u, 0.0, 0)
    frame = Frame(u)
    monitors["energy"].fn(state, frame)  # computes the record's gradients
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(GridSpec, name)

        def counted(self, values, _original=original):
            calls.append(name)
            return _original(self, values)

        monkeypatch.setattr(GridSpec, name, counted)
    value = monitors["h1_sq"].fn(state, frame)
    assert calls == []
    monkeypatch.undo()
    # Parseval: the gradients' quadrature equals the Fourier-multiplier norm
    assert value == pytest.approx(sobolev_norm(u, 1.0) ** 2, rel=1e-13)


def test_records_build_each_sobolev_weight_row_once():
    import dnls.grid

    weights = dnls.grid.sobolev_weights
    weights.cache_clear()
    spec = GridSpec(2, 32, 8.0)
    metric, damping = build_preset("identity", spec, {"damping_radius": 3.0})
    monitors = standard_monitors(metric, damping, weight_tables(spec),
                                 cutoff=cutoff_field(spec, 4.5, 6.5),
                                 cutoff_exponents=(0.0, 0.5))
    res = simulate(gaussian_field(spec, momentum=1.0), metric, damping,
                   SolverConfig(dt=0.01, duration=0.05), monitors=monitors)
    assert len(res.series["cutoff_hs_0.5"]) == 6
    # one row per exponent, built at the first record and read at the others
    assert (weights.cache_info().misses, weights.cache_info().hits) == (2, 10)
    weights(spec, (0.0,)), weights(spec, (0.5,))
    assert weights.cache_info().misses == 2
    # keyed on the grid and the exponents, not on arrays: an equal grid built
    # anew, another field and another cutoff array reuse the rows
    other = GridSpec(2, 32, 8.0)
    local_sobolev_decay(Frame(band_limited_random(other, seed=4)),
                        cutoff_field(other, 4.0, 7.0), 0.5)
    assert weights.cache_info().misses == 2
    # another exponent set or grid builds its own rows, in a bounded cache
    sobolev_norm(band_limited_random(other, seed=4), 0.25)
    sobolev_norm(band_limited_random(GridSpec(2, 16, 8.0), seed=4), 0.5)
    assert weights.cache_info().misses == 4
    weights(other, (0.25,)), weights(GridSpec(2, 16, 8.0), (0.5,))
    assert weights.cache_info().misses == 4
    assert weights.cache_info().maxsize == 8
    assert not weights(spec, (0.5,)).flags.writeable


def _record_peaks_3d():
    """Peak traced allocation of the first (cold tables) and a later record
    of the full bundle at 24^3, conformal, in units of one real field."""
    import dnls.grid

    dnls.grid.sobolev_weights.cache_clear()
    spec = GridSpec(3, 24, 8.0)
    metric, damping = build_preset("conformal_bump", spec)
    tables = weight_tables(spec)
    monitors = standard_monitors(metric, damping, tables, local_radius=2.5,
                                 cutoff=cutoff_field(spec, 4.5, 6.5))
    u = smooth_random_field(spec, seed=1)
    state = SimulationState(u, 0.0, 0)
    unit = spec.size * 8
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            frame = Frame(u)
            for mon in monitors:
                mon.fn(state, frame)
            del frame
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / unit)
    finally:
        tracemalloc.stop()
    return peaks


def test_full_record_peak_allocation_3d():
    # the peak of the 48^3 runs sits in a record. With the complex-spectrum
    # interaction kernels, u_hat kept in the frame and complex products for
    # the monitors, these read 32.3 (first record) and 26.2 (later records)
    # real fields; the half-spectrum kernels, the real-arithmetic densities
    # and the in-place commutator brought them to 26.4 and 21.1, and
    # recording no commutator to 24.4 and 20.1
    cold, warm = _record_peaks_3d()
    assert cold <= 25.0
    assert warm <= 21.0


def _transforms_per_record(monkeypatch, dim, n, interaction_every):
    """The transforms each record of a run makes inside its monitors, by
    step: {step: (full complex, one-axis complex, full real)}, with the
    one-axis ones as (name, axis, lines)."""
    spec = GridSpec(dim, n, 8.0)
    metric, damping = build_preset("conformal_bump", spec)
    tables = weight_tables(spec)
    monitors = standard_monitors(metric, damping, tables,
                                 interaction_every=interaction_every,
                                 local_radius=2.5,
                                 cutoff=cutoff_field(spec, 4.5, 6.5))
    tables.grad_rho_hat  # the kernel transforms, taken once per set of tables
    log = logged_transforms(monkeypatch)
    per_record = {}
    for mon in monitors:
        def fn(state, frame, _fn=mon.fn):
            before = len(log)
            value = _fn(state, frame)
            full, axes, real = per_record.setdefault(state.step, (0, [], 0))
            for name, axis, lines, _ in log[before:]:
                if name in ("fftn", "ifftn"):
                    full += 1
                elif name in ("fft", "ifft"):
                    axes.append((name, axis, lines))
                else:
                    assert name in ("rfftn", "irfftn")
                    real += 1
            per_record[state.step] = (full, axes, real)
            return value

        mon.fn = fn
    simulate(gaussian_field(spec, momentum=1.0), metric, damping,
             SolverConfig(dt=0.01, duration=0.02), monitors=monitors)
    monkeypatch.undo()
    return per_record


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_fft_count_per_record(monkeypatch, dim, n):
    # one frame per record. Full complex: one transform of cutoff*u for all
    # exponents. One-axis complex: the gradients, a forward and an inverse
    # transform of all n^(d-1) lines along each axis. Real, for the
    # interaction only: the half spectrum of |u|^2 (1) and its d
    # convolutions. A record without the interaction pays for none of the
    # real ones, so the frame is lazy
    axes = [(name, j, n ** (dim - 1)) for j in range(dim)
            for name in ("fft", "ifft")]
    per_record = _transforms_per_record(monkeypatch, dim, n, interaction_every=2)
    assert per_record == {0: (1, axes, 1 + dim), 1: (1, axes, 0),
                          2: (1, axes, 1 + dim)}


def test_damping_table_transformed_once_per_monitor_build(monkeypatch):
    # G grad a (the flux-form monitor) and div(G grad a) (the mass-term
    # monitor) come from one real transform of the damping table along each
    # axis, on the lines through its support box, and no n-d transform
    spec = GridSpec(2, 32, 8.0)
    metric, damping = build_preset("conformal_bump", spec)
    log = logged_transforms(monkeypatch)
    standard_monitors(metric, damping, weight_tables(spec))
    on_table = [(name, axis) for name, axis, _, x in log
                if np.shares_memory(x, damping.table)]
    assert on_table == [("rfft", 0), ("rfft", 1)]


# -- golden monitor values ----------------------------------------------------------
#
# Every monitor of the standard bundle (local radius and cutoff set) on a fixed
# field without symmetry: an off-center boosted packet plus band-limited noise.
# The values were recorded with the monitors that looped over the d x d table of
# G and kept their own copies of the virial and the local energy. A rewrite
# that keeps each functional may change rounding only.
# One exception: ``mass_lapGa`` of the 3-d conformal and anisotropic cases
# was re-pinned when div(G grad a) stopped feeding the inner gradient's
# imaginary Nyquist artifact into the flux. That changed the table only on
# the Nyquist planes, where this field's |u|^2 aliases (2.3e-5 and 1.9e-5
# relative).

GOLDEN_MONITOR_GRIDS = {2: 64, 3: 24}
GOLDEN_MONITOR_PRESETS = ("identity", "conformal_bump", "anisotropic_bump")


def _golden_monitor_values(preset, dim):
    spec = GridSpec(dim, GOLDEN_MONITOR_GRIDS[dim], 8.0)
    metric, damping = build_preset(preset, spec)
    center = np.array([0.7, -0.4, 0.3][:dim])
    momentum = np.array([1.0, 0.5, -0.3][:dim])
    shifted = [x - c for x, c in zip(spec.coords, center)]
    phase = sum(k * x for k, x in zip(momentum, spec.coords))
    packet = 0.6 * np.exp(-sum(x**2 for x in shifted) / (2.0 * 1.1**2)) \
        * np.exp(1j * phase)
    noise = band_limited_random(spec, seed=5 + dim).values
    u = Field(packet + 0.05 * noise / np.abs(noise).max(), spec)
    monitors = standard_monitors(metric, damping, weight_tables(spec),
                                 local_radius=2.5,
                                 cutoff=cutoff_field(spec, 4.5, 6.5))
    state = SimulationState(u, 0.0, 0)
    frame = Frame(u)
    return {mon.name: float(mon.fn(state, frame)) for mon in monitors}


GOLDEN_MONITORS = {
    "anisotropic_bump-2d": {
        "mass": 1.4420056418644345,
        "energy": 1.6568906121406959,
        "damping_mass": 1.1681144595336392,
        "damping_energy": 2.820256098747056,
        "mass_lapGa": -0.4104885479554824,
        "energy_flux_alt": 0.20524427397775752,
        "virial": 0.3505645493801439,
        "virial_rhs": 2.4692147930600705,
        "lambda_density": 3.2914464024069825,
        "l4": 0.25278005501386713,
        "h1_sq": 4.366558358247136,
        "supp_a_h1": 4.143121332992263,
        "interaction": 0.018050696249412017,
        "morawetz_proxy": 3.693390551259788,
        "local_energy": 3.944305475160964,
        "cutoff_hs_0": 1.169027657057693,
        "cutoff_hs_0.5": 1.5221476131776575,
    },
    "anisotropic_bump-3d": {
        "mass": 3.675078369565811,
        "energy": 4.6582414100845035,
        "damping_mass": 1.974703883741557,
        "damping_energy": 5.659670290966356,
        "mass_lapGa": -1.1245698484254514,
        "energy_flux_alt": 0.5626854353209567,
        "virial": 0.5075167822639032,
        "virial_rhs": 6.045052718412696,
        "lambda_density": 2.8186894197954038,
        "l4": 0.2773754782096671,
        "h1_sq": 12.48749200617563,
        "supp_a_h1": 9.096417348441602,
        "interaction": -0.34628398368873814,
        "morawetz_proxy": 6.31580564467793,
        "local_energy": 8.346310818845856,
        "cutoff_hs_0": 1.6053812740516096,
        "cutoff_hs_0.5": 2.1951384865464676,
    },
    "conformal_bump-2d": {
        "mass": 1.4420056418644345,
        "energy": 1.7115988357046885,
        "damping_mass": 1.1681144595336392,
        "damping_energy": 2.922757222463323,
        "mass_lapGa": -0.42461448347023484,
        "energy_flux_alt": 0.21230724173513366,
        "virial": 0.3505645493801439,
        "virial_rhs": 2.4692147930600705,
        "lambda_density": 3.2914464024069825,
        "l4": 0.25278005501386713,
        "h1_sq": 4.366558358247136,
        "supp_a_h1": 4.143121332992263,
        "interaction": 0.018050696249412017,
        "morawetz_proxy": 3.693390551259788,
        "local_energy": 3.944305475160964,
        "cutoff_hs_0": 1.169027657057693,
        "cutoff_hs_0.5": 1.5221476131776575,
    },
    "conformal_bump-3d": {
        "mass": 3.675078369565811,
        "energy": 4.773748011983351,
        "damping_mass": 1.974703883741557,
        "damping_energy": 5.8717965284011635,
        "mass_lapGa": -1.1579059070217121,
        "energy_flux_alt": 0.5793520982217628,
        "virial": 0.5075167822639032,
        "virial_rhs": 6.045052718412696,
        "lambda_density": 2.8186894197954038,
        "l4": 0.2773754782096671,
        "h1_sq": 12.48749200617563,
        "supp_a_h1": 9.096417348441602,
        "interaction": -0.34628398368873814,
        "morawetz_proxy": 6.31580564467793,
        "local_energy": 8.346310818845856,
        "cutoff_hs_0": 1.6053812740516096,
        "cutoff_hs_0.5": 2.1951384865464676,
    },
    "identity-2d": {
        "mass": 1.4420056418644345,
        "energy": 1.5254713719448176,
        "damping_mass": 1.1681144595336392,
        "damping_energy": 2.5716867123085128,
        "mass_lapGa": -0.40028349866024,
        "energy_flux_alt": 0.2001417493301397,
        "virial": 0.3505645493801439,
        "virial_rhs": 2.4692147930600705,
        "lambda_density": 3.2914464024069825,
        "l4": 0.25278005501386713,
        "h1_sq": 4.366558358247136,
        "supp_a_h1": 4.143121332992263,
        "interaction": 0.018050696249412017,
        "local_energy": 3.944305475160964,
        "cutoff_hs_0": 1.169027657057693,
        "cutoff_hs_0.5": 1.5221476131776575,
    },
    "identity-3d": {
        "mass": 3.675078369565811,
        "energy": 4.475550687857323,
        "damping_mass": 1.974703883741557,
        "damping_energy": 5.320392349617797,
        "mass_lapGa": -1.1146341257942292,
        "energy_flux_alt": 0.5577213367280554,
        "virial": 0.5075167822639032,
        "virial_rhs": 6.045052718412696,
        "lambda_density": 2.8186894197954038,
        "l4": 0.2773754782096671,
        "h1_sq": 12.48749200617563,
        "supp_a_h1": 9.096417348441602,
        "interaction": -0.34628398368873814,
        "local_energy": 8.346310818845856,
        "cutoff_hs_0": 1.6053812740516096,
        "cutoff_hs_0.5": 2.1951384865464676,
    },
}


@pytest.mark.parametrize("dim", sorted(GOLDEN_MONITOR_GRIDS))
@pytest.mark.parametrize("preset", GOLDEN_MONITOR_PRESETS)
def test_golden_monitor_values(preset, dim):
    got = _golden_monitor_values(preset, dim)
    gold = GOLDEN_MONITORS[f"{preset}-{dim}d"]
    assert sorted(got) == sorted(gold)
    for name, value in gold.items():
        assert abs(got[name] - value) <= 1e-12 * abs(value), name


# -- every recorded series has a reader ---------------------------------------------
#
# The reader of each series of the full bundle: ("reports", key) for the
# reports.json entry of run_reports that it feeds, or ("criterion", k) for
# the acceptance test of criterion k.

SERIES_READERS = {
    "mass": ("reports", "mass_law_max_residual"),
    "damping_mass": ("reports", "mass_law_max_residual"),
    "energy": ("reports", "energy_law_max_residual"),
    "damping_energy": ("reports", "energy_law_max_residual"),
    "mass_lapGa": ("reports", "energy_law_max_residual"),
    "energy_flux_alt": ("reports", "energy_law_two_form_gap"),
    "virial": ("reports", "morawetz_rate"),
    "virial_rhs": ("reports", "morawetz_rate"),
    "morawetz_proxy": ("reports", "morawetz_rate"),
    "lambda_density": ("reports", "energy_lambda_bound"),
    "l4": ("reports", "l4_tail"),
    "h1_sq": ("reports", "interaction_inequality"),
    "supp_a_h1": ("reports", "interaction_inequality"),
    "interaction": ("reports", "interaction_inequality"),
    "local_energy": ("criterion", 6),
    "cutoff_hs_0": ("criterion", 7),
    "cutoff_hs_0.5": ("criterion", 7),
}


def test_every_recorded_series_has_a_reader():
    # every option on: a non-identity metric, a local ball, a cutoff and the
    # default exponents. Each claim is checked on a run's series with the
    # claimed one left out: run_reports raises KeyError for it or its entry
    # changes, and the criterion's test raises KeyError for it
    import test_acceptance

    criteria = {6: test_acceptance.test_criterion_6_local_energy_decay_trend,
                7: test_acceptance.test_criterion_7_local_sobolev_decay}
    spec = GridSpec(2, 32, 8.0)
    metric, damping = build_preset("conformal_bump", spec)
    tables = weight_tables(spec)
    monitors = standard_monitors(metric, damping, tables, interaction_every=1,
                                 local_radius=2.5,
                                 cutoff=cutoff_field(spec, 4.5, 6.5))
    series = simulate(gaussian_field(spec, momentum=1.0), metric, damping,
                      SolverConfig(dt=0.01, duration=0.05),
                      monitors=monitors).series
    assert [name for name in series if name not in SERIES_READERS] == []
    assert sorted(series) == sorted(SERIES_READERS)
    full = run_reports(series, metric, damping, tables).payload
    for name, (kind, reader) in SERIES_READERS.items():
        without = {k: v for k, v in series.items() if k != name}
        if kind == "reports":
            try:
                payload = run_reports(without, metric, damping, tables).payload
            except KeyError as exc:
                assert exc.args == (name,)
            else:
                assert payload[reader] != full[reader], name
        else:
            with pytest.raises(KeyError) as exc:
                criteria[reader](SimpleNamespace(series=without))
            assert exc.value.args == (name,)
