import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dnls.errors import DomainError, GridMismatchError
from dnls.geometry import DampingField, MetricField, build_preset
from dnls.grid import (
    MAX_STEPS,
    Field,
    GridSpec,
    gradient,
    real_derivatives,
    rk4,
    abs2,
    sobolev_norm,
    sobolev_norms,
    sobolev_weights,
    step_count,
    support_box,
    weight_tables,
)

from conftest import (
    band_limited_random,
    gaussian_field,
    local_integrals,
    logged_transforms,
)
from reference import (
    band_flux,
    flux_divergence,
    flux_divergence_full,
    flux_divergence_table,
    grad_rho,
    gradient_full,
    hess_chi,
    homogeneous_sobolev_norm,
    homogeneous_sobolev_weights,
    laplacian_G,
    metric_table,
    real_derivatives_full,
)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_transform_roundtrip(dim, n):
    spec = GridSpec(dim, n, 7.0)
    f = band_limited_random(spec, seed=dim)
    back = spec.ifft(spec.fft(f.values))
    assert np.max(np.abs(back - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_quadrature_of_one_is_box_volume():
    spec = GridSpec(3, 16, 5.0)
    assert spec.quadrature(np.ones(spec.shape)) == pytest.approx(10.0**3, abs=0.0)
    assert spec.size == 16**3


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_squared_distance_is_the_mesh_distance(dim):
    spec = GridSpec(dim, 8, 3.0)
    center = (0.7, -1.2, 0.4)[:dim]
    mesh = np.meshgrid(*[spec.x1d] * dim, indexing="ij")
    want = sum((x - c) ** 2 for x, c in zip(mesh, center))
    assert np.array_equal(spec.squared_distance(center), want)
    assert np.array_equal(spec.radius_squared,
                          sum(x**2 for x in mesh) + np.zeros(spec.shape))


def test_grid_spec_rejects_bad_sizes():
    with pytest.raises(DomainError):
        GridSpec(4, 16, 5.0)
    with pytest.raises(DomainError):
        GridSpec(2, 15, 5.0)
    with pytest.raises(DomainError):
        GridSpec(2, 16, -1.0)


@pytest.mark.parametrize("n", [4, 6, 16, 48, 64])
def test_retained_modes_are_the_two_thirds_band(n):
    spec = GridSpec(2, n, 3.0)
    m = np.fft.fftfreq(n) * n
    assert np.array_equal(spec.retained(True), np.flatnonzero(np.abs(m) <= n // 3))
    assert np.array_equal(spec.retained(False), np.arange(n))
    keep = np.abs(m) <= n // 3
    assert np.array_equal(spec.dealias_mask, keep[:, None] & keep[None, :])


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 32, 48])
@pytest.mark.parametrize("dealias", [True, False])
def test_band_transforms_are_the_full_transforms_on_the_band(dim, n, dealias):
    # the pruned forward is fftn restricted to the retained modes, and the
    # pruned inverse is ifftn of the band zero-padded to the full grid
    spec = GridSpec(dim, n, 7.0)
    rng = np.random.default_rng(10 * dim + n)
    values = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    band = np.ix_(*[spec.retained(dealias)] * dim)
    nb = len(spec.retained(dealias))
    got = spec.band_fft(values, dealias)
    assert got.shape == (nb,) * dim
    assert _relative_error(got, spec.fft(values)[band]) <= 1e-15
    coeffs = rng.standard_normal(got.shape) + 1j * rng.standard_normal(got.shape)
    padded = np.zeros(spec.shape, dtype=complex)
    padded[band] = coeffs
    assert _relative_error(spec.band_ifft(coeffs, dealias), spec.ifft(padded)) <= 1e-15
    # neither writes into its argument
    kept = values.copy(), coeffs.copy()
    spec.band_ifft(coeffs, dealias)
    spec.band_fft(values, dealias)
    assert np.array_equal(values, kept[0]) and np.array_equal(coeffs, kept[1])


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_band_limit_is_the_masked_full_grid_projection(dim, n):
    spec = GridSpec(dim, n, 7.0)
    values = np.random.default_rng(dim).standard_normal(spec.shape) + 0.5j
    coeffs = spec.fft(values)
    coeffs[~spec.dealias_mask] = 0.0
    limited = spec.band_limit(values)
    assert _relative_error(limited, spec.ifft(coeffs)) <= 1e-15
    assert _relative_error(spec.band_limit(limited), limited) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), n=st.sampled_from([4, 6, 10, 16, 18, 24]),
       dealias=st.booleans(), seed=st.integers(0, 2**16))
def test_band_transforms_round_trip(dim, n, dealias, seed):
    spec = GridSpec(dim, n, 3.0)
    nb = len(spec.retained(dealias))
    rng = np.random.default_rng(seed)
    band = rng.standard_normal((nb,) * dim) + 1j * rng.standard_normal((nb,) * dim)
    back = spec.band_fft(spec.band_ifft(band, dealias), dealias)
    assert _relative_error(back, band) <= 1e-15


def test_field_shape_and_finiteness():
    spec = GridSpec(1, 16, 2.0)
    with pytest.raises(GridMismatchError):
        Field(np.zeros(8, dtype=complex), spec)
    bad = Field(np.full(spec.shape, np.nan, dtype=complex), spec)
    with pytest.raises(DomainError):
        bad.validate()


# -- gradient / divergence ----------------------------------------------------


def test_gradient_on_fourier_mode():
    spec = GridSpec(3, 16, 4.0)
    k = np.pi / 4.0
    f = Field(np.exp(1j * k * np.broadcast_to(spec.coords[0], spec.shape)), spec)
    g = gradient(f)
    assert np.max(np.abs(g[0].values - 1j * k * f.values)) < 1e-13
    assert np.max(np.abs(g[1].values)) < 1e-13
    assert np.max(np.abs(g[2].values)) < 1e-13


def test_gradient_of_constant_is_zero():
    spec = GridSpec(2, 32, 3.0)
    g = gradient(Field(np.ones(spec.shape, dtype=complex), spec))
    for comp in g:
        assert np.max(np.abs(comp.values)) < 1e-14


def test_gradient_cosine_closed_form_1d():
    spec = GridSpec(1, 64, 5.0)
    k1 = 3 * np.pi / 5.0  # mode m = 3
    x = spec.x1d
    f = Field(np.cos(k1 * x).astype(complex), spec)
    (g,) = gradient(f)
    assert np.max(np.abs(g.values - (-k1 * np.sin(k1 * x)))) < 1e-12


def _div_grad(f: Field, p=None, direction=None) -> np.ndarray:
    """div(p S grad f) by ``flux_divergence``, a ``FluxKernel`` on every mode."""
    spec = f.spec
    p = np.ones(spec.shape) if p is None else p
    return spec.ifft(flux_divergence(spec.fft(f.values), spec, p, direction))


def test_divergence_of_gradient_is_mode_laplacian():
    spec = GridSpec(2, 32, 4.0)
    kx, ky = np.pi / 4.0 * 2, np.pi / 4.0 * 3
    phase = kx * np.broadcast_to(spec.coords[0], spec.shape) + ky * np.broadcast_to(
        spec.coords[1], spec.shape
    )
    f = Field(np.exp(1j * phase), spec)
    div = _div_grad(f)
    assert np.max(np.abs(div - (-(kx**2 + ky**2)) * f.values)) < 1e-11


def test_divergence_matches_componentwise_derivative_sum():
    # div(p S grad u) = sum_j d_j (flux_j), each derivative a spectral gradient
    spec = GridSpec(2, 64, 6.0)
    u = band_limited_random(spec, seed=1)
    p = band_limited_random(spec, seed=2).values.real
    grads = [g.values for g in gradient(u)]
    v = np.array([0.6, 0.8])
    along = v[0] * grads[0] + v[1] * grads[1]
    for direction, flux in ((None, [p * g for g in grads]),
                            (v, [p * vj * along for vj in v])):
        direct = sum(gradient(Field(f, spec))[j].values for j, f in enumerate(flux))
        assert np.max(np.abs(_div_grad(u, p, direction) - direct)) < 1e-10


def test_div_grad_equals_multiplier_on_band_limited_fields():
    spec = GridSpec(2, 64, 7.0)
    f = band_limited_random(spec, seed=21)
    via_ops = _div_grad(f)
    via_multiplier = spec.ifft(-spec.k_squared * spec.fft(f.values))
    scale = np.max(np.abs(via_multiplier))
    assert np.max(np.abs(via_ops - via_multiplier)) < 1e-13 * scale


def test_free_factors_multiply_to_the_full_grid_multiplier():
    # the d one-dimensional factors e^{-i k_j^2 t} are e^{-i|k|^2 t}, up to
    # the rounding of phases as large as |k|^2 |t|
    for spec in (GridSpec(1, 16, 3.0), GridSpec(2, 16, 3.0), GridSpec(3, 8, 3.0)):
        for t in (0.0, 0.37, -1.9):
            product = np.ones(spec.shape, dtype=complex)
            for factor in spec.free_factors(t):
                product = product * factor
            full = np.exp(-1j * spec.k_squared * t)
            phase = spec.k_squared.max() * abs(t)
            bound = 8.0 * np.finfo(float).eps * (1.0 + phase)
            assert np.max(np.abs(product - full)) <= bound


def test_band_free_factors_are_the_grid_factors_on_the_retained_modes():
    for spec in (GridSpec(1, 16, 3.0), GridSpec(3, 12, 3.0)):
        retained = spec.retained(True)
        for j, (band, full) in enumerate(zip(spec.free_factors(0.37, True),
                                             spec.free_factors(0.37))):
            assert band.shape[j] == len(retained) == spec.band_shape(True)[j]
            assert np.array_equal(band, np.take(full, retained, axis=j))


def test_band_limit_keeps_the_band_it_went_through():
    spec = GridSpec(3, 12, 4.0)
    values = band_limited_random(spec, seed=3).values + 0.1 * gaussian_field(spec).values
    projected, band = spec.band_limit(values, keep=True)
    assert np.array_equal(projected, spec.band_limit(values))
    assert np.array_equal(band, spec.band_fft(values, True))
    assert band.shape == spec.band_shape(True) == (9, 9, 9)
    assert spec.band_shape(False) == spec.shape


def test_grid_spec_is_built_without_tables():
    # a spec read from a corrupt header builds no per-axis array before the
    # file's size is checked, and a half-length must be finite
    spec = GridSpec(3, 2**30, 1.0)
    assert "x1d" not in vars(spec) and "k1d" not in vars(spec)
    assert spec.size == 2**90
    for length in (np.inf, np.nan, 0.0):
        with pytest.raises(DomainError, match="half-length"):
            GridSpec(1, 16, length)


@pytest.mark.parametrize("span, dt, steps", [
    (0.7, 0.1, 7), (0.3, 0.1, 3), (0.01, 0.01, 1), (1.0, 0.25, 4)])
def test_step_count_of_whole_steps(span, dt, steps):
    assert step_count(span, dt) == steps


@pytest.mark.parametrize("span, dt", [(1.0, 0.3), (0.01, 0.05), (0.05, 0.03),
                                      (1.0, 0.003)])
def test_step_count_refuses_what_is_not_whole_steps(span, dt):
    with pytest.raises(DomainError, match="length = .* is not a whole number of steps"):
        step_count(span, dt, "length")


@pytest.mark.parametrize("span, dt, message", [
    # dt = 0 was ZeroDivisionError and an infinite span OverflowError from
    # round(inf); no cap was checked
    (1.0, 0.0, "dt must be positive and finite"),
    (1.0, -0.1, "dt must be positive and finite"),
    (1.0, np.nan, "dt must be positive and finite"),
    (1.0, np.inf, "dt must be positive and finite"),
    (np.inf, 0.1, "length must be finite"),
    (-np.inf, 0.1, "length must be finite"),
    (np.nan, 0.1, "length must be finite"),
    (1.0, 1e-300, "length / dt = 1e\\+300 steps exceeds the cap"),
    (1.0, 5e-324, "length / dt = inf steps exceeds the cap"),
    (-1.0, 0.1, "length = -1.0 is not a whole number of steps .* one step at least"),
])
def test_step_count_refuses_a_length_it_cannot_count(span, dt, message):
    with pytest.raises(DomainError, match=message):
        step_count(span, dt, "length")


def test_step_count_takes_max_steps_and_not_one_more():
    assert step_count(MAX_STEPS * 1e-6, 1e-6) == MAX_STEPS
    with pytest.raises(DomainError, match="exceeds the cap"):
        step_count((MAX_STEPS + 1) * 1e-6, 1e-6)


# -- variable-coefficient Laplacian --------------------------------------------


def _free_laplacian(f: Field) -> np.ndarray:
    """lap f via the -|k|^2 multiplier."""
    return f.spec.ifft(-f.spec.k_squared * f.spec.fft(f.values))


def test_laplacian_G_identity_matches_multiplier():
    spec = GridSpec(2, 32, 5.0)
    f = band_limited_random(spec, seed=3)
    via_metric = laplacian_G(f, MetricField(spec))
    via_multiplier = _free_laplacian(f)
    scale = np.max(np.abs(via_multiplier))
    assert np.max(np.abs(via_metric.values - via_multiplier)) < 1e-12 * scale


def test_laplacian_G_constant_scaling():
    # div(G grad f) - lap f is linear in G - I = amplitude b S: doubling the
    # amplitude doubles it, for S = I and for S = v v^T
    spec = GridSpec(3, 16, 4.0)
    f = band_limited_random(spec, seed=4)
    free = _free_laplacian(f)
    for direction in (None, (1.0, 2.0, -0.5)):
        once, twice = (
            laplacian_G(f, MetricField(spec, amplitude=c * 0.3, radius=2.5,
                                       direction=direction)).values - free
            for c in (1.0, 2.0)
        )
        assert np.max(np.abs(twice - 2.0 * once)) < 1e-12 * np.max(np.abs(twice))


def test_laplacian_G_fused_vs_split_paths():
    # div(G grad f) must equal lap f + div((G - I) grad f) computed separately
    spec = GridSpec(2, 64, 8.0)
    f = gaussian_field(spec, amplitude=1.0, width=1.5)
    for preset in ("conformal_bump", "anisotropic_bump"):
        metric, _ = build_preset(preset, spec)
        fused = laplacian_G(f, metric)
        pert = flux_divergence(spec.fft(f.values), spec, metric.perturbation,
                               metric.direction)
        split = _free_laplacian(f) + spec.ifft(pert)
        rel = np.sqrt(
            spec.quadrature(np.abs(fused.values - split) ** 2).real
            / spec.quadrature(np.abs(fused.values) ** 2).real
        )
        assert rel < 1e-11


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    dealias=st.booleans(),
    axis_aligned=st.booleans(),
)
def test_flux_divergence_structured_paths_match_table_and_self_adjoint(
    dim, seed, dealias, axis_aligned
):
    # the conformal (p I) and rank-one (p v v^T) paths are the generic d x d
    # table path up to rounding, and every path, the generic one on a full
    # symmetric table included, is self-adjoint on the band
    spec = GridSpec(dim, {1: 32, 2: 16, 3: 8}[dim], 5.0)
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(spec.shape)
    v = np.eye(dim)[0] if axis_aligned else rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    sym = rng.standard_normal((dim, dim) + spec.shape)
    sym = sym + np.swapaxes(sym, 0, 1)

    def band_coeffs():
        c = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        c[~spec.dealias_mask] = 0.0
        return c

    f, g = band_coeffs(), band_coeffs()
    for direction, structure in ((None, np.eye(dim)), (v, np.outer(v, v))):
        table = np.multiply.outer(structure, p)
        fast = band_flux(f, spec, p, direction, dealias)
        generic = flux_divergence_table(f, spec, table, dealias)
        assert np.max(np.abs(fast - generic)) <= 1e-12 * np.max(np.abs(generic))
    for op, args in ((band_flux, (p, None)), (band_flux, (p, v)),
                     (flux_divergence_table, (sym,))):
        kf = op(f, spec, *args, dealias=dealias)
        kg = op(g, spec, *args, dealias=dealias)
        bound = 1e-12 * np.linalg.norm(kf) * np.linalg.norm(g)
        assert abs(np.vdot(g, kf) - np.vdot(kg, f)) <= bound


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    dealias=st.booleans(),
    rank_one=st.booleans(),
    support=st.sampled_from(["ball", "wrap", "full"]),
)
def test_flux_kernel_matches_full_grid_flux(dim, seed, dealias, rank_one,
                                            support):
    # the kernel (band and support box of p only) is the full-grid flux up to
    # rounding, whether supp p is a small ball, a ball across the periodic
    # edge of one axis (its box is that whole axis) or everything
    spec = GridSpec(dim, {1: 32, 2: 16, 3: 12}[dim], 5.0)
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(spec.shape)
    if support != "full":
        center = rng.uniform(-3.0, 3.0, dim)
        if support == "wrap":
            center[rng.integers(dim)] = -spec.length
        dist2 = sum(np.minimum(np.abs(x - c), 2.0 * spec.length - np.abs(x - c))**2
                    for x, c in zip(spec.coords, center))
        p = p * (dist2 < rng.uniform(0.5, 2.0) ** 2)
    direction = None
    if rank_one:
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
    coeffs = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    if dealias:
        coeffs[~spec.dealias_mask] = 0.0
    got = band_flux(coeffs, spec, p, direction, dealias)
    want = flux_divergence_full(coeffs, spec, p, direction, dealias)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if dealias:
        assert not np.any(got[~spec.dealias_mask])


@pytest.mark.parametrize("preset", ["conformal_bump", "anisotropic_bump"])
def test_laplacian_G_metric_structure_matches_its_table(preset):
    spec = GridSpec(2, 32, 6.0)
    metric, _ = build_preset(preset, spec)
    f = band_limited_random(spec, seed=9)
    structured = laplacian_G(f, metric).values
    generic = spec.ifft(flux_divergence_table(spec.fft(f.values), spec,
                                              metric_table(metric)))
    assert np.max(np.abs(structured - generic)) < 1e-12 * np.max(np.abs(generic))


def test_laplacian_G_self_adjoint_without_dealiasing():
    spec = GridSpec(2, 32, 6.0)
    f = band_limited_random(spec, seed=5)
    g = band_limited_random(spec, seed=6)
    bound = 1e-10 * f.l2_norm() * g.l2_norm()
    # the oblique direction gives G off-diagonal entries
    for direction in (None, (1.0, 0.1)):
        metric = MetricField(spec, amplitude=0.3, radius=2.5, direction=direction)
        lhs = spec.quadrature(laplacian_G(f, metric).values * np.conj(g.values))
        rhs = spec.quadrature(f.values * np.conj(laplacian_G(g, metric).values))
        assert abs(lhs - rhs) <= bound


def test_laplacian_G_rejects_nonfinite_metric():
    # a non-finite amplitude would reach laplacian_G as a NaN perturbation;
    # the MetricField refuses it
    spec = GridSpec(1, 16, 2.0)
    f = Field(np.ones(spec.shape, dtype=complex), spec)
    for amplitude in (np.inf, np.nan):
        with pytest.raises(DomainError):
            laplacian_G(f, MetricField(spec, amplitude=amplitude, radius=1.0))


# -- derivatives of fixed real tables ---------------------------------------------
#
# ``real_derivatives`` works on one-axis half spectra, whose inverse ignores
# the imaginary part that ik_j gives the Nyquist index. The tables are damping tables on coarse grids,
# whose Nyquist modes carry weight; the oblique direction gives the rank-one
# flux more than one live component.

_REAL_DERIVATIVE_METRICS = {
    "identity": lambda spec: MetricField(spec),
    "conformal": lambda spec: MetricField(spec, amplitude=0.4, radius=2.5),
    "rank_one": lambda spec: MetricField(spec, amplitude=-0.4, radius=2.5,
                                         direction=(1.0, 0.5, -0.3)[:spec.dim]),
}


def _real_table(dim):
    spec = GridSpec(dim, {2: 32, 3: 16}[dim], 6.0)
    _, damping = build_preset("identity", spec, {"damping_radius": 3.0})
    return spec, damping.table


def _off_nyquist(spec):
    """Mask of the Fourier indices (fft order) off every Nyquist plane."""
    off = np.ones(spec.shape, dtype=bool)
    for j in range(spec.dim):
        index = [slice(None)] * spec.dim
        index[j] = spec.n // 2
        off[tuple(index)] = False
    return off


@pytest.mark.parametrize("kind", sorted(_REAL_DERIVATIVE_METRICS))
@pytest.mark.parametrize("dim", [2, 3])
def test_real_derivatives_match_the_full_complex_reference(dim, kind):
    # identity: the real parts of the complex-transform derivatives; G != I:
    # the reference forms the flux from the same real gradient
    spec, table = _real_table(dim)
    metric = _REAL_DERIVATIVE_METRICS[kind](spec)
    lap, grads = real_derivatives(table, metric)
    want_lap, want_grads = real_derivatives_full(table, metric)
    for got, want in zip([lap] + grads, [want_lap] + want_grads):
        assert got.dtype == np.float64 and got.shape == spec.shape
        assert got.flags.c_contiguous and got.base is None
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["conformal", "rank_one"])
@pytest.mark.parametrize("dim", [2, 3])
def test_real_derivatives_differ_from_the_complex_path_on_nyquist_planes_only(
    dim, kind
):
    # the complex path feeds the inner gradient's imaginary Nyquist artifact
    # into the flux; what that changes lies on the Nyquist planes
    spec, table = _real_table(dim)
    metric = _REAL_DERIVATIVE_METRICS[kind](spec)
    lap = real_derivatives(table, metric)[0]
    lap_complex = laplacian_G(Field(table, spec), metric).values.real
    diff_hat = spec.fft(lap - lap_complex)
    off = _off_nyquist(spec)
    assert np.max(np.abs(diff_hat[off])) <= 1e-12 * np.max(table)
    assert np.max(np.abs(diff_hat[~off])) > 1e-6 * np.max(table)


@pytest.mark.parametrize("kind", sorted(_REAL_DERIVATIVE_METRICS))
@pytest.mark.parametrize("dim", [2, 3])
def test_real_derivatives_pair_by_parts(dim, kind):
    # the energy law's two weights: int f div(G grad a) = -sum_j int d_j f
    # (G grad a)_j for band-limited real f
    spec, table = _real_table(dim)
    metric = _REAL_DERIVATIVE_METRICS[kind](spec)
    lap, grads = real_derivatives(table, metric)
    flux = metric.apply(grads)
    for seed in range(3):
        f = band_limited_random(spec, seed=seed).values.real
        df = [g.values.real for g in gradient(Field(f, spec))]
        lhs = spec.quadrature(f * lap)
        rhs = -sum(spec.quadrature(dj * wj) for dj, wj in zip(df, flux))
        scale = sum(spec.quadrature(np.abs(dj * wj)) for dj, wj in zip(df, flux))
        assert abs(lhs - rhs) <= 1e-13 * scale


def _real_table_of_shape(spec, shape):
    """A damping table of ``shape``: a ball, its copy rolled half a box
    along the first axis (the support wraps the periodic edge), an annulus,
    or zero."""
    if shape == "zero":
        return DampingField(spec, amplitude=0.0).table
    if shape == "annulus":
        return DampingField(spec, shape="annulus", inner_radius=1.5,
                            outer_radius=3.5, center=[0.5] * spec.dim).table
    table = DampingField(spec, radius=2.0, center=[1.0] * spec.dim).table
    return np.roll(table, spec.n // 2, axis=0) if shape == "wrap" else table


_EDGE_METRICS = dict(
    _REAL_DERIVATIVE_METRICS,
    rank_one_axis=lambda spec: MetricField(spec, amplitude=0.4, radius=2.5,
                                           direction=(0.6, 0.0, 0.8)[:spec.dim]),
)


@pytest.mark.parametrize("shape", ["ball", "wrap", "annulus", "zero"])
@pytest.mark.parametrize("kind", sorted(_EDGE_METRICS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_real_derivatives_on_any_support_match_the_full_reference(dim, kind,
                                                                  shape):
    # the line transforms are exact whatever the support: a support across
    # the periodic edge gives a full-axis box, a zero table gives zeros, and
    # a rank-one v with a zero component skips that axis's flux
    spec = GridSpec(dim, {1: 32, 2: 32, 3: 16}[dim], 6.0)
    table = _real_table_of_shape(spec, shape)
    metric = _EDGE_METRICS[kind](spec)
    lap, grads = real_derivatives(table, metric)
    want_lap, want_grads = real_derivatives_full(table, metric)
    for got, want in zip([lap] + grads, [want_lap] + want_grads):
        assert got.dtype == np.float64 and got.shape == spec.shape
        assert got.flags.c_contiguous and got.base is None
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if shape == "zero":
        assert not any(np.any(got) for got in [lap] + grads)


@pytest.mark.parametrize("preset,flux_lines", [
    ("conformal_bump", [(0, 49), (1, 49), (2, 49)]),
    ("anisotropic_bump", [(0, 49)]),
])
def test_real_derivatives_line_transforms_on_the_evolve3d_damping_table(
    monkeypatch, preset, flux_lines
):
    # the evolve3d geometry (48^3, L = 12): the damping table's box is 15^3
    # and p's 7^3. Per axis one rfft and two irfft (grad t, then the
    # Laplacian with the flux folded in) on the 15^2 lines through the
    # table's box, and the flux's rfft on the 7^2 lines through p's box:
    # every axis for a conformal metric, only v's nonzero axis for rank-one
    # v = e_1. Full transforms would take 3 * 48^2 lines each
    spec = GridSpec(3, 48, 12.0)
    metric, damping = build_preset(preset, spec, {
        "metric_amplitude": -0.95, "metric_radius": 2.0, "damping_radius": 4.0})
    assert support_box(damping.table) == (slice(17, 32),) * 3
    assert support_box(metric.perturbation) == (slice(21, 28),) * 3
    log = logged_transforms(monkeypatch)
    real_derivatives(damping.table, metric)
    calls = [(name, axis, lines) for name, axis, lines, _ in log]
    assert calls == (
        [call for j in range(3) for call in (("rfft", j, 225), ("irfft", j, 225))]
        + [("rfft", j, lines) for j, lines in flux_lines]
        + [("irfft", j, 225) for j in range(3)])


@pytest.mark.parametrize("dim,n", [(1, 6), (1, 8), (2, 10), (2, 16), (3, 6),
                                   (3, 12)])
def test_gradient_matches_the_full_transform_reference(dim, n):
    # one-axis transforms are the same DFT as the full one, for any field:
    # white noise, so every mode up to the Nyquist one carries weight; n both
    # a multiple of 4 and 2 mod 4 (GridSpec refuses odd n)
    spec = GridSpec(dim, n, 3.0)
    rng = np.random.default_rng(n + dim)
    f = Field(rng.standard_normal(spec.shape)
              + 1j * rng.standard_normal(spec.shape), spec)
    got, want = gradient(f), gradient_full(f)
    assert len(got) == dim
    for g, w in zip(got, want):
        assert np.max(np.abs(g.values - w.values)) <= 1e-14 * np.max(np.abs(w.values))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_support_box_is_the_bounding_box_of_the_nonzeros(dim):
    spec = GridSpec(dim, 16, 6.0)
    rng = np.random.default_rng(dim)
    for _ in range(5):
        table = rng.standard_normal(spec.shape) * (rng.random(spec.shape) < 0.02)
        nonzero = np.nonzero(table)
        want = None if not nonzero[0].size else tuple(
            slice(ix.min(), ix.max() + 1) for ix in nonzero)
        assert support_box(table) == want
    assert support_box(np.zeros(spec.shape)) is None


# -- Sobolev norms --------------------------------------------------------------


def test_sobolev_single_mode_closed_form():
    spec = GridSpec(2, 32, 6.0)
    k = np.pi / 6.0 * 2
    f = Field(np.exp(1j * k * np.broadcast_to(spec.coords[0], spec.shape)), spec)
    for s in (0.0, 0.5, 1.0, 2.3):
        expected = (1.0 + k**2) ** (s / 2.0) * 12.0 ** (spec.dim / 2.0)
        assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)


def test_sobolev_s0_is_l2_quadrature():
    spec = GridSpec(3, 16, 4.0)
    f = band_limited_random(spec, seed=9)
    l2 = np.sqrt(spec.quadrature(np.abs(f.values) ** 2).real)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)
    assert homogeneous_sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)


def test_sobolev_gaussian_matches_dense_quadrature_oracle():
    # f = exp(-x^2/2) in 1d:  ||f||_{H^1}^2 = (1/2pi) int (1+xi^2) |fhat|^2 dxi
    # with fhat = sqrt(2 pi) exp(-xi^2/2)
    spec = GridSpec(1, 256, 20.0)
    f = Field(np.exp(-spec.x1d**2 / 2.0).astype(complex), spec)
    oracle_sq, err = quad(lambda xi: (1 + xi**2) * np.exp(-(xi**2)), -30.0, 30.0)
    assert err < 1e-10
    assert sobolev_norm(f, 1.0) == pytest.approx(np.sqrt(oracle_sq), rel=1e-6)


def test_sobolev_rejects_negative_index():
    spec = GridSpec(1, 16, 2.0)
    with pytest.raises(DomainError):
        sobolev_norm(Field(np.ones(spec.shape, dtype=complex), spec), -0.5)


def test_band_sobolev_rows_are_the_grid_rows_on_the_retained_modes():
    spec = GridSpec(2, 24, 3.0)
    s_values = (0.0, 0.5, 0.9)
    index = np.ix_(*[spec.retained(True)] * 2)
    full = sobolev_weights(spec, s_values).reshape(3, 24, 24)
    band = sobolev_weights(spec, s_values, True)
    assert band.shape == (3, 17 * 17) and not band.flags.writeable
    assert np.array_equal(band, full[(slice(None),) + index].reshape(3, -1))
    # a band-limited field's norms from its retained coefficients
    u = band_limited_random(spec, seed=2)
    coeffs = spec.band_fft(u.values, True)
    assert np.allclose(sobolev_norms(abs2(coeffs), spec, s_values, True),
                       [sobolev_norm(u, s) for s in s_values], rtol=1e-13, atol=0)


def test_sobolev_weights_rows_are_the_multipliers():
    spec = GridSpec(2, 16, 3.0)
    k = np.pi / 3.0 * np.fft.fftfreq(16, d=1.0 / 16)  # k = (pi/L) m
    k2 = np.add.outer(k**2, k**2).reshape(-1)
    rows = sobolev_weights(spec, (0.0, 0.5, 1.3))
    assert rows.shape == (3, 256)
    assert not rows.flags.writeable
    assert np.array_equal(rows[0], np.ones(256))
    assert np.allclose(rows[1:], [np.sqrt(1 + k2), (1 + k2) ** 1.3],
                       rtol=1e-14, atol=0.0)
    assert np.array_equal(homogeneous_sobolev_weights(spec, 0.0),
                          np.ones((16, 16)))  # 0**0 == 1
    assert np.allclose(homogeneous_sobolev_weights(spec, 1.0).reshape(-1), k2,
                       rtol=1e-14, atol=0.0)
    assert sobolev_weights(spec, ()).shape == (0, 256)
    with pytest.raises(DomainError, match="Sobolev index"):
        sobolev_weights(spec, (0.5, -0.1))


@pytest.mark.parametrize("s", [np.nan, np.inf])
def test_sobolev_weights_refuse_an_exponent_that_is_not_finite(s):
    # a nan row made every H^s norm nan, and every Cauchy verdict true
    with pytest.raises(DomainError, match="Sobolev index must be finite and >= 0"):
        sobolev_weights(GridSpec(2, 16, 4.0), (0.5, s))


def test_parseval_quadrature_vs_spectrum():
    spec = GridSpec(2, 32, 5.0)
    f = band_limited_random(spec, seed=12)
    by_quadrature = spec.quadrature(np.abs(f.values) ** 2).real
    coeffs = spec.fft(f.values)
    by_spectrum = np.sum(np.abs(coeffs) ** 2) * spec.volume
    assert by_quadrature == pytest.approx(by_spectrum, rel=1e-12)


# -- localized integrals (the run's local_energy monitor) -----------------------


def test_localized_integral_ball_volume():
    # u = 1 has grad u = 0, so its local energy is the ball's volume
    spec = GridSpec(3, 48, 6.0)
    f = Field(np.ones(spec.shape, dtype=complex), spec)
    R = 3.0
    vol = local_integrals(f, R)["local_energy"]
    exact = 4.0 / 3.0 * np.pi * R**3
    assert abs(vol - exact) < 2.0 * (4 * np.pi * R**2) * spec.dx


def test_localized_integral_zero_field():
    spec = GridSpec(2, 32, 4.0)
    f = Field(np.zeros(spec.shape, dtype=complex), spec)
    assert local_integrals(f, 2.0) == {"local_energy": 0.0}


def test_localized_integral_gaussian_radial_oracle():
    # int_{|x|<R} |f|^2 + |grad f|^2 = int (1 + r^2/sigma^4) e^{-r^2/sigma^2}
    # via dense radial quadrature
    sigma = 1.0
    R = 3.0 * sigma
    spec = GridSpec(3, 64, 8.0)
    f = gaussian_field(spec, amplitude=1.0, width=sigma)  # |f|^2 = e^{-r^2/sigma^2}
    got = local_integrals(f, R)["local_energy"]
    oracle, err = quad(lambda r: 4 * np.pi * r**2 * (1 + r**2 / sigma**4)
                       * np.exp(-(r**2) / sigma**2), 0, R)
    assert err < 1e-7 * oracle
    assert got == pytest.approx(oracle, rel=1e-3)


def test_localized_integral_rejects_ball_outside_box():
    spec = GridSpec(2, 16, 3.0)
    f = Field(np.zeros(spec.shape, dtype=complex), spec)
    with pytest.raises(DomainError, match="ball radius"):
        local_integrals(f, 3.0)


# -- weight tables ----------------------------------------------------------------


def test_weight_tables_3d_closed_forms_at_origin():
    spec = GridSpec(3, 16, 6.0)
    t = weight_tables(spec)
    origin = (8, 8, 8)
    assert t.chi[origin] == pytest.approx(1.0, abs=0.0)
    assert t.lap_chi[origin] == pytest.approx(3.0, rel=1e-14)
    assert t.bilap_chi[origin] == pytest.approx(-15.0, rel=1e-14)


def test_weight_tables_bilap_matches_closed_form_everywhere_3d():
    spec = GridSpec(3, 16, 6.0)
    t = weight_tables(spec)
    closed = -15.0 / t.chi**7
    assert np.max(np.abs(t.bilap_chi - closed) / np.abs(closed)) < 1e-12
    assert np.max(np.abs(t.lambda_kernel - 15.0 / t.chi**7)) < 1e-14


def test_weight_tables_rho_kernels_3d():
    spec = GridSpec(3, 32, 8.0)
    # |grad rho| = 1 away from the origin
    table = grad_rho(spec)
    mag = np.sqrt(sum(table[j] ** 2 for j in range(3)))
    mask = spec.radius_squared > 0
    assert np.max(np.abs(mag[mask] - 1.0)) < 1e-13
    # regularized origin: the odd kernel averages to zero
    origin = (16, 16, 16)
    assert abs(mag[origin]) < 1e-13


def test_weight_tables_hessian_positive_semidefinite():
    spec = GridSpec(3, 16, 8.0)
    t = weight_tables(spec)
    stacked = np.moveaxis(hess_chi(spec, t.chi), (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(stacked)
    assert eigs.min() >= -1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weight_tables_derivative_growth_bounds(dim):
    # |d^alpha chi| <= C <x>^{1-|alpha|} for |alpha| <= 2, sampled on the grid
    spec = GridSpec(dim, 32, 10.0)
    t = weight_tables(spec)
    bracket = t.chi  # <x> = chi
    for j in range(dim):
        assert np.max(np.abs(t.grad_chi[j])) <= 1.0 + 1e-12
    hess = hess_chi(spec, t.chi)
    for i in range(dim):
        for j in range(dim):
            assert np.max(np.abs(hess[i, j]) * bracket) <= 2.0


@pytest.mark.parametrize("dim", [1, 2])
def test_weight_tables_lap_chi_lower_dimensional_closed_forms(dim):
    spec = GridSpec(dim, 32, 6.0)
    t = weight_tables(spec)
    expected = (dim - 1) / t.chi + 1.0 / t.chi**3
    assert np.max(np.abs(t.lap_chi - expected)) < 1e-14


def test_rk4_step_is_the_fourth_order_taylor_polynomial():
    # for y' = lam y one classical step multiplies by sum_{j<=4} (h lam)^j / j!
    lam = np.array([[-1.0 + 2.0j, 0.5j], [3.0, -0.25]])
    y = np.array([[1.0 + 1.0j, 2.0], [0.5j, -1.0]])
    h = 0.1
    z = h * lam
    expected = y * (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    assert np.allclose(rk4(y, lambda v: lam * v, h), expected, rtol=1e-15, atol=0)
