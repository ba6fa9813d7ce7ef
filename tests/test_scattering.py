import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls.errors import DomainError, GridMismatchError, SamplingError
from dnls.geometry import DampingField, build_preset, cutoff_field
from dnls.grid import (
    Field,
    GridSpec,
    sobolev_norm,
)
from dnls.scattering import (
    _monotone_tail_verdict,
    _pulled_coefficients,
    cauchy_scan,
    extract_profile,
    free_evolve,
    free_pullback,
)
from dnls.snapshots import Snapshot
from dnls.solver import SolverConfig, simulate

from conftest import (band_limited_random, gaussian_field, grid_snapshots,
                      logged_transforms, peak_traced_bytes)
from reference import full_grid_scan, pulled_coefficients

SPEC = GridSpec(2, 64, 10.0)


def _linear_free_snapshots(duration=1.0, n_snaps=5):
    metric, damping = build_preset("identity", SPEC, {"damping_amplitude": 0.0})
    u0 = gaussian_field(SPEC, amplitude=0.4, width=1.2)
    steps = 100
    cfg = SolverConfig(dt=duration / steps, duration=duration, nonlinearity=False)
    snapshots = []
    simulate(u0, metric, damping, cfg, snapshot_every=steps // (n_snaps - 1),
             snapshot_sink=snapshots.append)
    return snapshots


# -- pullback -----------------------------------------------------------------


def test_pullback_at_time_zero_is_identity():
    u = band_limited_random(SPEC, seed=1)
    out = free_pullback(u, 0.0)
    assert np.max(np.abs(out.values - u.values)) < 1e-13


def test_pullback_roundtrip_identity():
    u = band_limited_random(SPEC, seed=2)
    out = free_pullback(free_evolve(u, 0.7), 0.7)
    assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_pullback_recovers_initial_datum_of_linear_run():
    snapshots = _linear_free_snapshots()
    u0 = snapshots[0].field
    pulled = free_pullback(snapshots[-1].field, snapshots[-1].t)
    assert np.max(np.abs(pulled.values - u0.values)) < 1e-12


def test_free_evolve_is_hs_isometry():
    u = band_limited_random(SPEC, seed=3)
    for s in (0.0, 0.5, 1.0):
        assert sobolev_norm(free_evolve(u, 1.3), s) == pytest.approx(
            sobolev_norm(u, s), rel=1e-12
        )


def test_pulled_coefficients_match_the_full_grid_multiplier():
    # the d one-dimensional factors against e^{+i|k|^2 t} built on the grid
    for spec in (SPEC, GridSpec(3, 16, 6.0)):
        snapshots = grid_snapshots([(t, band_limited_random(spec, seed=i))
                                    for i, t in enumerate((0.0, 0.35, 1.7, 4.0))])
        *_, coeffs = _pulled_coefficients(snapshots)
        for got, want in zip(coeffs, pulled_coefficients(snapshots),
                             strict=True):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- cauchy scan -----------------------------------------------------------------


def test_cauchy_scan_reads_the_cached_sobolev_weight_rows():
    # the scan reduces against the rows the Sobolev norms cache: a second
    # scan on the same grid and exponents builds none
    import dnls.grid

    dnls.grid.sobolev_weights.cache_clear()
    snapshots = grid_snapshots([(t, band_limited_random(SPEC, seed=i))
                                for i, t in enumerate((0.0, 0.5, 1.0))])
    first = cauchy_scan(snapshots, s_values=(0.0, 0.5))
    after_first = dnls.grid.sobolev_weights.cache_info()
    second = cauchy_scan(snapshots, s_values=(0.0, 0.5))
    after_second = dnls.grid.sobolev_weights.cache_info()
    # three pairs per scan, one reduction each
    assert (after_first.misses, after_first.hits) == (1, 2)
    assert (after_second.misses, after_second.hits) == (1, 5)
    for s in (0.0, 0.5):
        assert np.array_equal(first.cauchy[s], second.cauchy[s])
    # the same rows serve a norm of the same exponent set
    u = snapshots[0].field
    dnls.grid.sobolev_norms(dnls.grid.abs2(SPEC.fft(u.values)), SPEC, (0, 0.5))
    assert dnls.grid.sobolev_weights.cache_info().misses == 1


def test_cauchy_scan_zero_on_linear_free_run():
    snapshots = _linear_free_snapshots()
    report = cauchy_scan(snapshots, s_values=(0.0, 0.5))
    for s in (0.0, 0.5):
        assert np.max(report.cauchy[s]) < 1e-12
        assert report.verdicts[s]


def test_cauchy_scan_matrix_structure():
    snapshots = _linear_free_snapshots()
    # make it non-trivial: use the nonlinear run below instead of zeros
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.4, width=1.2)
    snapshots = []
    simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=1.0),
             snapshot_every=25, snapshot_sink=snapshots.append)
    report = cauchy_scan(snapshots, s_values=(0.5,))
    D = report.cauchy[0.5]
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert np.all(D[np.triu_indices_from(D, 1)] > 0.0)


def test_cauchy_scan_refuses_few_snapshots():
    snapshots = _linear_free_snapshots()[:2]
    with pytest.raises(SamplingError):
        cauchy_scan(snapshots)


def _rescaled_free_snapshots(scales):
    """Grid snapshots of the free flow times (1 + c_i), at t_i = i/4: the
    last Cauchy row is |c_j - c_last| ||u0||_{H^s}."""
    u0 = gaussian_field(SPEC)
    return grid_snapshots((0.25 * i, Field(free_evolve(u0, 0.25 * i).values * (1 + c),
                                           SPEC))
                          for i, c in enumerate(scales))


@pytest.mark.parametrize("scan", [cauchy_scan, extract_profile])
@pytest.mark.parametrize("kwargs", [
    pytest.param({"tol_mono": np.nan}, id="tol_mono_nan"),
    pytest.param({"tol_mono": np.inf}, id="tol_mono_inf"),
    pytest.param({"tol_mono": -0.01}, id="tol_mono_negative"),
    pytest.param({"s_values": (0.5, np.nan)}, id="sobolev_nan"),
    pytest.param({"s_values": (np.inf,)}, id="sobolev_inf"),
])
def test_scan_refuses_a_slack_or_sobolev_exponent_that_is_not_finite(scan, kwargs):
    # the tail row 0, 0.5 grows, so the verdict at tol_mono 0.05 is false; a
    # nan slack, or nan norms from a nan exponent, read it true
    scales = (0.0, 0.1, 0.0, 0.5, 0.0)
    assert not scan(_rescaled_free_snapshots(scales), s_values=(0.5,)).verdicts[0.5]
    with pytest.raises(DomainError, match="must be finite and >= 0"):
        scan(_rescaled_free_snapshots(scales), **kwargs)


def test_cauchy_scan_small_data_verdict_positive():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.2, width=1.2)
    snapshots = []
    simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=4.0),
             snapshot_every=40, snapshot_sink=snapshots.append)
    report = cauchy_scan(snapshots, s_values=(0.0, 0.5))
    assert report.verdicts[0.0]
    assert report.verdicts[0.5]


def test_cauchy_scan_reports_near_limit_exponent_without_asserting():
    # s just below 1 is observational: a verdict must come back either way
    metric, damping = build_preset(
        "conformal_bump", SPEC,
        {"metric_amplitude": -0.5, "metric_radius": 2.0, "damping_radius": 4.0},
    )
    u0 = gaussian_field(SPEC, amplitude=0.3, width=1.2)
    snapshots = []
    simulate(u0, metric, damping,
             SolverConfig(dt=0.01, duration=2.0, inner_perturbation_steps=2),
             snapshot_every=50, snapshot_sink=snapshots.append)
    report = cauchy_scan(snapshots, s_values=(0.999,))
    assert 0.999 in report.verdicts
    assert isinstance(report.verdicts[0.999], bool)


# -- profile extraction -------------------------------------------------------------


def test_extract_profile_linear_run_zero_mismatch():
    snapshots = _linear_free_snapshots()
    report = extract_profile(snapshots, s_values=(0.0, 0.5))
    for s in (0.0, 0.5):
        assert np.max(report.mismatch[s]) < 1e-12
        assert report.final_mismatch[s] < 1e-14
    # profile equals the initial datum for the exactly-invertible linear flow
    assert np.max(np.abs(report.u_plus.field.values - snapshots[0].field.values)) < 1e-12


def test_extract_profile_mismatch_ordering_in_s():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.4, width=1.2)
    snapshots = []
    simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=2.0),
             snapshot_every=50, snapshot_sink=snapshots.append)
    report = extract_profile(snapshots, s_values=(0.0, 0.5, 0.9))
    for i in range(len(report.times)):
        assert report.mismatch[0.0][i] <= report.mismatch[0.5][i] + 1e-15
        assert report.mismatch[0.5][i] <= report.mismatch[0.9][i] + 1e-15
    # final mismatch vanishes by construction of u_plus
    assert report.final_mismatch[0.9] < 1e-12


def test_extract_profile_mismatch_equals_cauchy_last_row():
    # ||u(t) - e^{it lap} u_plus||_{H^s} = ||v(t) - v(T)||_{H^s} by isometry
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.4, width=1.2)
    snapshots = []
    simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=1.0),
             snapshot_every=25, snapshot_sink=snapshots.append)
    report = extract_profile(snapshots, s_values=(0.5,))
    assert np.allclose(report.mismatch[0.5], report.cauchy[0.5][-1], atol=1e-12)


# -- reference: real-space pullbacks, one H^s norm per pair and exponent -------


def _reference_report(snapshots, s_values, tol_mono=0.05):
    """The real-space algorithm the Fourier scan replaces, built from the public
    free_pullback / free_evolve / sobolev_norm."""
    times = np.asarray([snap.t for snap in snapshots])
    pulled = [free_pullback(snap.field, snap.t) for snap in snapshots]
    spec = snapshots[0].spec
    m = len(pulled)
    u_plus = free_pullback(snapshots[-1].field, snapshots[-1].t)
    cauchy, verdicts, mismatch = {}, {}, {}
    for s in s_values:
        matrix = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                diff = Field(pulled[i].values - pulled[j].values, spec)
                matrix[i, j] = matrix[j, i] = sobolev_norm(diff, s)
        cauchy[s] = matrix
        verdicts[s] = _monotone_tail_verdict(times, matrix[-1], tol_mono)
        mismatch[s] = np.array([
            sobolev_norm(Field(snap.field.values - free_evolve(u_plus, snap.t).values,
                               spec), s)
            for snap in snapshots
        ])
    return cauchy, verdicts, mismatch, u_plus


def _assert_matches_reference(snapshots, s_values, rel=1e-12):
    report = extract_profile(snapshots, s_values=s_values)
    scan = cauchy_scan(snapshots, s_values=s_values)
    cauchy, verdicts, mismatch, u_plus = _reference_report(snapshots, s_values)
    m = len(snapshots)
    off = ~np.eye(m, dtype=bool)
    assert np.max(np.abs(report.u_plus.field.values - u_plus.values)) <= 1e-14
    for s in s_values:
        ref = cauchy[s][off]
        assert np.all(ref > 0.0)
        for got in (report.cauchy[s], scan.cauchy[s]):
            assert np.all(np.diag(got) == 0.0)
            assert np.all(np.abs(got[off] - ref) <= rel * ref)
        assert np.all(np.abs(report.mismatch[s][:-1] - mismatch[s][:-1])
                      <= rel * mismatch[s][:-1])
        profile_norm = sobolev_norm(u_plus, s)
        assert report.final_mismatch[s] <= 1e-14 * profile_norm
        assert mismatch[s][-1] <= 1e-14 * profile_norm
        assert report.verdicts[s] == scan.verdicts[s] == verdicts[s]


REFERENCE_S = (0.0, 0.25, 0.5, 0.75, 0.9)


def test_fourier_scan_matches_reference_on_damped_2d_run():
    metric, damping = build_preset("identity", SPEC, {"damping_radius": 4.0})
    u0 = gaussian_field(SPEC, amplitude=0.4, width=1.2, momentum=0.5)
    snapshots = []
    simulate(u0, metric, damping, SolverConfig(dt=0.01, duration=2.0),
             snapshot_every=25, snapshot_sink=snapshots.append)
    assert len(snapshots) == 9
    _assert_matches_reference(snapshots, REFERENCE_S)


def test_fourier_scan_matches_reference_on_3d_run():
    spec = GridSpec(3, 24, 8.0)
    metric, damping = build_preset("identity", spec, {"damping_radius": 3.0})
    u0 = gaussian_field(spec, amplitude=0.3, width=1.2)
    snapshots = []
    simulate(u0, metric, damping, SolverConfig(dt=0.05, duration=2.0),
             snapshot_every=8, snapshot_sink=snapshots.append)
    assert len(snapshots) == 6
    _assert_matches_reference(snapshots, REFERENCE_S)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    steps=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=6),
    s_values=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=3, unique=True),
)
def test_fourier_scan_matches_reference_on_random_fields(seed, steps, s_values):
    spec = GridSpec(2, 16, 5.0)
    times = np.cumsum(steps)
    snapshots = grid_snapshots([(float(t), band_limited_random(spec, seed=seed + i))
                                for i, t in enumerate(times)])
    _assert_matches_reference(snapshots, tuple(s_values))


def _count_transforms(monkeypatch):
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        original = getattr(GridSpec, name)

        def counted(self, values, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, values)

        monkeypatch.setattr(GridSpec, name, counted)
    return counts


@pytest.mark.parametrize("m", [3, 5, 9])
def test_transform_counts_one_per_snapshot(monkeypatch, m):
    spec = GridSpec(2, 16, 5.0)
    snapshots = grid_snapshots([(0.1 * (i + 1), band_limited_random(spec, seed=i))
                                for i in range(m)])
    counts = _count_transforms(monkeypatch)
    cauchy_scan(snapshots, s_values=REFERENCE_S)
    assert counts == {"fft": m, "ifft": 0}
    counts.update(fft=0, ifft=0)
    extract_profile(snapshots, s_values=REFERENCE_S)
    assert counts == {"fft": m, "ifft": 1}


def test_extract_profile_streams_its_snapshots():
    # fed by a generator, the scan keeps the m coefficient arrays and drops
    # each field once it is transformed; a Cauchy pair adds its difference
    # and the half-size |difference|^2, so m + 1.5 fields at once, plus 1 %
    spec = GridSpec(3, 24, 8.0)
    base = band_limited_random(spec, seed=1)
    m, s_values = 20, (0.0, 0.5)

    def snapshots(count):
        return (grid_snapshots([(0.05 * i, Field(base.values * (1.0 + 0.01 * i), spec))])[0]
                for i in range(count))

    extract_profile(snapshots(3), s_values)  # transform plans, Sobolev weights
    peak = peak_traced_bytes(lambda: extract_profile(snapshots(m), s_values))
    assert peak <= 1.01 * (m + 1.5) * 16 * spec.size
    _assert_matches_reference(list(snapshots(m)), s_values)


def _run_snapshots(spec, dealias, preset="identity", params=None, steps=40,
                   every=8):
    metric, damping = build_preset(preset, spec, params or {"damping_radius": 3.0})
    u0 = gaussian_field(spec, amplitude=0.4, width=1.2, momentum=0.5)
    cfg = SolverConfig(dt=0.02, duration=0.02 * steps, dealias=dealias)
    snapshots = []
    simulate(u0, metric, damping, cfg, snapshot_every=every,
             snapshot_sink=snapshots.append)
    return snapshots


@pytest.mark.parametrize("spec, preset", [
    (GridSpec(2, 64, 10.0), "identity"),
    (GridSpec(3, 24, 8.0), "identity"),
    (GridSpec(2, 48, 10.0), "conformal_bump"),
])
@pytest.mark.parametrize("dealias", [True, False])
def test_band_scan_matches_the_full_grid_oracle(spec, preset, dealias):
    # a dealiased run's snapshots carry their band and are scanned on it;
    # the oracle transforms every field on the full grid. The entries agree
    # to roundoff of the largest pullback, u_plus to 1e-13 in L2
    snapshots = _run_snapshots(spec, dealias, preset)
    assert all(s.band == dealias for s in snapshots)
    s_values = (0.0, 0.5, 0.9)
    report = extract_profile(snapshots, s_values)
    times, cauchy, u_plus = full_grid_scan(snapshots, s_values)
    assert np.array_equal(report.times, times)
    assert (np.linalg.norm(report.u_plus.field.values - u_plus.values)
            <= 1e-13 * np.linalg.norm(u_plus.values))
    for s in s_values:
        scale = sobolev_norm(u_plus, s)
        assert np.max(np.abs(report.cauchy[s] - cauchy[s])) <= 1e-13 * scale
        assert np.array_equal(report.cauchy[s], cauchy_scan(snapshots, s_values).cauchy[s])
    # u_plus is a snapshot of the last time and step in the input layout
    assert (report.u_plus.t, report.u_plus.step, report.u_plus.band) == (
        snapshots[-1].t, snapshots[-1].step, dealias)
    if dealias:
        # the band is the band_fft of the snapshot's field, roundoff apart
        for snapshot in snapshots:
            want = spec.band_fft(snapshot.field.values, True)
            assert (np.max(np.abs(snapshot.values - want))
                    <= 1e-15 * np.max(np.abs(want)))


def test_band_scan_makes_no_transform(monkeypatch):
    # m band snapshots: no transform in the scan, and none in the profile
    # either, whose u_plus is the last coefficients as a band snapshot
    spec = GridSpec(3, 16, 6.0)
    snapshots = _run_snapshots(spec, True)
    counts = _count_transforms(monkeypatch)
    log = logged_transforms(monkeypatch)
    cauchy_scan(snapshots, s_values=REFERENCE_S)
    assert counts == {"fft": 0, "ifft": 0} and log == []
    report = extract_profile(snapshots, s_values=REFERENCE_S)
    assert counts == {"fft": 0, "ifft": 0} and log == []
    assert report.u_plus.band


def test_band_scan_refuses_mixed_layouts():
    spec = GridSpec(2, 32, 8.0)
    band = _run_snapshots(spec, True)
    grid = _run_snapshots(spec, False)
    for mixed in (band[:-1] + grid[-1:], grid[:-1] + band[-1:]):
        with pytest.raises(GridMismatchError, match="band and grid layouts"):
            extract_profile(mixed)


def _assert_same_report(got, want):
    assert np.array_equal(got.times, want.times)
    assert got.verdicts == want.verdicts
    assert got.final_mismatch == want.final_mismatch
    for s in want.s_values:
        assert np.array_equal(got.cauchy[s], want.cauchy[s])
        assert np.array_equal(got.mismatch[s], want.mismatch[s])
    assert (got.u_plus.t, got.u_plus.step, got.u_plus.band) == (
        want.u_plus.t, want.u_plus.step, want.u_plus.band)
    assert np.array_equal(got.u_plus.values, want.u_plus.values)


@pytest.mark.parametrize("dealias", [True, False])
def test_scan_orders_its_snapshots_by_time_and_refuses_repeated_times(dealias):
    # reversed and shuffled inputs give the in-order report bit for bit; a
    # repeated time, a negative exponent and another grid still raise
    snapshots = _run_snapshots(GridSpec(2, 32, 8.0), dealias)
    in_order = extract_profile(snapshots)
    shuffled = [snapshots[i] for i in np.random.default_rng(5).permutation(
        len(snapshots))]
    assert [s.t for s in shuffled] != [s.t for s in snapshots]
    for other in (snapshots[::-1], shuffled):
        _assert_same_report(extract_profile(other), in_order)
        scan = cauchy_scan(other)
        for s in in_order.s_values:
            assert np.array_equal(scan.cauchy[s], in_order.cauchy[s])
    with pytest.raises(DomainError, match="strictly increasing"):
        cauchy_scan(snapshots + snapshots[2:3])
    with pytest.raises(DomainError):
        cauchy_scan(snapshots, s_values=(-0.5,))
    other = GridSpec(2, 32, 12.0)
    last = snapshots[-1]
    moved = Snapshot(last.t, last.step, other, last.values, last.band)
    with pytest.raises(GridMismatchError, match="different grids"):
        extract_profile(snapshots[:-1] + [moved])


# -- cutoff diagnostics ---------------------------------------------------------------


def test_far_field_vanishes_when_data_sits_in_flat_region():
    damping = DampingField(SPEC, amplitude=1.0, radius=2.0)
    chi = cutoff_field(SPEC, 4.0, 8.0)
    u = gaussian_field(SPEC, amplitude=0.5, width=0.5)  # supported in r < 4
    w = (1.0 - chi) * u.values
    assert np.max(np.abs(w)) < 1e-9  # gaussian tail at the cutoff shoulder
