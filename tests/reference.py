"""References the tests compare the package against; the package does not
ship them.

* Generic d x d tables for the structured operators. The package uses
  G = I + p S only through its structure: the scalar p
  (``MetricField.perturbation``) and S = I or v v^T
  (``MetricField.direction``). The dense tables below are what that
  structure stands for.
* A second integrator: the method of lines, the classical RK4 on the full
  dealiased right-hand side. The package integrates only by Strang
  splitting; this reference checks its order and pins the two ``rk4-*``
  golden cases.
* The Strang step on full-grid coefficients: full transforms, the dealias
  mask written into them, the band gathered for the inner RK4 and scattered
  back, and a masked band limit. The package's step works on the retained
  band from a pruned transform to its inverse.
* Tables and multipliers the package builds in another form: the
  full-grid flux (the package takes the DFT restricted to the band and the
  support box of p, one matrix per axis), the grad|x| table (the package
  keeps only its half spectra), the bump profile and its radial slope (the
  package forms p and grad p inside ``MetricField.eval_radial``) and the
  full-grid free
  multiplier (the package applies it as d one-dimensional factors).
* div(G grad .) of a complex field on every mode, ``laplacian_G`` (by
  ``div_G_grad_coeffs`` and ``flux_divergence``, a :class:`FluxKernel` on
  all modes). The package applies G only in the solver, on the 2/3 band,
  and to fixed real tables through ``grid.real_derivatives``, which works
  by one-dimensional real transforms on the lines through the tables'
  supports; ``real_derivatives_full`` is that function by full complex
  transforms.
* The spectral gradient by full transforms, ``gradient_full``; the
  package's ``grid.gradient`` takes each component by one-dimensional
  transforms along its axis.
* The homogeneous H^s norm, the |k|^(2s) multiplier; the package's norms
  are the inhomogeneous (1+|k|^2)^s ones.
* The full-grid Cauchy scan, ``full_grid_scan``: a full transform of every
  snapshot's field, the full-grid free multiplier and the full-grid H^s
  rows. The package scans a band snapshot's retained coefficients with the
  band's factors and rows, and makes no transform.
* The version-1 snapshot writer, ``write_snapshot_v1``: a 32-byte header and
  the grid values. The package writes version 2 and still reads version 1.
* A second ray-ensemble loop: one ray per row of an (n, 2 dim) state,
  grad p as an (n, dim) array, the symbol evaluated apart from the slope,
  and the live rays gathered and scattered on every step. The package keeps
  one ray per column and reuses each new state's radial evaluation.
"""

import struct

import numpy as np

from dnls.grid import (
    Field,
    _grad_rho_components,
    FluxKernel,
    abs2,
    gradient,
    rk4,
)
from dnls.rays import RayFate, _refine_exit_time
from dnls.solver import SimulationState, nonlinear_damping_substep


def metric_table(metric) -> np.ndarray:
    """Grid samples of G = I + S p, shape (dim, dim, n, ..., n), from
    ``structure`` and ``perturbation`` (not from the off-grid evaluator)."""
    spec = metric.spec
    d = spec.dim
    table = np.zeros((d, d) + spec.shape)
    for i in range(d):
        table[i, i] = 1.0
    if metric.perturbation is not None:
        table += np.multiply.outer(metric.structure, metric.perturbation)
    return table


def flux_divergence_full(coeffs: np.ndarray, spec, p: np.ndarray,
                         direction: np.ndarray | None = None,
                         dealias: bool = False) -> np.ndarray:
    """Fourier coefficients of div(p S grad u) by full-grid transforms: 2d
    of them for S = I, 2 for S = v v^T. With ``dealias`` each flux is
    projected onto the 2/3 band after the pointwise product. The package
    takes the DFT restricted to the retained band and the support box of
    p."""

    def band(flux: np.ndarray) -> np.ndarray:
        flux_hat = spec.fft(flux)
        if dealias:
            flux_hat[~spec.dealias_mask] = 0.0
        return flux_hat

    k = spec.wavenumbers
    if direction is None:
        out = np.zeros_like(coeffs)
        for kj in k:
            out += 1j * kj * band(p * spec.ifft(1j * kj * coeffs))
        return out
    vk = 1j * sum(vj * kj for vj, kj in zip(direction, k) if vj != 0.0)
    return vk * band(p * spec.ifft(vk * coeffs))


def flux_divergence(coeffs: np.ndarray, spec, p: np.ndarray,
                    direction: np.ndarray | None = None) -> np.ndarray:
    """Fourier coefficients of div(p S grad u), given all those of u, by a
    :class:`FluxKernel` on every mode."""
    return FluxKernel(spec, p, direction, spec.retained(False))(coeffs)


def div_G_grad_coeffs(coeffs: np.ndarray, metric) -> np.ndarray:
    """Coefficients of div(G grad u) from those of u: -|k|^2 plus p S's flux."""
    spec = metric.spec
    out = -spec.k_squared * coeffs
    if metric.perturbation is not None:
        out += flux_divergence(coeffs, spec, metric.perturbation,
                               metric.direction)
    return out


def laplacian_G(f: Field, metric) -> Field:
    """div(G grad f) of a MetricField: :func:`div_G_grad_coeffs` on fft(f),
    complex in and out, every mode kept."""
    spec = f.spec
    return Field(spec.ifft(div_G_grad_coeffs(spec.fft(f.values), metric)), spec)


def gradient_full(f: Field) -> list[Field]:
    """The spectral gradient by full transforms: one forward transform and d
    inverse ones of ik_j times the coefficients. The package takes d_j by
    one-dimensional transforms along axis j."""
    spec = f.spec
    coeffs = spec.fft(f.values)
    return [Field(spec.ifft(1j * k * coeffs), spec) for k in spec.wavenumbers]


def real_derivatives_full(table: np.ndarray, metric):
    """``grid.real_derivatives`` by full complex transforms: the real parts
    of the spectral gradient, the flux p S grad t formed from that real
    gradient, and the real part of -|k|^2 t_hat plus the flux's divergence.
    Every multiplier keeps its Nyquist index; the real parts drop what it
    adds."""
    spec = metric.spec
    coeffs = spec.fft(table.astype(np.complex128))
    grads = [spec.ifft(1j * k * coeffs).real for k in spec.wavenumbers]
    out = -spec.k_squared * coeffs
    p = metric.perturbation
    if p is not None:
        if metric.conformal:
            for k, g in zip(spec.wavenumbers, grads):
                out += 1j * k * spec.fft(p * g)
        else:
            v = metric.direction
            vk = sum(vj * k for vj, k in zip(v, spec.wavenumbers))
            along = sum(vj * g for vj, g in zip(v, grads))
            out += 1j * vk * spec.fft(p * along)
    return spec.ifft(out).real, grads


def band_flux(coeffs: np.ndarray, spec, p: np.ndarray,
              direction: np.ndarray | None = None,
              dealias: bool = False) -> np.ndarray:
    """Fourier coefficients of div(p S grad u), given all those of u: with
    ``dealias`` the solver's :class:`FluxKernel` on the 2/3 band coefficients
    (off the band u counts as zero and the result is exactly zero), without
    it ``flux_divergence`` on every mode."""
    if not dealias:
        return flux_divergence(coeffs, spec, p, direction)
    band = spec.retained(True)
    index = np.ix_(*[band] * spec.dim)
    out = np.zeros_like(coeffs)
    out[index] = FluxKernel(spec, p, direction, band)(coeffs[index])
    return out


def flux_divergence_table(coeffs: np.ndarray, spec, table: np.ndarray,
                          dealias: bool = False) -> np.ndarray:
    """Fourier coefficients of div(A grad u) for a (dim, dim, ...) table A,
    given those of u; entries that vanish identically are skipped. With
    ``dealias`` each flux is projected onto the 2/3 band after the product."""
    d = spec.dim
    k = spec.wavenumbers

    def band(flux: np.ndarray) -> np.ndarray:
        flux_hat = spec.fft(flux)
        if dealias:
            flux_hat[~spec.dealias_mask] = 0.0
        return flux_hat

    live = [[bool(np.any(table[i, j])) for j in range(d)] for i in range(d)]
    grads = [
        spec.ifft(1j * k[j] * coeffs) if any(row[j] for row in live) else None
        for j in range(d)
    ]
    out = np.zeros_like(coeffs)
    for i in range(d):
        if any(live[i]):
            flux = sum(table[i, j] * grads[j] for j in range(d) if live[i][j])
            out += 1j * k[i] * band(flux)
    return out


def hess_chi(spec, chi: np.ndarray) -> np.ndarray:
    """(dim, dim, ...) table of D^2 chi = I/chi - x x^T/chi^3 for the virial
    weight chi = sqrt(1 + |x|^2) sampled on ``spec``."""
    d = spec.dim
    chi3 = chi**3
    hess = np.empty((d, d) + spec.shape)
    for i in range(d):
        for j in range(d):
            hess[i, j] = -spec.coords[i] * spec.coords[j] / chi3
            if i == j:
                hess[i, j] += 1.0 / chi
    return hess


def mol_rhs(values: np.ndarray, metric, damping, cfg) -> np.ndarray:
    """Right-hand side i div(G grad u) - a u - i |u|^2 u on grid values, with
    the 2/3 rule around every product when ``cfg.dealias``."""
    spec = metric.spec
    mask = spec.dealias_mask
    coeffs = spec.fft(values)
    lin_hat = -spec.k_squared * coeffs
    if cfg.dealias:
        lin_hat[~mask] = 0.0
    if not metric.is_identity:
        lin_hat += band_flux(coeffs, spec, metric.perturbation,
                             metric.direction, cfg.dealias)
    out = 1j * spec.ifft(lin_hat)
    out = out - damping.table * values
    if cfg.nonlinearity:
        mod2 = values.real**2 + values.imag**2
        if cfg.dealias:
            mod2_hat = spec.fft(mod2)
            mod2_hat[~mask] = 0.0
            mod2 = spec.ifft(mod2_hat)
        out = out - 1j * mod2 * values
    if cfg.dealias:
        out_hat = spec.fft(out)
        out_hat[~mask] = 0.0
        out = spec.ifft(out_hat)
    return out


def full_grid_linear_substep(u: Field, propagator) -> Field:
    """``solver.linear_substep`` on all n^d coefficients: a full transform,
    the non-retained modes set to 0 when the run dealiases, and the retained
    ones gathered for the inner RK4 and scattered back."""
    p, spec, cfg = propagator, propagator.spec, propagator.cfg
    coeffs = spec.fft(u.values)
    if cfg.dealias:
        coeffs[~spec.dealias_mask] = 0.0
    free = spec.free_factors(p.dt if p.metric.is_identity else p.half_dt)
    for factor in free:
        coeffs *= factor
    if p.flux is not None:
        band = np.ix_(*[spec.retained(cfg.dealias)] * spec.dim)
        retained = coeffs[band]
        m = cfg.inner_perturbation_steps
        for _ in range(m):
            retained = rk4(retained, lambda c: 1j * p.flux(c), p.dt / m)
        coeffs[band] = retained
        for factor in free:
            coeffs *= factor
    return Field(spec.ifft(coeffs), spec)


def full_grid_step(state, propagator):
    """``solver.step`` with :func:`full_grid_linear_substep` and a band limit
    that masks the full-grid coefficients."""
    spec = propagator.spec
    u = nonlinear_damping_substep(state.u, propagator)
    u = full_grid_linear_substep(u, propagator)
    values = nonlinear_damping_substep(u, propagator).values
    if propagator.cfg.dealias:
        coeffs = spec.fft(values)
        coeffs[~spec.dealias_mask] = 0.0
        values = spec.ifft(coeffs)
    return SimulationState(Field(values, spec), state.t + propagator.dt,
                           state.step + 1)


def mol_solve(u0: Field, metric, damping, cfg) -> Field:
    """``cfg.n_steps`` RK4 steps of :func:`mol_rhs` from u0 (band-limited
    first when ``cfg.dealias``, as ``solver.simulate`` does)."""
    spec = u0.spec
    values = spec.band_limit(u0.values) if cfg.dealias else u0.values

    def rhs(v):
        return mol_rhs(v, metric, damping, cfg)

    for _ in range(cfg.n_steps):
        values = rk4(values, rhs, cfg.signed_dt)
    return Field(values, spec)


def grad_rho(spec) -> np.ndarray:
    """(dim, ...) table of grad|x| = x/|x| on the grid, the origin node
    regularized: the package's ifftshifted components, fftshifted back."""
    return np.fft.fftshift(np.stack(list(_grad_rho_components(spec))),
                           axes=tuple(range(1, spec.dim + 1)))


def homogeneous_sobolev_weights(spec, s: float) -> np.ndarray:
    """|k|^(2s) on the grid; 0**0 == 1, so s = 0 gives the L^2 weights."""
    return spec.k_squared**s


def homogeneous_sobolev_norm(f: Field, s: float) -> float:
    """Homogeneous H^s norm of f via the |k|^(2s) multiplier."""
    spec = f.spec
    weights = homogeneous_sobolev_weights(spec, s)
    return float(np.sqrt(spec.volume * np.sum(weights * abs2(spec.fft(f.values)))))


def bump_profile(r: np.ndarray, radius: float) -> np.ndarray:
    """b(r) = exp(1 - 1/(1-(r/R)^2)) for r < R, 0 otherwise; b(0) = 1."""
    r = np.asarray(r, dtype=np.float64)
    s2 = (r / radius) ** 2
    inside = s2 < 1.0
    out = np.zeros_like(r)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def bump_profile_derivative(r: np.ndarray, radius: float) -> np.ndarray:
    """db/dr = -2 r/R^2 b(r) / (1 - (r/R)^2)^2 for r < R, 0 otherwise."""
    r = np.asarray(r, dtype=np.float64)
    s2 = (r / radius) ** 2
    inside = s2 < 1.0
    out = np.zeros_like(r)
    t = 1.0 - s2[inside]
    out[inside] = -2.0 * r[inside] / radius**2 * bump_profile(r[inside], radius) / t**2
    return out


def pulled_coefficients(snapshots) -> list[np.ndarray]:
    """e^{+i|k|^2 t} fft(u) of each snapshot's field u at its time t, with
    the multiplier built on the full grid."""
    return [np.exp(1j * snap.spec.k_squared * snap.t) * snap.spec.fft(snap.field.values)
            for snap in snapshots]


def full_grid_scan(snapshots, s_values) -> tuple[np.ndarray, dict, Field]:
    """Times, H^s Cauchy matrices (by exponent) and u_plus of snapshots in
    increasing time, each field taken by a full transform and reduced
    against the full-grid weights (1+|k|^2)^s."""
    times = np.array([snap.t for snap in snapshots])
    coeffs = pulled_coefficients(snapshots)
    spec = snapshots[0].spec
    m = len(coeffs)
    cauchy = {}
    for s in s_values:
        weights = (1.0 + spec.k_squared) ** s
        matrix = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                power = np.abs(coeffs[i] - coeffs[j]) ** 2
                matrix[i, j] = matrix[j, i] = np.sqrt(
                    spec.volume * np.sum(weights * power))
        cauchy[s] = matrix
    return times, cauchy, Field(spec.ifft(coeffs[-1]), spec)


def write_snapshot_v1(path, field: Field, time: float) -> None:
    """A version-1 snapshot: magic, version 1, dim, n, half-length and time,
    then the grid values as little-endian complex128."""
    spec = field.spec
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIdd", b"DNLS", 1, spec.dim, spec.n,
                             spec.length, float(time)))
        fh.write(np.ascontiguousarray(field.values, dtype="<c16").tobytes())


def bilinear_interaction_full_spectrum(u: Field) -> float:
    """The bilinear interaction int |u(y)|^2 Im(conj(u) grad u)(x) .
    grad_rho(x-y) dx dy by full complex transforms: the circular convolution
    of |u|^2 with the ifftshifted grad|x| table (:func:`grad_rho`),
    evaluated against the kernels' complex spectra. The package runs the same
    convolution on half spectra."""
    spec = u.spec
    mod2_hat = spec.fft(np.abs(u.values) ** 2)
    momentum = [(np.conj(u.values) * g.values).imag for g in gradient(u)]
    scale = spec.size * spec.dx**spec.dim  # unnormalized circular conv * dx^d
    total = 0.0
    for m, kernel in zip(momentum, grad_rho(spec)):
        kernel_hat = spec.fft(np.fft.ifftshift(kernel))
        conv = spec.ifft(kernel_hat * mod2_hat).real * scale
        total += float(spec.quadrature(m * conv).real)
    return total


def ray_flow(metric):
    """Hamilton's equations on (n, 2 dim) states, one ray per row, in the
    closed forms of the package with grad p = c x as an (n, dim) array."""
    d = metric.spec.dim

    def rhs(y):
        x, xi = y[:, :d], y[:, d:]
        p, c = metric.eval_radial(x)
        grad_p = c[:, None] * x
        out = np.empty_like(y)
        if metric.conformal:
            out[:, :d] = 2.0 * (1.0 + p)[:, None] * xi
            out[:, d:] = -np.einsum("ij,ij->i", xi, xi)[:, None] * grad_p
        else:
            v = metric.direction
            v_xi = xi @ v
            out[:, :d] = 2.0 * (xi + (p * v_xi)[:, None] * v)
            out[:, d:] = -(v_xi * v_xi)[:, None] * grad_p
        return out

    return rhs


def ray_symbol(metric, x, xi):
    """G(x) xi . xi of (n, dim) rows by the structure, from its own radial
    evaluation."""
    h = np.einsum("ij,ij->i", xi, xi)
    p, _ = metric.eval_radial(x)
    return h + p * (h if metric.conformal else (xi @ metric.direction) ** 2)


def ray_ensemble_fates(metric, damping, x0, xi0, horizon, dt, escape_radius,
                       a_min=1e-8) -> list[RayFate]:
    """The fates of the rays (x0, xi0) by the rule of ``rays._FateRule``,
    from an RK4 loop on (n, 2 dim) states that gathers the live rays on
    every step and escapes by |x| > escape_radius."""
    d = metric.spec.dim
    y = np.concatenate([x0, xi0], axis=1).astype(float)
    n = len(y)
    rhs = ray_flow(metric)
    h0 = ray_symbol(metric, y[:, :d], y[:, d:])
    drift = np.zeros(n)
    escaped = np.zeros(n, dtype=bool)
    t_exit = np.full(n, np.nan)
    t_first_hit = np.full(n, np.nan)
    t_first_hit[damping.eval_damping(y[:, :d]) > a_min] = 0.0
    control_steps = np.zeros(n, dtype=np.int64)
    for i in range(1, int(round(horizon / dt)) + 1):
        live = np.nonzero(~escaped)[0]
        if not live.size:
            break
        y_prev = y[live]
        y_live = rk4(y_prev, rhs, dt)
        y[live] = y_live
        x_prev, x = y_prev[:, :d], y_live[:, :d]
        h = ray_symbol(metric, x, y_live[:, d:])
        t = i * dt
        drift[live] = np.maximum(drift[live], np.abs(h - h0[live]))
        out = np.linalg.norm(x, axis=1) > escape_radius
        for j in np.nonzero(out)[0]:
            t_exit[live[j]] = _refine_exit_time(x_prev[j], x[j], t - dt, dt,
                                                escape_radius)
        hits = live[damping.eval_damping(x) > a_min]
        t_first_hit[hits[np.isnan(t_first_hit[hits])]] = t
        control_steps[hits] += 1
        escaped[live[out]] = True
    fates = []
    for ray in range(n):
        if escaped[ray]:
            kind = "escaped"
        elif np.isnan(t_first_hit[ray]):
            kind = "trapped_at_horizon"
        else:
            kind = "controlled"
        fates.append(RayFate(
            kind, float(drift[ray] / abs(h0[ray])), t_exit=float(t_exit[ray]),
            t_first_hit=float(t_first_hit[ray]),
            time_in_control=float(control_steps[ray] * dt),
            horizon=horizon if kind == "trapped_at_horizon" else np.nan,
        ))
    return fates
