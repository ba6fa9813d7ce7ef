"""Periodic grid, spectral transforms, differential operators, and weight tables.

Conventions used throughout the package:

* the box is ``[-L, L)^dim`` sampled at ``n`` points per axis, ``dx = 2L/n``;
* Fourier coefficients ``c_k`` are normalized so that ``f(x) = sum_k c_k e^{ikx}``
  (``norm="forward"`` transforms), with wave numbers ``k = (pi/L) * m``,
  ``m in {-n/2, ..., n/2 - 1}``;
* quadrature is the torus midpoint rule ``dx^dim * sum``, which is exact for
  band-limited integrands and satisfies Parseval against the coefficients:
  ``int |f|^2 = (2L)^dim * sum_k |c_k|^2``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np
import scipy.fft as _fft

from .errors import DomainError, GridMismatchError

__all__ = [
    "GridSpec",
    "Field",
    "WeightTables",
    "gradient",
    "FluxKernel",
    "real_derivatives",
    "abs2",
    "dot",
    "norm_sq",
    "sobolev_weights",
    "sobolev_norms",
    "sobolev_norm",
    "weight_tables",
    "rk4",
    "MAX_STEPS",
    "step_count",
]


def _fft_workers() -> int:
    try:
        return max(1, int(os.environ.get("DNLS_THREADS", "1")))
    except ValueError:
        return 1


class GridSpec:
    """Uniform periodic grid on the box [-L, L)^dim.

    n must be even (the grid then contains x = 0 and a symmetric mode band);
    powers of two and 3*2^k sizes transform fastest.
    """

    def __init__(self, dim: int, n: int, length: float):
        if dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2 or 3, got {dim}")
        if n < 4 or n % 2 != 0:
            raise DomainError(f"n_per_axis must be an even integer >= 4, got {n}")
        if not 0 < length < np.inf:
            raise DomainError(f"half-length must be positive and finite, got {length}")
        self.dim = int(dim)
        self.n = int(n)
        self.length = float(length)
        self.dx = 2.0 * self.length / self.n
        self.shape = (self.n,) * self.dim
        self.size = self.n**self.dim

    # 1d samples and wave numbers are built on first use, so a spec read from
    # a file header allocates nothing before the file's size is checked

    @cached_property
    def x1d(self) -> np.ndarray:
        """Samples x_i = -L + i dx along an axis."""
        return -self.length + self.dx * np.arange(self.n)

    @cached_property
    def k1d(self) -> np.ndarray:
        """Wave numbers along an axis, in fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    # -- equality / hashing on the defining triple ---------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GridSpec)
            and self.dim == other.dim
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.n, self.length))

    def __repr__(self) -> str:
        return f"GridSpec(dim={self.dim}, n={self.n}, length={self.length})"

    # -- broadcastable meshes -------------------------------------------------

    def _along_axis(self, values: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = self.n
        return values.reshape(shape)

    @cached_property
    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        return [self._along_axis(self.x1d, j) for j in range(self.dim)]

    @cached_property
    def wavenumbers(self) -> list[np.ndarray]:
        """Broadcastable wave-number arrays, one per axis."""
        return [self._along_axis(self.k1d, j) for j in range(self.dim)]

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for k in self.wavenumbers:
            out = out + k**2
        return out

    def squared_distance(self, center: Sequence[float]) -> np.ndarray:
        """|x - center|^2 on the grid, the sum of the d one-dimensional
        squares (x_j - c_j)^2."""
        return sum(np.square(x - c) for x, c in zip(self.coords, center))

    @cached_property
    def radius_squared(self) -> np.ndarray:
        return self.squared_distance((0.0,) * self.dim)

    @cached_property
    def band_slabs(self) -> tuple[slice, slice]:
        """The two end slabs of an axis, in fft order, that hold the 2/3 band
        |m| <= n//3: indices 0..n//3 and n - n//3..n - 1."""
        m = self.n // 3
        return slice(0, m + 1), slice(self.n - m, self.n)

    def retained(self, dealias: bool) -> np.ndarray:
        """Indices along an axis, in fft order, of the modes a run keeps: the
        :attr:`band_slabs` with ``dealias``, all n without."""
        return np.r_[self.band_slabs] if dealias else np.arange(self.n)

    def band_shape(self, dealias: bool) -> tuple[int, ...]:
        """Shape of the coefficients on the :meth:`retained` modes, (nb,) * dim
        with nb = 2 (n // 3) + 1 with ``dealias``, the grid's shape without."""
        return (2 * (self.n // 3) + 1,) * self.dim if dealias else self.shape

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask in fft order: :meth:`retained` on every axis."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[np.ix_(*[self.retained(True)] * self.dim)] = True
        return mask

    @cached_property
    def boundary_shell(self) -> np.ndarray:
        """Outermost two-cell shell in the max-norm, used for wrap-around warnings."""
        edge = self.length - 2.0 * self.dx
        shell = np.zeros(self.shape, dtype=bool)
        for x in self.coords:
            shell = shell | (np.abs(x) >= edge)
        return shell

    def ball_mask(self, radius: float) -> np.ndarray:
        if radius >= self.length:
            raise DomainError(
                f"ball radius {radius} must be < box half-length {self.length}"
            )
        return self.radius_squared <= radius**2

    def free_factors(self, t: float, dealias: bool = False) -> list[np.ndarray]:
        """The free flow e^{it lap} over time t as d broadcastable
        one-dimensional multipliers e^{-i k_j^2 t}, one per axis: multiplying
        Fourier coefficients by each in turn applies e^{-i|k|^2 t}. With
        ``dealias`` each keeps the :meth:`retained` modes of its axis, for
        coefficients on the band."""
        factors = [np.exp(-1j * k**2 * t) for k in self.wavenumbers]
        if not dealias:
            return factors
        retained = self.retained(True)
        return [np.take(factor, retained, axis=j) for j, factor in enumerate(factors)]

    # -- transforms and quadrature -------------------------------------------

    def fft(self, values: np.ndarray) -> np.ndarray:
        return _fft.fftn(values, norm="forward", workers=_fft_workers())

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        return _fft.ifftn(coeffs, norm="forward", workers=_fft_workers())

    def rfft(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field: the coefficients of :meth:`fft` with
        the last wave-number index in 0..n/2, shape (n, ..., n/2 + 1)."""
        return _fft.rfftn(values, norm="forward", workers=_fft_workers())

    def irfft(self, coeffs: np.ndarray) -> np.ndarray:
        """The real field of a half spectrum, the inverse of :meth:`rfft`."""
        return _fft.irfftn(coeffs, s=self.shape, norm="forward",
                           workers=_fft_workers())

    def quadrature(self, values: np.ndarray) -> complex | float:
        return values.sum() * self.dx**self.dim

    @property
    def volume(self) -> float:
        return (2.0 * self.length) ** self.dim

    def band_fft(self, values: np.ndarray, dealias: bool) -> np.ndarray:
        """The coefficients of :meth:`fft` on the :meth:`retained` modes only,
        shape (nb,) * dim in fft order along every axis.

        With ``dealias`` the transform is pruned (Markel, IEEE Trans. Audio
        Electroacoust. 19, 1971): it runs axis by axis from the contiguous
        last one and keeps only the :attr:`band_slabs` after each pass, so
        the passes transform n^(d-1), n^(d-2) nb, ..., nb^(d-1) lines:
        n^2 + n nb + nb^2 at 3-d instead of 3 n^2. Without it every mode is
        retained and it is :meth:`fft`.
        """
        if not dealias:
            return _fft.fftn(values, norm="forward", workers=_fft_workers())
        out = values
        for axis in reversed(range(self.dim)):
            out = _fft.fft(out, axis=axis, norm="forward",
                           overwrite_x=out is not values, workers=_fft_workers())
            head = (slice(None),) * axis
            out = np.concatenate([out[head + (s,)] for s in self.band_slabs],
                                 axis=axis)
        return out

    def band_ifft(self, band: np.ndarray, dealias: bool) -> np.ndarray:
        """The field whose coefficients are ``band`` on the :meth:`retained`
        modes and 0 elsewhere: :meth:`ifft` of the zero-padded band, with the
        pruning of :meth:`band_fft` in reverse. Axis by axis from the first,
        the band goes into the two :attr:`band_slabs` of an n-long axis, the
        slab between them is zeroed, and that axis is transformed.
        """
        if not dealias:
            return _fft.ifftn(band, norm="forward", workers=_fft_workers())
        low, high = self.band_slabs
        out = band
        for axis in range(self.dim):
            head = (slice(None),) * axis
            padded = np.empty(out.shape[:axis] + (self.n,) + out.shape[axis + 1:],
                              dtype=np.complex128)
            padded[head + (low,)] = out[head + (slice(low.stop),)]
            padded[head + (slice(low.stop, high.start),)] = 0.0
            padded[head + (high,)] = out[head + (slice(low.stop, None),)]
            out = _fft.ifft(padded, axis=axis, norm="forward", overwrite_x=True,
                            workers=_fft_workers())
        return out

    def band_limit(self, values: np.ndarray, keep: bool = False):
        """Project onto the 2/3 dealias band: the pruned transforms
        :meth:`band_fft` and :meth:`band_ifft`, no full-grid coefficients.
        With ``keep``, the pair of the projection and the band coefficients
        it went through."""
        band = self.band_fft(values, True)
        projected = self.band_ifft(band, True)
        return (projected, band) if keep else projected


@dataclass
class Field:
    """Complex scalar field sampled on a GridSpec, row-major."""

    values: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.spec.shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} != grid shape {self.spec.shape}"
            )

    def validate(self) -> "Field":
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise DomainError("field contains non-finite values")
        return self

    def l2_norm(self) -> float:
        return float(np.sqrt(norm_sq(self.values) * self.spec.dx**self.spec.dim))


def gradient(f: Field) -> list[Field]:
    """Spectral gradient, exact on band-limited fields. The DFT factorizes
    over the axes, so d_j takes only the one-dimensional transform along
    axis j: a forward and an inverse transform of the n^(d-1) lines along j
    with the multiplier ik_j between them, 2d n^(d-1) line transforms in
    all."""
    spec = f.spec
    out = []
    for j, k in enumerate(spec.wavenumbers):
        coeffs = _fft.fft(f.values, axis=j, norm="forward",
                          workers=_fft_workers())
        coeffs *= 1j * k
        out.append(Field(_fft.ifft(coeffs, axis=j, norm="forward",
                                   overwrite_x=True, workers=_fft_workers()),
                         spec))
    return out


# The most time steps one run (or one ray) may take: a run length whose
# ratio to dt asks for more is refused up front rather than run for days.
MAX_STEPS = 10_000_000


def step_count(span: float, dt: float, name: str = "span") -> int:
    """The number of steps dt in the run length ``span``: the one run-length
    rule of the package. dt must be positive and finite, ``span`` finite and
    a whole number >= 1 of steps to 1e-9 relative (otherwise the run would
    end at another time), and the count at most :data:`MAX_STEPS`; each
    refusal is a :class:`DomainError` that names ``name``."""
    if not 0.0 < dt < np.inf:
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    if not -np.inf < span < np.inf:
        raise DomainError(f"{name} must be finite, got {span!r}")
    steps = span / dt
    if steps > MAX_STEPS:
        raise DomainError(f"{name} / dt = {steps:.3g} steps exceeds the cap "
                          f"of {MAX_STEPS}")
    if not (span >= dt and abs(steps - round(steps)) <= 1e-9 * steps):
        raise DomainError(f"{name} = {span!r} is not a whole number of steps "
                          f"dt = {dt!r} ({steps:.6g} steps; a run takes one "
                          "step at least)")
    return int(round(steps))


def rk4(y: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray], h: float,
        k1: np.ndarray | None = None) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of y' = rhs(y); ``k1`` is
    rhs(y) when the caller has it already."""
    if k1 is None:
        k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def support_box(table: np.ndarray) -> tuple[slice, ...] | None:
    """Bounding box of ``table != 0``, one slice per axis; None if it is empty.
    Each axis reduces the nonzero mask with ``any`` over the other axes."""
    nonzero = table != 0
    box = []
    for j in range(table.ndim):
        others = tuple(i for i in range(table.ndim) if i != j)
        hits = np.flatnonzero(nonzero.any(axis=others))
        if not hits.size:
            return None
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def _lines(box: tuple[slice, ...], axis: int,
           within: tuple[slice, ...] | None = None) -> tuple[slice, ...]:
    """The lines along ``axis`` through ``box``: all of that axis and the
    box's slices on the others. With ``within``, a box that holds ``box``,
    the slices count from its start, which indexes the lines through
    ``box`` inside an array of the lines through ``within``."""
    if within is not None:
        box = tuple(slice(b.start - w.start, b.stop - w.start)
                    for b, w in zip(box, within))
    return box[:axis] + (slice(None),) + box[axis + 1:]


class FluxKernel:
    """div(p S grad .) on the coefficients of the modes ``band`` (per axis),
    in and out: S = I without ``direction``, else S = v v^T, one flux in any
    dimension as div(p v v^T grad u) = (v . grad)(p (v . grad u)).

    The fluxes live on the bounding box of p != 0, so the transforms are the
    DFT restricted to the box points and the band modes, one small matrix per
    axis: the synthesis E[j, m] = exp(2 pi i m j / n) for the box points j
    and band modes m, and its analysis adjoint conj(E).T / n. A flux with
    multiplier ik is ik * A(p * E(ik * c)), each of E and A a matrix product
    along every axis in turn.
    """

    def __init__(self, spec: GridSpec, p: np.ndarray,
                 direction: np.ndarray | None, band: np.ndarray):
        self.box = support_box(p)
        self.p = None if self.box is None else p[self.box]
        n = spec.n
        # m * j reduced mod n keeps the phases in [0, 2 pi)
        self.synthesis = [] if self.box is None else [
            np.exp(2j * np.pi / n * (np.outer(np.arange(n)[s], band) % n))
            for s in self.box]
        self.analysis = [e.conj().T / n for e in self.synthesis]
        ik = [1j * spec.k1d[band].reshape((-1,) + (1,) * (spec.dim - 1 - j))
              for j in range(spec.dim)]
        self.mults = ik if direction is None else [
            sum(vj * k for vj, k in zip(direction, ik) if vj != 0.0)]

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(coeffs)
        if self.box is None:
            return out
        for mult in self.mults:
            # each product contracts the leading axis and appends the new
            # one, so d of them apply one matrix per axis in axis order
            flux = mult * coeffs
            for matrix in self.synthesis:
                flux = np.tensordot(flux, matrix, axes=(0, 1))
            flux *= self.p
            for matrix in self.analysis:
                flux = np.tensordot(flux, matrix, axes=(0, 1))
            out += mult * flux
        return out


def real_derivatives(table: np.ndarray,
                     metric) -> tuple[np.ndarray, list[np.ndarray]]:
    """div(G grad t) and the components of grad t for a fixed real table t,
    as float64 arrays that own their memory, by one-dimensional real
    transforms along each axis j on the lines through the box of t != 0
    (:func:`support_box`, grown to hold the box of p != 0 when G != I):
    d_j of a table is zero on every line along j that misses its support.

    Per axis, one rfft of t gives d_j t (irfft of ik_j t_hat) and the
    Laplacian part -k_j^2 t_hat. The flux p S grad t, formed from the real
    gradient, runs on the lines through the box of p and is folded into that
    spectrum before its one irfft: d_j(p d_j t) for a conformal metric,
    v_j d_j(p v . grad t) for rank-one. Off the lines the outputs are 0; an
    empty support gives zeros, and one that wraps the periodic edge a
    full-axis box.

    The unpaired Nyquist mode of a real field has an imaginary derivative,
    which a real result drops (Trefethen, Spectral Methods in MATLAB, ch. 3):
    ik_j times the real Nyquist coefficient is imaginary, and irfft ignores
    the imaginary part of its last coefficient, so that d_j and the flux's
    divergence drop it. The even multiplier -k_j^2 keeps it.
    """
    spec = metric.spec
    n, d = spec.n, spec.dim
    lap = np.zeros(spec.shape)
    grads = [np.zeros(spec.shape) for _ in range(d)]
    box = support_box(table)
    if box is None:
        return lap, grads
    p = metric.perturbation
    p_box = None if p is None else support_box(p)
    if p_box is not None:
        box = tuple(slice(min(b.start, c.start), max(b.stop, c.stop))
                    for b, c in zip(box, p_box))
    # a real transform along one axis keeps its indices 0..n/2
    k = spec.k1d[:n // 2 + 1]
    spectra = []
    for j in range(d):
        axis_shape = (-1,) + (1,) * (d - 1 - j)
        ik = 1j * k.reshape(axis_shape)
        lines = _lines(box, j)
        coeffs = _fft.rfft(table[lines], axis=j, norm="forward",
                           workers=_fft_workers())
        grads[j][lines] = _fft.irfft(ik * coeffs, n=n, axis=j, norm="forward",
                                     workers=_fft_workers())
        coeffs *= -np.square(k).reshape(axis_shape)
        spectra.append((lines, ik, coeffs))
    if p_box is not None:
        v = (1.0,) * d if metric.conformal else metric.direction
        if not metric.conformal:
            along_v = sum(vj * g[p_box] for vj, g in zip(v, grads) if vj != 0.0)
        for j, ((_, ik, coeffs), vj) in enumerate(zip(spectra, v)):
            if vj == 0.0:
                continue
            flux = np.zeros(spec.shape)
            flux[p_box] = p[p_box] * (grads[j][p_box] if metric.conformal
                                      else along_v)
            coeffs[_lines(p_box, j, within=box)] += vj * ik * _fft.rfft(
                flux[_lines(p_box, j)], axis=j, norm="forward",
                workers=_fft_workers())
    for j, (lines, _, coeffs) in enumerate(spectra):
        lap[lines] += _fft.irfft(coeffs, n=n, axis=j, norm="forward",
                                 workers=_fft_workers())
    return lap, grads


def abs2(values: np.ndarray) -> np.ndarray:
    """|z|^2 of complex samples in real arithmetic, re^2 + im^2."""
    out = np.square(values.real)
    out += np.square(values.imag)
    return out


def dot(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i for each row a of ``rows`` over the flattened real
    samples of b: one sum for a single array of b's size, one per row for a
    (k, b.size) stack.

    The sums run in numpy's own loop, not in BLAS: BLAS splits a long sum
    over its threads, so its rounding changes with the thread count, and
    this loop's does not.
    """
    b = b.reshape(-1)
    return np.einsum("ij,j->i", rows.reshape(-1, b.size), b)


def norm_sq(values: np.ndarray) -> float:
    """sum |z|^2 over the samples, in real arithmetic: one :func:`dot` of the
    interleaved (re, im) pairs, with no temporary array."""
    flat = np.ascontiguousarray(values).view(np.float64)
    return float(dot(flat, flat)[0])


@lru_cache(maxsize=8)
def sobolev_weights(spec: GridSpec, s_values: tuple[float, ...],
                    dealias: bool = False) -> np.ndarray:
    """The H^s multipliers (1+|k|^2)^s, one flattened row per exponent:
    shape (len(s_values), spec.size), read-only and kept for the grid,
    exponents and layout, so a run builds each row once. With ``dealias`` the
    rows hold the :meth:`GridSpec.retained` modes only, in the order of
    :meth:`GridSpec.band_fft`: shape (len(s_values), nb^dim)."""
    for s in s_values:
        if not 0 <= s < np.inf:
            raise DomainError(f"Sobolev index must be finite and >= 0, got {s}")
    k_squared = spec.k_squared
    if dealias:
        k_squared = k_squared[np.ix_(*[spec.retained(True)] * spec.dim)]
    base = 1.0 + k_squared.reshape(-1)
    rows = np.empty((len(s_values), base.size))
    for row, s in zip(rows, s_values):
        row[...] = base**s
    rows.flags.writeable = False
    return rows


def sobolev_norms(power: np.ndarray, spec: GridSpec,
                  s_values: tuple[float, ...], dealias: bool = False) -> np.ndarray:
    """H^s norms sqrt(volume * sum_k (1+|k|^2)^s |c_k|^2), one per exponent,
    of the squared coefficient moduli ``power`` (``abs2`` of a spectrum, or
    of its retained modes with ``dealias``): one :func:`dot` against the
    :func:`sobolev_weights` rows."""
    # the grid's own rows keep the two-argument cache key every caller shares
    rows = (sobolev_weights(spec, s_values, True) if dealias
            else sobolev_weights(spec, s_values))
    return np.sqrt(dot(rows, power) * spec.volume)


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm via the Fourier multiplier."""
    return float(sobolev_norms(abs2(f.spec.fft(f.values)), f.spec, (s,))[0])


def _grad_rho_components(spec: GridSpec):
    """The d components of grad|x| = x/|x| on the ifftshifted grid, one at a
    time: index 0 carries x = 0 and wrapped indices carry x in [-L, L).

    The origin node, where the closed form is singular, takes its mean over
    the 2^d half-grid offsets.
    """
    d = spec.dim
    coords = [np.fft.ifftshift(x) for x in spec.coords]
    r = np.zeros(spec.shape)
    for x in coords:
        r += x**2
    np.sqrt(r, out=r)
    origin = (0,) * d
    assert r[origin] == 0.0
    r[origin] = 1.0
    corners = np.array(list(product((-0.5, 0.5), repeat=d))) * spec.dx
    norms = np.linalg.norm(corners, axis=1)
    at_origin = (corners / norms[:, None]).mean(axis=0)
    for x, value in zip(coords, at_origin):
        component = x / r
        component[origin] = value
        yield component


@dataclass
class WeightTables:
    """On-grid samples of the virial weight chi = sqrt(1+|x|^2) and |x| kernels.

    ``lambda_kernel`` is the positive weight 15/chi^7 driving the localized-mass
    accumulator; in three dimensions it coincides with ``-bilap_chi``.

    :func:`weight_tables` fills the fields. ``grad_rho_hat``, the kernels the
    bilinear interaction convolves with, is built on first use and kept.
    The virial rate needs no D^2 chi table: it uses the closed form.
    """

    spec: GridSpec
    chi: np.ndarray
    grad_chi: np.ndarray       # (dim, ...)
    lap_chi: np.ndarray
    bilap_chi: np.ndarray
    lambda_kernel: np.ndarray

    @cached_property
    def grad_rho_hat(self) -> list[np.ndarray]:
        """Half spectra (:meth:`GridSpec.rfft`) of the ifftshifted grad|x|
        components, times size * dx^dim, so that ``irfft(kernel * rfft(f))``
        samples the quadrature of the circular convolution of f with grad|x|.

        Built one component at a time, without a grad|x| table."""
        spec = self.spec
        kernels = []
        for component in _grad_rho_components(spec):
            kernel = spec.rfft(component)
            kernel *= spec.size * spec.dx**spec.dim
            kernels.append(kernel)
        return kernels


def weight_tables(spec: GridSpec) -> WeightTables:
    """Populate the weight tables from closed forms.

    For chi = sqrt(1+r^2) in dimension d:
        grad chi = x/chi,    D^2 chi = I/chi - x x^T / chi^3,
        lap chi = (d-1)/chi + 1/chi^3,
        lap^2 chi = (d-1)*((3-d) r^2 - d)/chi^5 + ((15-3d) r^2 - 3d)/chi^7,
    which reduces to lap chi = (3+2r^2)/chi^3 and lap^2 chi = -15/chi^7 at d=3.
    The |x| kernels are regularized at the origin node by averaging the closed
    form over the 2^d half-grid offsets.
    """
    d = spec.dim
    r2 = spec.radius_squared
    chi = np.sqrt(1.0 + r2)
    chi3 = chi**3
    chi5 = chi**5
    chi7 = chi**7

    grad_chi = np.stack(
        [np.broadcast_to(x, spec.shape) / chi for x in spec.coords]
    )
    lap_chi = (d - 1) / chi + 1.0 / chi3
    bilap_chi = (d - 1) * ((3 - d) * r2 - d) / chi5 + ((15 - 3 * d) * r2 - 3 * d) / chi7
    lambda_kernel = 15.0 / chi7

    return WeightTables(
        spec=spec,
        chi=chi,
        grad_chi=grad_chi,
        lap_chi=lap_chi,
        bilap_chi=bilap_chi,
        lambda_kernel=lambda_kernel,
    )
