"""Scattering detection: free-flow pullback, Cauchy scan, profile extraction.

The monitored quantity is v(t) = e^{-it lap} u(t), computed exactly on the
torus by the e^{+i|k|^2 t} multiplier. Convergence of v(t) is certified by the
pairwise H^s Cauchy matrix over stored snapshots; the profile is the pullback
at the final time.

The pullback is a unit-modulus Fourier multiplier, so the scan works on the
coefficients v_hat_i = e^{+i|k|^2 t_i} u_hat_i and never goes back to real
space. A :class:`snapshots.Snapshot` of a dealiased run holds its retained
band (a v2 band file, or a snapshot ``simulate`` handed out) and gives
u_hat_i without a transform, and the scan runs on the band: the free factors
and the H^s rows restricted to the retained modes, 33^3 of 48^3 at n = 48.
A grid-layout snapshot (a run without dealiasing, or a v1 file) costs one
transform. So m band snapshots cost no transform in ``cauchy_scan`` or in
``extract_profile``, whose u_plus is the last coefficients as a band
snapshot; m grid snapshots cost m and m + 1 (u_plus = ifft(v_hat_last)),
whatever the number of pairs or exponents. One scan takes one layout: a mix
of band and grid snapshots is a grid mismatch. Each Cauchy entry is
sqrt(volume * sum_k (1+|k|^2)^s |v_hat_i - v_hat_j|^2), one squared
difference per pair reduced against every exponent's weights at once. Since
e^{it lap} preserves the H^s norm, ||u(t_i) - e^{it_i lap} u_plus||_{H^s} =
||v_i - v_last||_{H^s}: the mismatch series is the last Cauchy row, and the
final mismatch is 0 by construction.

The snapshots may come in any order and from any iterable, a generator
reading files one at a time included: each is turned into its coefficients
as it arrives and is not kept, so a scan holds the m coefficient arrays and
one snapshot, and it orders the coefficients by time.

The module works on snapshots alone and depends on ``grid``, ``snapshots``
and ``errors`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, GridMismatchError, SamplingError
from .grid import (  # noqa: F401  (sobolev_norm: perfbench traces it here)
    Field,
    GridSpec,
    sobolev_norm,
    sobolev_norms,
)
from .snapshots import Snapshot

__all__ = [
    "ScatterReport",
    "free_pullback",
    "free_evolve",
    "cauchy_scan",
    "extract_profile",
]


def _free_coefficients(u: Field, t: float) -> np.ndarray:
    """Fourier coefficients of exp(i t lap) u: fft(u) times the
    :meth:`GridSpec.free_factors` of t, in place."""
    coeffs = u.spec.fft(u.values)
    for factor in u.spec.free_factors(t):
        coeffs *= factor
    return coeffs


def free_evolve(u: Field, t: float) -> Field:
    """exp(i t lap) u via the e^{-i|k|^2 t} multiplier (exact on the torus)."""
    return Field(u.spec.ifft(_free_coefficients(u, t)), u.spec)


def free_pullback(u: Field, t: float) -> Field:
    """exp(-i t lap) u, the inverse of the free evolution."""
    return free_evolve(u, -t)


@dataclass
class ScatterReport:
    """Cauchy matrices, per-exponent verdicts, and the extracted profile."""

    times: np.ndarray
    s_values: tuple[float, ...]
    cauchy: dict[float, np.ndarray]
    verdicts: dict[float, bool]
    u_plus: Snapshot | None = None
    mismatch: dict[float, np.ndarray] = field(default_factory=dict)
    final_mismatch: dict[float, float] = field(default_factory=dict)


def _monotone_tail_verdict(
    times: np.ndarray, last_row: np.ndarray, tol_mono: float
) -> bool:
    """Entries D[last][j] must decrease in j over the final half of the horizon,
    allowing tol_mono relative slack per consecutive pair."""
    last = len(times) - 1
    half_time = times[0] + 0.5 * (times[last] - times[0])
    js = [j for j in range(last) if times[j] >= half_time]
    if len(js) < 2:
        js = list(range(max(0, last - 3), last))
    entries = last_row[js]
    for prev, cur in zip(entries[:-1], entries[1:]):
        if cur > prev * (1.0 + tol_mono) + 1e-15:
            return False
    return True


def _pulled_coefficients(
    snapshots: Iterable[Snapshot],
) -> tuple[np.ndarray, int, GridSpec, bool, list[np.ndarray]]:
    """Times in increasing order, the step of the last, grid, layout (True
    for the band) and pullback coefficients e^{+i|k|^2 t} u_hat of the
    snapshots in that order: a band snapshot's coefficients times the band's
    free factors, a grid one's transform times the grid's; no snapshot is
    kept."""
    pulled: list[tuple[float, int, np.ndarray]] = []
    layout = None
    for snapshot in snapshots:
        spec, band = snapshot.spec, snapshot.band
        if layout is None:
            layout = (spec, band)
        elif spec != layout[0]:
            raise GridMismatchError("snapshots live on different grids")
        elif band != layout[1]:
            raise GridMismatchError("snapshots mix the band and grid layouts")
        factors = spec.free_factors(-snapshot.t, band)
        # the band is the snapshot's own, so its first factor makes the copy
        if band:
            coeffs, factors = snapshot.values * factors[0], factors[1:]
        else:
            coeffs = spec.fft(snapshot.values)
        for factor in factors:
            coeffs *= factor
        pulled.append((snapshot.t, snapshot.step, coeffs))
        # the loop variable would hold the snapshot until the next arrives
        snapshot = None
    if len(pulled) < 3:
        raise SamplingError(
            f"cauchy scan needs at least 3 snapshots, got {len(pulled)}"
        )
    pulled.sort(key=lambda entry: entry[0])
    times, steps, coeffs = zip(*pulled)
    for earlier, later in zip(times, times[1:]):
        if not later > earlier:
            raise DomainError("snapshot times must be strictly increasing once "
                              f"ordered; t = {later:g} repeats")
    return np.asarray(times), steps[-1], *layout, list(coeffs)


def _difference_power(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|^2, :func:`grid.abs2`'s re^2 + im^2 of the difference with its
    (re, im) pairs squared in place: it holds the difference and the
    half-size result, and no other temporary."""
    squares = (a - b).view(np.float64)
    np.square(squares, out=squares)
    return squares[..., 0::2] + squares[..., 1::2]


def _scan(
    times: np.ndarray,
    spec: GridSpec,
    band: bool,
    coeffs: list[np.ndarray],
    s_values: Sequence[float],
    tol_mono: float,
) -> ScatterReport:
    """H^s Cauchy matrices of the pullbacks from their Fourier coefficients.

    Each pair's |v_hat_i - v_hat_j|^2 is formed once, as a direct difference
    so small entries keep their relative accuracy, and reduced against every
    exponent at once by :func:`grid.sobolev_norms`, on the band's rows for
    band coefficients.
    """
    # a nan slack would pass every monotone-tail verdict
    if not 0 <= tol_mono < np.inf:
        raise DomainError(f"tol_mono must be finite and >= 0, got {tol_mono}")
    s_values = tuple(float(s) for s in s_values)
    m = len(coeffs)
    matrices = np.zeros((len(s_values), m, m))
    for i in range(m):
        for j in range(i + 1, m):
            matrices[:, i, j] = matrices[:, j, i] = sobolev_norms(
                _difference_power(coeffs[i], coeffs[j]), spec, s_values, band)
    cauchy = dict(zip(s_values, matrices))
    verdicts = {s: _monotone_tail_verdict(times, cauchy[s][-1], tol_mono)
                for s in s_values}
    return ScatterReport(times, s_values, cauchy, verdicts)


def cauchy_scan(
    snapshots: Iterable[Snapshot],
    s_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    tol_mono: float = 0.05,
) -> ScatterReport:
    """Pairwise H^s distances of the pullbacks v(t_i) = e^{-i t_i lap} u(t_i),
    the snapshots taken in the order of their times."""
    times, _, *layout, coeffs = _pulled_coefficients(snapshots)
    return _scan(times, *layout, coeffs, s_values, tol_mono)


def extract_profile(
    snapshots: Iterable[Snapshot],
    s_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    tol_mono: float = 0.05,
) -> ScatterReport:
    """Complete report: Cauchy scan plus the profile u_plus = pullback at the
    last time, a :class:`Snapshot` at that time and step in the snapshots'
    layout, and the mismatch ||u(t) - e^{it lap} u_plus||_{H^s} over the
    snapshots, which equals the last Cauchy row by H^s isometry of the free
    flow."""
    times, step, spec, band, coeffs = _pulled_coefficients(snapshots)
    report = _scan(times, spec, band, coeffs, s_values, tol_mono)
    last = coeffs[-1] if band else spec.ifft(coeffs[-1])
    report.u_plus = Snapshot(float(times[-1]), step, spec, last, band)
    for s in report.s_values:
        report.mismatch[s] = report.cauchy[s][-1].copy()
        report.final_mismatch[s] = float(report.mismatch[s][-1])
    return report
