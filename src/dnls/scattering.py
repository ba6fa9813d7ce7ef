"""Scattering detection: free-flow pullback, Cauchy scan, profile extraction.

The monitored quantity is v(t) = e^{-it lap} u(t), computed exactly on the
torus by the e^{+i|k|^2 t} multiplier. Convergence of v(t) is certified by the
pairwise H^s Cauchy matrix over stored snapshots; the profile is the pullback
at the final time.

The pullback is a unit-modulus Fourier multiplier, so the scan works on the
coefficients v_hat_i = e^{+i|k|^2 t_i} u_hat_i and never goes back to real
space. A :class:`snapshots.Snapshot` that holds the retained band of a
dealiased run (a v2 band file, or a snapshot ``simulate`` handed out) gives
u_hat_i without a transform, and the scan runs on the band: the free factors
and the H^s rows restricted to the retained modes, 33^3 of 48^3 at n = 48.
Any other snapshot, a (t, field) pair or a grid-layout file, costs one
transform. So m band snapshots cost no transform in ``cauchy_scan`` and one
in ``extract_profile`` (u_plus = band_ifft(v_hat_last)); m grid snapshots
cost m and m + 1, whatever the number of pairs or exponents. One scan takes
one layout: a mix of band and grid snapshots is a grid mismatch. Each Cauchy
entry is sqrt(volume * sum_k (1+|k|^2)^s |v_hat_i - v_hat_j|^2), one squared
difference per pair reduced against every exponent's weights at once. Since
e^{it lap} preserves the H^s norm, ||u(t_i) - e^{it_i lap} u_plus||_{H^s} =
||v_i - v_last||_{H^s}: the mismatch series is the last Cauchy row, and the
final mismatch is 0 by construction.

The snapshots may come from any iterable, a generator reading files one at a
time included: each is turned into its coefficients as it arrives and is not
kept, so a scan holds the m coefficient arrays and one snapshot.

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

SnapshotLike = Snapshot | tuple[float, Field]


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
    u_plus: Field | None = None
    # the retained coefficients of u_plus when the snapshots held their band
    u_plus_band: np.ndarray | None = None
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
    snapshots: Iterable[SnapshotLike],
) -> tuple[np.ndarray, GridSpec, bool, list[np.ndarray]]:
    """Times, grid, layout (True for the band) and pullback coefficients
    e^{+i|k|^2 t} u_hat of the snapshots, in the order given: a band snapshot
    times the band's free factors, any other one transform and the grid's;
    no snapshot is kept."""
    times: list[float] = []
    coeffs: list[np.ndarray] = []
    layout = None
    for snapshot in snapshots:
        band = snapshot.band if isinstance(snapshot, Snapshot) else None
        if band is not None:
            t, spec = snapshot.t, snapshot.spec
        else:
            t, u = snapshot
            spec = u.spec
        if times and not t > times[-1]:
            raise DomainError("snapshot times must be strictly increasing")
        if layout is None:
            layout = (spec, band is not None)
        elif spec != layout[0]:
            raise GridMismatchError("snapshots live on different grids")
        elif (band is not None) != layout[1]:
            raise GridMismatchError("snapshots mix the band and grid layouts")
        factors = spec.free_factors(-t, layout[1])
        # the band is the snapshot's own, so its first factor makes the copy
        if band is not None:
            pulled, factors = band * factors[0], factors[1:]
        else:
            pulled = spec.fft(u.values)
        for factor in factors:
            pulled *= factor
        times.append(t)
        coeffs.append(pulled)
        # the loop variables would hold the snapshot until the next arrives
        snapshot = band = u = None
    if len(coeffs) < 3:
        raise SamplingError(
            f"cauchy scan needs at least 3 snapshots, got {len(coeffs)}"
        )
    return np.asarray(times), *layout, coeffs


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
    snapshots: Iterable[SnapshotLike],
    s_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    tol_mono: float = 0.05,
) -> ScatterReport:
    """Pairwise H^s distances of the pullbacks v(t_i) = e^{-i t_i lap} u(t_i)."""
    return _scan(*_pulled_coefficients(snapshots), s_values, tol_mono)


def extract_profile(
    snapshots: Iterable[SnapshotLike],
    s_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    tol_mono: float = 0.05,
) -> ScatterReport:
    """Complete report: Cauchy scan plus the profile u_plus = pullback at T and
    the mismatch ||u(t) - e^{it lap} u_plus||_{H^s} over the snapshots, which
    equals the last Cauchy row by H^s isometry of the free flow."""
    times, spec, band, coeffs = _pulled_coefficients(snapshots)
    report = _scan(times, spec, band, coeffs, s_values, tol_mono)
    if band:
        report.u_plus = Field(spec.band_ifft(coeffs[-1], True), spec)
        report.u_plus_band = coeffs[-1]
    else:
        report.u_plus = Field(spec.ifft(coeffs[-1]), spec)
    for s in report.s_values:
        report.mismatch[s] = report.cauchy[s][-1].copy()
        report.final_mismatch[s] = float(report.mismatch[s][-1])
    return report
