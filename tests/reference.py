"""Generic d x d references for the structured operators of the package.

The package uses G = I + p S only through its structure: the scalar p
(``MetricField.perturbation``) and S = I or v v^T (``MetricField.direction``).
The dense tables below are what that structure stands for; the tests compare
the package against them, so the package does not ship them.
"""

import numpy as np


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
