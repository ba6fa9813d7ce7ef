"""The package's results have the same bits at any BLAS thread count.

OpenBLAS splits a long dot product or matrix-vector product over its threads,
one per core by default, so a BLAS reduction rounds differently with the
thread count. The grid-sized reductions go through ``grid.dot``, which does
not call BLAS. The metric flux does: ``grid.FluxKernel`` applies its
restricted DFT matrices as small complex matrix products, and OpenBLAS
divides those between its threads by blocks of the output, so each entry
keeps one summation order. This test runs the same record, scan and flux
applies at 1 and at 2 BLAS threads, in two fresh interpreters, and compares
the bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One full-bundle record of every golden monitor field (2-d and 3-d), a
# Cauchy scan at 128^2 and 24^3, and one conformal and one rank-one flux
# apply at 24^3; prints every value as float.hex.
CHILD = """
import json
import numpy as np
from test_observables import GOLDEN_MONITOR_PRESETS, _golden_monitor_values
from dnls.geometry import MetricField
from dnls.grid import FluxKernel, GridSpec
from dnls.observables import smooth_random_field
from dnls.scattering import cauchy_scan
from conftest import grid_snapshots

out = {}
for preset in GOLDEN_MONITOR_PRESETS:
    for dim in (2, 3):
        for name, value in _golden_monitor_values(preset, dim).items():
            out[f"{preset}-{dim}d {name}"] = float(value).hex()
for dim, n in ((2, 128), (3, 24)):
    spec = GridSpec(dim, n, 8.0)
    snapshots = grid_snapshots([(0.1 * i, smooth_random_field(spec, seed=i))
                                for i in range(4)])
    for s, matrix in cauchy_scan(snapshots).cauchy.items():
        out[f"scan {dim}d s={s}"] = [float(x).hex() for x in matrix.ravel()]
spec = GridSpec(3, 24, 8.0)
band = spec.retained(True)
coeffs = spec.fft(smooth_random_field(spec, seed=7).values)[np.ix_(*[band] * 3)]
for direction in (None, (1.0, 2.0, -0.5)):
    metric = MetricField(spec, amplitude=-0.5, radius=2.5, direction=direction)
    flux = FluxKernel(spec, metric.perturbation, metric.direction, band)(coeffs)
    out[f"flux {metric.conformal}"] = [float(x).hex() for x in flux.view(float).ravel()]
print(json.dumps(out))
"""


def _values_at(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_record_and_scan_have_the_same_bits_at_one_and_two_blas_threads():
    one, two = _values_at(1), _values_at(2)
    assert sorted(one) == sorted(two)
    differ = [key for key in one if one[key] != two[key]]
    assert differ == []
