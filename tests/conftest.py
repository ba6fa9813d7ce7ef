import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import settings

import dnls.grid
from dnls.geometry import build_preset
from dnls.grid import Field, GridSpec, weight_tables
from dnls.observables import Frame, standard_monitors
from dnls.snapshots import Snapshot
from dnls.solver import SimulationState

# CI runs with HYPOTHESIS_PROFILE=ci: examples are derived from the test
# itself, and a failure prints the blob that replays it locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def gaussian_field(spec: GridSpec, amplitude=0.5, width=1.0, momentum=0.0) -> Field:
    """Centered Gaussian packet, optionally boosted along the first axis."""
    values = amplitude * np.exp(-spec.radius_squared / (2.0 * width**2))
    if momentum:
        values = values * np.exp(
            1j * momentum * np.broadcast_to(spec.coords[0], spec.shape)
        )
    return Field(values.astype(np.complex128), spec)


def band_limited_random(spec: GridSpec, seed=0, k_scale=1.5) -> Field:
    """Random field restricted to the dealias band with a Gaussian envelope."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    coeffs *= np.exp(-spec.k_squared / k_scale**2)
    coeffs[~spec.dealias_mask] = 0.0
    return Field(spec.ifft(coeffs), spec)


def grid_snapshots(pairs) -> list[Snapshot]:
    """Grid-layout snapshots of (t, field) pairs, the i-th at step i."""
    return [Snapshot(t, step, u.spec, u.values, False)
            for step, (t, u) in enumerate(pairs)]


def peak_traced_bytes(fn) -> int:
    """The most memory ``fn()`` held at once, as tracemalloc counts it (numpy
    arrays included); warm any cache ``fn`` fills before measuring."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def local_monitors(spec: GridSpec, radius: float) -> dict:
    """The run's ``local_energy`` monitor on B(0, radius), by name, built as
    ``simulate`` builds it."""
    metric, damping = build_preset("identity", spec, {"damping_amplitude": 0.0,
                                                      "damping_radius": 1.0})
    monitors = standard_monitors(metric, damping, weight_tables(spec),
                                 local_radius=radius)
    return {m.name: m for m in monitors if m.name == "local_energy"}


def local_integrals(u: Field, radius: float) -> dict[str, float]:
    """The quadrature of |u|^2 + |grad u|^2 over B(0, radius), by name, as
    the ``local_energy`` monitor records it."""
    state, frame = SimulationState(u, 0.0, 0), Frame(u)
    return {name: mon.fn(state, frame)
            for name, mon in local_monitors(u.spec, radius).items()}


def logged_transforms(monkeypatch) -> list[tuple]:
    """Route the ``scipy.fft`` calls of ``dnls.grid`` through a log, and
    return it: each call appends (name, axis, lines, input). A one-axis
    transform (``fft``, ``rfft``, ...) takes ``lines`` one-dimensional lines,
    its input's size over the length of its axis; an n-d one (``fftn``, ...)
    logs None for both."""
    log = []

    class Logged:
        def __getattr__(self, name):
            fn = getattr(scipy.fft, name)

            def logged(x, *args, **kwargs):
                axis = None if name.endswith("n") else kwargs.get("axis", -1)
                lines = None if axis is None else x.size // x.shape[axis]
                log.append((name, axis, lines, x))
                return fn(x, *args, **kwargs)

            return logged

    monkeypatch.setattr(dnls.grid, "_fft", Logged())
    return log


@pytest.fixture(autouse=True)
def _silence_wraparound_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*boundary-shell mass.*")
        warnings.filterwarnings("ignore", message=".*exterior control.*")
        yield
