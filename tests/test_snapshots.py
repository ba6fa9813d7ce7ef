import contextlib
import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls.cli import EXIT_CONFIG, main
from dnls.errors import DomainError
from dnls.grid import GridSpec
from dnls.snapshots import (
    LAYOUT_BAND,
    LAYOUT_GRID,
    MAGIC,
    Snapshot,
    load_snapshot,
    read_snapshot,
    write_snapshot,
)

from conftest import band_limited_random, grid_snapshots, peak_traced_bytes
from reference import write_snapshot_v1


def test_snapshot_roundtrip(tmp_path):
    spec = GridSpec(3, 16, 5.0)
    field = band_limited_random(spec, seed=4)
    path = tmp_path / "state.dnls"
    write_snapshot(path, grid_snapshots([(1.25, field)])[0])
    loaded, t = read_snapshot(path)
    assert t == 1.25
    assert loaded.spec == spec
    assert np.array_equal(loaded.values, field.values)


def test_snapshot_io_makes_no_copy_of_the_field(tmp_path):
    # the write sends the field's own buffer and the read fills one array
    spec = GridSpec(3, 24, 5.0)
    [snapshot] = grid_snapshots([(0.5, band_limited_random(spec, seed=4))])
    path = tmp_path / "state.dnls"
    write_snapshot(path, snapshot)
    read_snapshot(path)
    size = 16 * spec.size
    assert peak_traced_bytes(lambda: write_snapshot(path, snapshot)) < 0.1 * size
    assert peak_traced_bytes(lambda: read_snapshot(path)) < 1.1 * size


def test_snapshot_header_layout(tmp_path):
    # version 2: magic, version, dim, n, half-length and time, then step,
    # config hash, layout and a CRC32 of the 76 header bytes before it and the
    # payload
    spec = GridSpec(2, 16, 3.0)
    field = band_limited_random(spec, seed=1)
    path = tmp_path / "state.dnls"
    digest = "ab" * 32
    write_snapshot(path, Snapshot(0.5, 7, spec, field.values, False),
                   config_hash=digest)
    raw = path.read_bytes()
    header_size = struct.calcsize("<4sIIIddq32sII")
    assert header_size == 80
    magic, version, dim, n, length, time, step, hashed, layout, crc = struct.unpack(
        "<4sIIIddq32sII", raw[:header_size])
    assert magic == MAGIC
    assert (version, dim, n, step, layout) == (2, 2, 16, 7, LAYOUT_GRID)
    assert (length, time, hashed.hex()) == (3.0, 0.5, digest)
    assert crc == zlib.crc32(raw[header_size:], zlib.crc32(raw[:header_size - 4]))
    # payload is interleaved (re, im) float64 pairs in row-major order
    pairs = np.frombuffer(raw[header_size:], dtype="<f8").reshape(-1, 2)
    flat = field.values.reshape(-1)
    assert np.array_equal(pairs[:, 0], flat.real)
    assert np.array_equal(pairs[:, 1], flat.imag)


def test_band_snapshot_stores_the_retained_coefficients(tmp_path):
    # 11^2 of 16^2 coefficients in band_fft order; the file is read back
    # without a transform, and read_snapshot returns their band_ifft
    spec = GridSpec(2, 16, 3.0)
    field = band_limited_random(spec, seed=1)
    band = spec.band_fft(field.values, True)
    path = tmp_path / "state.dnls"
    write_snapshot(path, Snapshot(0.25, 3, spec, band, True))
    raw = path.read_bytes()
    assert len(raw) == 80 + 16 * 11**2
    assert struct.unpack_from("<I", raw, 72)[0] == LAYOUT_BAND
    assert np.array_equal(np.frombuffer(raw[80:], dtype="<c16").reshape(11, 11), band)
    loaded = load_snapshot(path)
    assert (loaded.t, loaded.step, loaded.spec, loaded.band, loaded.config_hash) == (
        0.25, 3, spec, True, None)
    assert np.array_equal(loaded.values, band)
    values, t = read_snapshot(path)
    assert t == 0.25
    assert np.array_equal(values.values, spec.band_ifft(band, True))
    assert np.max(np.abs(values.values - field.values)) <= 1e-15 * np.max(
        np.abs(field.values))


@pytest.mark.parametrize("band", [True, False])
def test_snapshot_refuses_a_payload_that_does_not_fit_its_layout(band):
    # the grid values do not fit the band layout, nor the band the grid's
    spec = GridSpec(2, 16, 3.0)
    values = np.zeros(spec.band_shape(not band), dtype=complex)
    with pytest.raises(DomainError, match="does not fit the layout"):
        Snapshot(0.5, 1, spec, values, band)


def test_snapshot_checksum_catches_a_changed_byte(tmp_path):
    spec = GridSpec(1, 16, 2.0)
    path = tmp_path / "state.dnls"
    write_snapshot(path, Snapshot(0.5, 2, spec, band_limited_random(spec, seed=3).values,
                                  False))
    raw = bytearray(path.read_bytes())
    for at in (26, 33, 45, 100):  # time, step, config hash and payload
        changed = bytearray(raw)
        changed[at] ^= 0x10
        path.write_bytes(bytes(changed))
        with pytest.raises(DomainError, match="checksum mismatch"):
            read_snapshot(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_snapshot_refuses_values_that_are_not_finite(tmp_path, value):
    spec = GridSpec(1, 16, 2.0)
    field = band_limited_random(spec, seed=3)
    field.values[5] = value
    path = tmp_path / "state.dnls"
    write_snapshot(path, grid_snapshots([(0.5, field)])[0])
    with pytest.raises(DomainError, match="not finite"):
        read_snapshot(path)


def test_snapshot_rejects_corruption(tmp_path):
    spec = GridSpec(1, 16, 2.0)
    field = band_limited_random(spec, seed=2)
    path = tmp_path / "state.dnls"
    write_snapshot(path, grid_snapshots([(0.0, field)])[0])
    raw = bytearray(path.read_bytes())

    truncated = tmp_path / "short.dnls"
    truncated.write_bytes(bytes(raw[:40]))
    with pytest.raises(DomainError):
        read_snapshot(truncated)

    raw[0:4] = b"XXXX"
    bad_magic = tmp_path / "bad.dnls"
    bad_magic.write_bytes(bytes(raw))
    with pytest.raises(DomainError):
        read_snapshot(bad_magic)


@pytest.mark.parametrize("dim, n, message", [
    (1, 3, "bad snapshot grid"),         # odd n: no GridSpec
    (3, 2**20, "truncated snapshot payload"),  # 2^60 points: refused unread
])
def test_snapshot_header_errors_name_the_file(tmp_path, dim, n, message):
    path = tmp_path / "corrupt.dnls"
    path.write_bytes(struct.pack("<4sIIIddq32sII", MAGIC, 2, dim, n, 2.0, 0.0,
                                 0, bytes(32), LAYOUT_GRID, 0) + bytes(64))
    with pytest.raises(DomainError, match=message) as excinfo:
        read_snapshot(path)
    assert str(path) in str(excinfo.value)


def test_failed_snapshot_rewrite_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    import dnls.snapshots as snapshots

    spec = GridSpec(2, 16, 5.0)
    path = tmp_path / "state.dnls"
    write_snapshot(path, grid_snapshots([(0.5, band_limited_random(spec, seed=1))])[0])
    original = path.read_bytes()

    class _BrokenFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    real_open = open
    monkeypatch.setattr(snapshots, "open",
                        lambda *a, **k: _BrokenFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_snapshot(path,
                       grid_snapshots([(1.0, band_limited_random(spec, seed=2))])[0])
    monkeypatch.undo()

    assert path.read_bytes() == original
    assert [p.name for p in tmp_path.iterdir()] == ["state.dnls"]
    assert read_snapshot(path)[1] == 0.5


# -- corrupted snapshot bytes ----------------------------------------------------

FUZZ_RUN = """\
[grid]
dim = 1
n = 16
box_half_length = 5.0

[geometry]
preset = identity
damping_radius = 2.0

[solver]
dt = 0.01
duration = 0.04

[observables]
local_radius = 1.0

[scattering]
snapshot_every = 1
"""


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A run of five band snapshots, and the bytes of its third as a band
    file and as a grid file."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "run.ini"
    config.write_text(FUZZ_RUN)
    run = root / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run),
                 "--quiet"]) == 0
    target = run / json.loads((run / "manifest.json").read_text())["snapshots"][2]
    field, t = read_snapshot(target)
    write_snapshot(root / "grid.dnls", Snapshot(t, 2, field.spec, field.values, False))
    kinds = {"band": target.read_bytes(),
             "grid": (root / "grid.dnls").read_bytes()}
    return root, config, target, kinds


def _one_line_exit_2(argv) -> bool:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code == EXIT_CONFIG and len(err.getvalue().strip().splitlines()) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupt_snapshot_bytes_raise_domain_error_and_exit_2(fuzz_run, data):
    # a truncation at any length, a changed header byte or a changed payload
    # byte: the reader raises DomainError and nothing else, and dnls scatter
    # and simulate --resume on the file exit 2 on one line
    root, config, target, kinds = fuzz_run
    kind = data.draw(st.sampled_from(sorted(kinds)))
    raw = bytearray(kinds[kind])
    header = 80
    change = data.draw(st.sampled_from(["truncate", "header", "payload"]))
    if change == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        at = data.draw(st.integers(*((0, header - 1) if change == "header"
                                     else (header, len(raw) - 1))))
        raw[at] ^= data.draw(st.integers(1, 255))
    original = target.read_bytes()
    target.write_bytes(bytes(raw))
    try:
        with pytest.raises(DomainError):
            read_snapshot(target)
        assert _refused_by_the_cli(root, config, target)
    finally:
        target.write_bytes(original)


def _refused_by_the_cli(root, config, target) -> bool:
    """dnls scatter on the run whose snapshot ``target`` is, and simulate
    --resume from it, each exit 2 on one line."""
    return (_one_line_exit_2(["scatter", "--manifest",
                              str(target.parent / "manifest.json"),
                              "--out", str(root / "scatter"), "--quiet"])
            and _one_line_exit_2(["simulate", "--config", str(config), "--out",
                                  str(root / "resumed"), "--quiet",
                                  "--resume", str(target)]))


def test_version_1_snapshots_are_refused(tmp_path):
    # a version-1 file (a 32-byte header and the grid values, no checksum):
    # the reader refuses it by its version and names the file
    spec = GridSpec(2, 16, 3.0)
    path = tmp_path / "v1.dnls"
    write_snapshot_v1(path, band_limited_random(spec, seed=4), 0.25)
    with pytest.raises(DomainError,
                       match="unsupported snapshot version 1") as excinfo:
        load_snapshot(path)
    assert str(path) in str(excinfo.value)
    with pytest.raises(DomainError, match="unsupported snapshot version 1"):
        read_snapshot(path)
