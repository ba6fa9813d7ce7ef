import struct

import numpy as np
import pytest

from dnls.errors import DomainError
from dnls.grid import GridSpec
from dnls.snapshots import MAGIC, read_snapshot, read_snapshot_time, write_snapshot

from conftest import band_limited_random, peak_traced_bytes


def test_snapshot_roundtrip(tmp_path):
    spec = GridSpec(3, 16, 5.0)
    field = band_limited_random(spec, seed=4)
    path = tmp_path / "state.dnls"
    write_snapshot(path, field, 1.25)
    loaded, t = read_snapshot(path)
    assert t == 1.25
    assert loaded.spec == spec
    assert np.array_equal(loaded.values, field.values)


def test_snapshot_io_makes_no_copy_of_the_field(tmp_path):
    # the write sends the field's own buffer and the read fills one array
    spec = GridSpec(3, 24, 5.0)
    field = band_limited_random(spec, seed=4)
    path = tmp_path / "state.dnls"
    write_snapshot(path, field, 0.5)
    read_snapshot(path)
    size = 16 * spec.size
    assert peak_traced_bytes(lambda: write_snapshot(path, field, 0.5)) < 0.1 * size
    assert peak_traced_bytes(lambda: read_snapshot(path)) < 1.1 * size


def test_snapshot_time_is_read_from_the_header(tmp_path):
    spec = GridSpec(2, 16, 3.0)
    path = tmp_path / "state.dnls"
    write_snapshot(path, band_limited_random(spec, seed=1), 0.75)
    assert read_snapshot_time(path) == 0.75
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DomainError, match="truncated snapshot payload"):
        read_snapshot_time(path)


def test_snapshot_header_layout(tmp_path):
    spec = GridSpec(2, 16, 3.0)
    field = band_limited_random(spec, seed=1)
    path = tmp_path / "state.dnls"
    write_snapshot(path, field, 0.5)
    raw = path.read_bytes()
    header_size = struct.calcsize("<4sIIIdd")
    magic, version, dim, n, length, time = struct.unpack("<4sIIIdd", raw[:header_size])
    assert magic == MAGIC
    assert (version, dim, n) == (1, 2, 16)
    assert (length, time) == (3.0, 0.5)
    # payload is interleaved (re, im) float64 pairs in row-major order
    pairs = np.frombuffer(raw[header_size:], dtype="<f8").reshape(-1, 2)
    flat = field.values.reshape(-1)
    assert np.array_equal(pairs[:, 0], flat.real)
    assert np.array_equal(pairs[:, 1], flat.imag)


def test_snapshot_rejects_corruption(tmp_path):
    spec = GridSpec(1, 16, 2.0)
    field = band_limited_random(spec, seed=2)
    path = tmp_path / "state.dnls"
    write_snapshot(path, field, 0.0)
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
    path.write_bytes(struct.pack("<4sIIIdd", MAGIC, 1, dim, n, 2.0, 0.0)
                     + bytes(64))
    with pytest.raises(DomainError, match=message) as excinfo:
        read_snapshot(path)
    assert str(path) in str(excinfo.value)


def test_failed_snapshot_rewrite_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    import dnls.snapshots as snapshots

    spec = GridSpec(2, 16, 5.0)
    path = tmp_path / "state.dnls"
    write_snapshot(path, band_limited_random(spec, seed=1), 0.5)
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
        write_snapshot(path, band_limited_random(spec, seed=2), 1.0)
    monkeypatch.undo()

    assert path.read_bytes() == original
    assert [p.name for p in tmp_path.iterdir()] == ["state.dnls"]
    assert read_snapshot(path)[1] == 0.5
