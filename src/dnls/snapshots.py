"""Binary field snapshot format.

Version 2, which the package writes (little-endian): magic ``DNLS``,
version u32, dim u32, n_per_axis u32, half-length f64, time f64, step i64
(the run's step index), config hash (32 bytes: the SHA-256 digest of the
run's configuration, zeros if none was given), layout u32, then a CRC32 u32
of the 76 header bytes before it and the payload. The payload is complex128
values as interleaved (re, im) float64 pairs in row-major order, in one of
two layouts:

* ``LAYOUT_BAND`` (1): the retained Fourier coefficients of a dealiased run,
  shape (nb,) * dim with nb = 2 (n // 3) + 1, in the order of
  :meth:`GridSpec.band_fft`; 33^3 coefficients or 575 kB at n = 48;
* ``LAYOUT_GRID`` (0): the grid values, n^dim of them (1.77 MB at 48^3), for
  a run without dealiasing.

Version 1, still read: magic, version, dim, n, half-length and time as in
version 2 (32 bytes), then the grid values; no step, hash or checksum.

Every file the package writes, snapshots and CLI outputs alike, goes
through :func:`atomic_open`, so a crash mid-write never leaves a torn file.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DomainError
from .grid import Field, GridSpec

MAGIC = b"DNLS"
VERSION = 2
LAYOUT_GRID, LAYOUT_BAND = 0, 1
_HEADER_V1 = struct.Struct("<4sIIIdd")
_HEADER = struct.Struct("<4sIIIddq32sII")
_NO_HASH = bytes(32)


class Snapshot:
    """One state of a run: time ``t``, step index ``step`` and either its
    retained Fourier coefficients ``band`` (:meth:`GridSpec.band_fft` of a
    dealiased run) or its grid field.

    :func:`solver.simulate` hands its sink snapshots that hold both, the
    field being the run's state itself; :func:`load_snapshot` returns one that
    holds what the file stores, so a band file is read without a transform.
    A snapshot reads as the pair (t, u), the form the scan also takes.
    ``config_hash`` is the hex digest a file records, None if it records none.
    """

    def __init__(self, t: float, step: int, spec: GridSpec, *,
                 field: Field | None = None, band: np.ndarray | None = None,
                 config_hash: str | None = None):
        self.t, self.step, self.spec = t, step, spec
        self.band, self._field, self.config_hash = band, field, config_hash

    @property
    def field(self) -> Field:
        """The state on the grid: the field held, else :meth:`GridSpec.band_ifft`
        of the band."""
        if self._field is not None:
            return self._field
        return Field(self.spec.band_ifft(self.band, True), self.spec)

    def __iter__(self):
        yield self.t
        yield self.field

    def __getitem__(self, index: int):
        return (self.t, self.field)[index]

    def __len__(self) -> int:
        return 2


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """Write through a temp file beside ``path`` that replaces it in one step.

    The block writes to ``.<name>.tmp`` in the same directory; on a clean exit
    ``os.replace`` moves it onto ``path``, on an error it is removed. Readers
    of ``path`` see the complete old or the complete new file, never a part.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_snapshot(path: str | Path, field: Field, time: float, *, step: int = 0,
                   config_hash: str | None = None,
                   band: np.ndarray | None = None) -> None:
    """Store ``field`` at ``time`` and ``step`` in ``path`` (version 2),
    writing the field's own buffer (no copy unless it is not little-endian
    contiguous complex128). ``band``, the retained coefficients of a dealiased
    field, is stored in its place when given; ``config_hash`` is the run's
    hex digest."""
    spec = field.spec
    layout, data = (LAYOUT_GRID, field.values) if band is None else (LAYOUT_BAND, band)
    payload = np.ascontiguousarray(data, dtype="<c16")
    if payload.shape != spec.band_shape(layout == LAYOUT_BAND):
        raise DomainError(f"snapshot payload of shape {payload.shape} does not "
                          f"fit the layout on {spec}")
    digest = _NO_HASH if config_hash is None else bytes.fromhex(config_hash)
    head = _HEADER.pack(MAGIC, VERSION, spec.dim, spec.n, spec.length,
                        float(time), step, digest, layout, 0)[:-4]
    crc = zlib.crc32(payload.data, zlib.crc32(head))
    with atomic_open(path, "wb") as fh:
        fh.write(head + struct.pack("<I", crc))
        fh.write(payload.data)


def _read_header(fh, path) -> tuple[Snapshot, bool, int | None, bytes]:
    """The snapshot open in ``fh`` without its payload, whether that payload
    is the band, its stored CRC32 (None for version 1) and the header bytes
    the CRC covers. The size of the file is checked against the header, which
    leaves ``fh`` at the start of the payload."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER_V1.size:
        raise DomainError(f"{path}: truncated snapshot header")
    magic, version, dim, n, length, time = _HEADER_V1.unpack_from(raw)
    if magic != MAGIC:
        raise DomainError(f"{path}: bad magic {magic!r}")
    if version == 1:
        header_size, step, digest, layout, crc = (_HEADER_V1.size, 0, _NO_HASH,
                                                  LAYOUT_GRID, None)
    elif version == VERSION:
        if len(raw) != _HEADER.size:
            raise DomainError(f"{path}: truncated snapshot header")
        header_size = _HEADER.size
        *_, step, digest, layout, crc = _HEADER.unpack(raw)
    else:
        raise DomainError(f"{path}: unsupported snapshot version {version}")
    try:
        spec = GridSpec(dim, n, length)
    except DomainError as exc:
        raise DomainError(f"{path}: bad snapshot grid: {exc}") from exc
    if not (np.isfinite(time) and step >= 0 and layout in (LAYOUT_GRID, LAYOUT_BAND)):
        raise DomainError(f"{path}: bad snapshot header (time {time}, step {step}, "
                          f"layout {layout})")
    band = layout == LAYOUT_BAND
    # checked before reading, so a corrupt header allocates nothing
    expected = header_size + 16 * math.prod(spec.band_shape(band))
    size = os.fstat(fh.fileno()).st_size
    if size < expected:
        raise DomainError(f"{path}: truncated snapshot payload")
    if size > expected:
        raise DomainError(f"{path}: {size - expected} bytes past the snapshot payload")
    fh.seek(header_size)
    snapshot = Snapshot(float(time), step, spec,
                        config_hash=None if digest == _NO_HASH else digest.hex())
    return snapshot, band, crc, raw[:header_size - 4]


def read_snapshot_time(path: str | Path) -> float:
    """The time stored at ``path``, read from the header alone; a file whose
    header or size is not a snapshot's raises as :func:`read_snapshot` does."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0].t


def load_snapshot(path: str | Path) -> Snapshot:
    """The :class:`Snapshot` stored at ``path`` as the file holds it: the band
    coefficients of a band file (no transform), else the grid field. A file
    that is not a complete snapshot, fails its checksum or holds a value that
    is not finite raises a :class:`DomainError` naming it."""
    with open(path, "rb") as fh:
        snapshot, band, crc, head = _read_header(fh, path)
        values = np.empty(snapshot.spec.band_shape(band), dtype="<c16")
        if fh.readinto(values.data.cast("B")) != values.nbytes:
            raise DomainError(f"{path}: truncated snapshot payload")
    if crc is not None and zlib.crc32(values.data, zlib.crc32(head)) != crc:
        raise DomainError(f"{path}: snapshot checksum mismatch")
    # min and max carry any nan, and neither makes a temporary array
    flat = values.view(np.float64)
    if not (np.isfinite(flat.min()) and np.isfinite(flat.max())):
        raise DomainError(f"{path}: snapshot holds values that are not finite")
    if band:
        snapshot.band = values
    else:
        snapshot._field = Field(values, snapshot.spec)
    return snapshot


def read_snapshot(path: str | Path) -> tuple[Field, float]:
    """The field and time stored at ``path``: the grid values, or
    :meth:`GridSpec.band_ifft` of a band file's coefficients; a file that is
    not a complete snapshot raises as :func:`load_snapshot` does."""
    snapshot = load_snapshot(path)
    return snapshot.field, snapshot.t
