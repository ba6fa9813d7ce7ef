"""Binary field snapshot format.

Version 2, the one the package writes and reads (little-endian): magic
``DNLS``, version u32, dim u32, n_per_axis u32, half-length f64, time f64,
step i64 (the run's step index), config hash (32 bytes: the SHA-256 digest
of the run's configuration, zeros if none was given), layout u32, then a
CRC32 u32 of the 76 header bytes before it and the payload. The payload is complex128
values as interleaved (re, im) float64 pairs in row-major order, in one of
two layouts:

* ``LAYOUT_BAND`` (1): the retained Fourier coefficients of a dealiased run,
  shape (nb,) * dim with nb = 2 (n // 3) + 1, in the order of
  :meth:`GridSpec.band_fft`; 33^3 coefficients or 575 kB at n = 48;
* ``LAYOUT_GRID`` (0): the grid values, n^dim of them (1.77 MB at 48^3), for
  a run without dealiasing.

Any other version is refused: version 1 files (a 32-byte header and the
grid values) carry no checksum, so a corrupt one could read silently.

Every file the package writes, snapshots and CLI outputs alike, goes
through :func:`atomic_open`, so a crash mid-write never leaves a torn file.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .grid import Field, GridSpec

MAGIC = b"DNLS"
VERSION = 2
LAYOUT_GRID, LAYOUT_BAND = 0, 1
_HEADER = struct.Struct("<4sIIIddq32sII")
_NO_HASH = bytes(32)


@dataclass(eq=False)
class Snapshot:
    """One stored state of a run: time ``t``, step index ``step``, its grid
    and one payload ``values``, the retained Fourier coefficients
    (:meth:`GridSpec.band_fft` order) of a dealiased run when ``band``, the
    grid values otherwise.

    :func:`solver.simulate` hands its sink the band its closing band limit
    computed, or the grid values of a run without dealiasing;
    :func:`load_snapshot` returns what the file stores, and
    :func:`write_snapshot` stores the layout it is given. ``config_hash`` is
    the hex digest a file records, None if it records none.
    """

    t: float
    step: int
    spec: GridSpec
    values: np.ndarray
    band: bool
    config_hash: str | None = None

    def __post_init__(self):
        if self.values.shape != self.spec.band_shape(self.band):
            raise DomainError(f"snapshot payload of shape {self.values.shape} "
                              f"does not fit the layout on {self.spec}")

    @property
    def field(self) -> Field:
        """The state on the grid: the grid values, or
        :meth:`GridSpec.band_ifft` of the band."""
        if self.band:
            return Field(self.spec.band_ifft(self.values, True), self.spec)
        return Field(self.values, self.spec)


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


def write_snapshot(path: str | Path, snapshot: Snapshot, *,
                   config_hash: str | None = None) -> None:
    """Store ``snapshot`` in ``path`` (version 2) in its own layout, writing
    its payload's own buffer (no copy unless it is not little-endian
    contiguous complex128); ``config_hash`` is the run's hex digest."""
    spec = snapshot.spec
    payload = np.ascontiguousarray(snapshot.values, dtype="<c16")
    digest = _NO_HASH if config_hash is None else bytes.fromhex(config_hash)
    head = _HEADER.pack(MAGIC, VERSION, spec.dim, spec.n, spec.length,
                        float(snapshot.t), snapshot.step, digest,
                        LAYOUT_BAND if snapshot.band else LAYOUT_GRID, 0)[:-4]
    crc = zlib.crc32(payload.data, zlib.crc32(head))
    with atomic_open(path, "wb") as fh:
        fh.write(head + struct.pack("<I", crc))
        fh.write(payload.data)


def load_snapshot(path: str | Path) -> Snapshot:
    """The :class:`Snapshot` stored at ``path`` as the file holds it: the band
    coefficients of a band file (no transform), else the grid values. A file
    that is not a complete snapshot, fails its checksum or holds a value that
    is not finite raises a :class:`DomainError` naming it."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise DomainError(f"{path}: truncated snapshot header")
        (magic, version, dim, n, length, time, step, digest, layout,
         crc) = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise DomainError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise DomainError(f"{path}: unsupported snapshot version {version}")
        try:
            spec = GridSpec(dim, n, length)
        except DomainError as exc:
            raise DomainError(f"{path}: bad snapshot grid: {exc}") from exc
        if not (np.isfinite(time) and step >= 0
                and layout in (LAYOUT_GRID, LAYOUT_BAND)):
            raise DomainError(f"{path}: bad snapshot header (time {time}, "
                              f"step {step}, layout {layout})")
        band = layout == LAYOUT_BAND
        # checked before reading, so a corrupt header allocates nothing
        expected = _HEADER.size + 16 * math.prod(spec.band_shape(band))
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise DomainError(f"{path}: truncated snapshot payload")
        if size > expected:
            raise DomainError(
                f"{path}: {size - expected} bytes past the snapshot payload")
        values = np.empty(spec.band_shape(band), dtype="<c16")
        if fh.readinto(values.data.cast("B")) != values.nbytes:
            raise DomainError(f"{path}: truncated snapshot payload")
    if zlib.crc32(values.data, zlib.crc32(raw[:-4])) != crc:
        raise DomainError(f"{path}: snapshot checksum mismatch")
    # min and max carry any nan, and neither makes a temporary array
    flat = values.view(np.float64)
    if not (np.isfinite(flat.min()) and np.isfinite(flat.max())):
        raise DomainError(f"{path}: snapshot holds values that are not finite")
    return Snapshot(float(time), step, spec, values, band,
                    None if digest == _NO_HASH else digest.hex())


def read_snapshot(path: str | Path) -> tuple[Field, float]:
    """The field and time stored at ``path``: the grid values, or
    :meth:`GridSpec.band_ifft` of a band file's coefficients; a file that is
    not a complete snapshot raises as :func:`load_snapshot` does."""
    snapshot = load_snapshot(path)
    return snapshot.field, snapshot.t
