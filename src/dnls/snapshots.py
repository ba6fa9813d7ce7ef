"""Binary field snapshot format.

Layout (little-endian): magic ``DNLS``, version u32, dim u32, n_per_axis u32,
half-length f64, time f64, then the payload as interleaved (re, im) float64
pairs in row-major point order.

Every file the package writes, snapshots and CLI outputs alike, goes
through :func:`atomic_open`, so a crash mid-write never leaves a torn file.
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DomainError
from .grid import Field, GridSpec

MAGIC = b"DNLS"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")


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


def write_snapshot(path: str | Path, field: Field, time: float) -> None:
    """Store ``field`` at ``time`` in ``path``, writing the field's own buffer
    (no copy unless it is not little-endian contiguous complex128)."""
    spec = field.spec
    header = _HEADER.pack(MAGIC, VERSION, spec.dim, spec.n, spec.length, float(time))
    payload = np.ascontiguousarray(field.values, dtype="<c16")
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def _read_header(fh, path) -> tuple[GridSpec, float]:
    """Grid and time of the snapshot open in ``fh``, checked against the size
    of the file, which leaves ``fh`` at the start of the payload."""
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise DomainError(f"{path}: truncated snapshot header")
    magic, version, dim, n, length, time = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise DomainError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise DomainError(f"{path}: unsupported snapshot version {version}")
    try:
        spec = GridSpec(dim, n, length)
    except DomainError as exc:
        raise DomainError(f"{path}: bad snapshot grid: {exc}") from exc
    # checked before reading, so a corrupt header allocates nothing
    if os.fstat(fh.fileno()).st_size < _HEADER.size + 16 * spec.size:
        raise DomainError(f"{path}: truncated snapshot payload")
    return spec, float(time)


def read_snapshot_time(path: str | Path) -> float:
    """The time stored at ``path``, read from the header alone; a file that is
    not a complete snapshot raises as :func:`read_snapshot` does."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[1]


def read_snapshot(path: str | Path) -> tuple[Field, float]:
    """The field and time stored at ``path``, read straight into the field's
    array; a file that is not a complete snapshot raises a
    :class:`DomainError` naming it."""
    with open(path, "rb") as fh:
        spec, time = _read_header(fh, path)
        values = np.empty(spec.shape, dtype="<c16")
        if fh.readinto(values.data.cast("B")) != values.nbytes:
            raise DomainError(f"{path}: truncated snapshot payload")
    return Field(values, spec), time
