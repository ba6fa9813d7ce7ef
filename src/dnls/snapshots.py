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
    spec = field.spec
    header = _HEADER.pack(MAGIC, VERSION, spec.dim, spec.n, spec.length, float(time))
    payload = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_snapshot(path: str | Path) -> tuple[Field, float]:
    """The field and time stored at ``path``; a file that is not a complete
    snapshot raises a :class:`DomainError` naming it."""
    with open(path, "rb") as fh:
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
        payload = fh.read(16 * spec.size)
    values = np.frombuffer(payload, dtype="<c16").reshape(spec.shape)
    return Field(values.copy(), spec), float(time)
