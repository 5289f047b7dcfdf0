"""On-disk cache of converged spectra: one entry per table, both parities.

Each entry is one file, ``<id>.bin``, named by the SHA-256 of its canonical
key (g, delta, max_label, eigen_tol, trunc_tol), little-endian:

    magic ``RABI`` | u32 format version | u32 key length | canonical key JSON |
    i64 PLUS truncation_dim | i64 MINUS truncation_dim |
    PLUS values | PLUS errors | MINUS values | MINUS errors (max_label f64 each) |
    SHA-256 of every byte before it

Labels are 1..max_label, so they are not stored.  Every command that reads
a spectrum reads both parity classes, so an entry holds both and is stored
and loaded as one unit.  Floats are raw IEEE-754 bytes, so a reload is
bit-identical.  ``FORMAT_VERSION`` versions the stored values as well as the
layout (a solver change that alters one must bump it).  Magic and version
are read before the checksum, and another version is a cache miss.  A wrong
length, checksum or key, or columns that do not form a
:class:`~rabi.eigensolver.ParitySpectrum`, raise :class:`CacheCorruptionError`
so callers recompute instead of trusting damaged data.  An entry is written
to a temporary file and moved into place by one ``os.replace``, so readers
never see a partial entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .eigensolver import ParitySpectrum

__all__ = ["FORMAT_VERSION", "CacheCorruptionError", "CacheKey", "load_records", "store_records"]

FORMAT_VERSION = 11
_MAGIC = b"RABI"
_HEADER = struct.Struct("<4sII")  # magic, format version, key length
_DIMS = struct.Struct("<qq")  # PLUS, MINUS truncation dims
_DIGEST_SIZE = hashlib.sha256().digest_size


class CacheCorruptionError(RuntimeError):
    """A cache entry failed its checksum or structural validation."""


@dataclass(frozen=True)
class CacheKey:
    g: float
    delta: float
    max_label: int
    eigen_tol: float
    trunc_tol: float

    def canonical(self) -> str:
        payload = asdict(self)
        payload["g"] = repr(float(self.g))
        payload["delta"] = repr(float(self.delta))
        payload["eigen_tol"] = repr(float(self.eigen_tol))
        payload["trunc_tol"] = repr(float(self.trunc_tol))
        return json.dumps(payload, sort_keys=True)

    def entry_id(self) -> str:
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


def _prefix(key: CacheKey) -> bytes:
    """Header and key bytes, the part of an entry fixed by its key."""
    key_json = key.canonical().encode("ascii")
    return _HEADER.pack(_MAGIC, FORMAT_VERSION, len(key_json)) + key_json


def store_records(cache_dir, key: CacheKey, plus: ParitySpectrum, minus: ParitySpectrum) -> None:
    """Persist both parity classes of one table under the given key."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    dims = _DIMS.pack(plus.truncation_dim, minus.truncation_dim)
    columns = np.concatenate((plus.values, plus.errors, minus.values, minus.errors))
    body = _prefix(key) + dims + columns.astype("<f8").tobytes()
    path = cache_dir / f"{key.entry_id()}.bin"
    fd, tmp_name = tempfile.mkstemp(dir=cache_dir, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(body + hashlib.sha256(body).digest())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_records(cache_dir, key: CacheKey) -> tuple[ParitySpectrum, ParitySpectrum] | None:
    """The (PLUS, MINUS) spectra for a key, or None on miss or version mismatch.

    Raises CacheCorruptionError when the entry exists but fails validation.
    """
    path = Path(cache_dir) / f"{key.entry_id()}.bin"
    try:
        payload = path.read_bytes()
    except FileNotFoundError:
        return None
    if len(payload) < _HEADER.size or payload[:4] != _MAGIC:
        raise CacheCorruptionError(f"bad header in cache entry {path}")
    if _HEADER.unpack_from(payload)[1] != FORMAT_VERSION:
        return None
    prefix, count = _prefix(key), key.max_label
    start = len(prefix) + _DIMS.size
    body, digest = payload[:-_DIGEST_SIZE], payload[-_DIGEST_SIZE:]
    if len(body) != start + 32 * count or hashlib.sha256(body).digest() != digest:
        raise CacheCorruptionError(f"length or checksum mismatch in cache entry {path}")
    if not body.startswith(prefix):
        raise CacheCorruptionError(f"cache entry {path} does not match its key")
    dims = _DIMS.unpack_from(body, len(prefix))
    columns = np.frombuffer(body, dtype="<f8", offset=start).reshape(4, count)
    try:
        return tuple(
            ParitySpectrum(values, errors, dim)
            for values, errors, dim in zip(columns[0::2], columns[1::2], dims)
        )
    except ValueError as exc:
        raise CacheCorruptionError(f"invalid spectrum in cache entry {path}: {exc}") from exc
