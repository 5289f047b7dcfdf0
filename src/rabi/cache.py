"""On-disk cache of converged parity spectra.

Each cache entry is a pair of files named by the SHA-256 of its canonical
key (g, delta, parity, max_label, eigen_tol, trunc_tol):

* ``<id>.bin``   little-endian binary payload:
                 magic ``RABI`` | u32 format version | u64 row count |
                 one packed struct per label
                 (i64 label, i8 parity sign, f64 value, i64 truncation_dim,
                 f64 error_estimate)
* ``<id>.json``  sidecar with the key fields, the format version, and the
                 SHA-256 hex digest of the full binary payload.

A :class:`~rabi.eigensolver.ParitySpectrum` is packed and unpacked column
by column; the label column is always 1..count and the parity column the
key's sign.  Floats are stored as raw IEEE-754 bytes, so a reload
reproduces the columns bit-identically.  ``FORMAT_VERSION`` versions the
stored values as well as the byte layout (a solver change that alters one
must bump it); a version mismatch is a cache miss.  A checksum or structure
mismatch (labels other than 1..max_label, a parity other than the key's,
mixed truncation dimensions, non-increasing values) raises
:class:`CacheCorruptionError` so callers can recompute instead of silently
trusting damaged data.  Writes go through a temporary file and
``os.replace`` so concurrent readers never observe a partially written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .eigensolver import ParitySpectrum
from .model import Parity

__all__ = ["FORMAT_VERSION", "CacheCorruptionError", "CacheKey", "load_records", "store_records"]

FORMAT_VERSION = 1
_MAGIC = b"RABI"

_RECORD_DTYPE = np.dtype(
    [
        ("label", "<i8"),
        ("parity", "<i1"),
        ("value", "<f8"),
        ("truncation_dim", "<i8"),
        ("error_estimate", "<f8"),
    ]
)


class CacheCorruptionError(RuntimeError):
    """A cache entry failed its checksum or structural validation."""


@dataclass(frozen=True)
class CacheKey:
    g: float
    delta: float
    parity: str
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


def _paths(cache_dir: Path, key: CacheKey) -> tuple[Path, Path]:
    entry = key.entry_id()
    return cache_dir / f"{entry}.bin", cache_dir / f"{entry}.json"


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def store_records(cache_dir, key: CacheKey, spectrum: ParitySpectrum) -> None:
    """Persist one parity's spectrum under the given key."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    count = len(spectrum)
    packed = np.empty(count, dtype=_RECORD_DTYPE)
    packed["label"] = np.arange(1, count + 1)
    packed["parity"] = Parity.from_label(key.parity).sign
    packed["value"] = spectrum.values
    packed["truncation_dim"] = spectrum.truncation_dim
    packed["error_estimate"] = spectrum.errors
    header = _MAGIC + np.uint32(FORMAT_VERSION).tobytes() + np.uint64(count).tobytes()
    payload = header + packed.tobytes()
    sidecar = {
        "format_version": FORMAT_VERSION,
        "key": json.loads(key.canonical()),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    bin_path, json_path = _paths(cache_dir, key)
    _atomic_write(bin_path, payload)
    _atomic_write(json_path, (json.dumps(sidecar, sort_keys=True) + "\n").encode("ascii"))


def load_records(cache_dir, key: CacheKey) -> ParitySpectrum | None:
    """Load the spectrum for a key, or None on miss or version mismatch.

    Raises CacheCorruptionError when files exist but fail validation.
    """
    bin_path, json_path = _paths(Path(cache_dir), key)
    if not (bin_path.exists() and json_path.exists()):
        return None
    try:
        sidecar = json.loads(json_path.read_text(encoding="ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CacheCorruptionError(f"unreadable cache sidecar {json_path}") from exc
    if sidecar.get("format_version") != FORMAT_VERSION:
        return None
    if sidecar.get("key") != json.loads(key.canonical()):
        raise CacheCorruptionError(f"cache sidecar {json_path} does not match its key")
    payload = bin_path.read_bytes()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != sidecar.get("sha256"):
        raise CacheCorruptionError(f"checksum mismatch for cache entry {bin_path}")
    if payload[:4] != _MAGIC:
        raise CacheCorruptionError(f"bad magic in cache entry {bin_path}")
    version = int(np.frombuffer(payload[4:8], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        return None
    count = int(np.frombuffer(payload[8:16], dtype="<u8")[0])
    body = payload[16:]
    if len(body) != count * _RECORD_DTYPE.itemsize:
        raise CacheCorruptionError(f"truncated cache entry {bin_path}")
    packed = np.frombuffer(body, dtype=_RECORD_DTYPE)
    dims = packed["truncation_dim"]
    if not (
        1 <= count == key.max_label
        and np.array_equal(packed["label"], np.arange(1, count + 1))
        and np.all(packed["parity"] == Parity.from_label(key.parity).sign)
        and np.all(dims == dims[0])
    ):
        raise CacheCorruptionError(f"malformed label, parity or dimension column in {bin_path}")
    try:
        return ParitySpectrum(packed["value"], packed["error_estimate"], int(dims[0]))
    except ValueError as exc:
        raise CacheCorruptionError(f"invalid spectrum in cache entry {bin_path}: {exc}") from exc
