import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi import Parity, ParitySpectrum
from rabi import cache


def sample_key(max_label=4, parity="plus"):
    return cache.CacheKey(
        g=0.7, delta=0.4, parity=parity, max_label=max_label, eigen_tol=1e-10, trunc_tol=1e-8
    )


def sample_spectrum(max_label=4):
    n = np.arange(1, max_label + 1)
    return ParitySpectrum(
        values=n - 0.49 + np.sin(n) * 1e-3, errors=1.25e-12 * n, truncation_dim=136
    )


def assert_same_spectrum(loaded, spectrum):
    assert loaded.values.tobytes() == spectrum.values.tobytes()
    assert loaded.errors.tobytes() == spectrum.errors.tobytes()
    assert loaded.truncation_dim == spectrum.truncation_dim
    assert not (loaded.values.flags.writeable or loaded.errors.flags.writeable)


def test_roundtrip_bit_identical(tmp_path):
    key = sample_key()
    spectrum = sample_spectrum()
    cache.store_records(tmp_path, key, spectrum)
    assert_same_spectrum(cache.load_records(tmp_path, key), spectrum)


def test_miss_returns_none(tmp_path):
    assert cache.load_records(tmp_path, sample_key()) is None
    cache.store_records(tmp_path, sample_key(), sample_spectrum())
    assert cache.load_records(tmp_path, sample_key(max_label=9)) is None


def test_version_mismatch_invalidates(tmp_path, monkeypatch):
    key = sample_key()
    cache.store_records(tmp_path, key, sample_spectrum())
    monkeypatch.setattr(cache, "FORMAT_VERSION", 2)
    assert cache.load_records(tmp_path, key) is None


def test_corrupt_payload_detected(tmp_path):
    key = sample_key()
    cache.store_records(tmp_path, key, sample_spectrum())
    bin_path = tmp_path / f"{key.entry_id()}.bin"
    raw = bytearray(bin_path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bin_path.write_bytes(bytes(raw))
    with pytest.raises(cache.CacheCorruptionError):
        cache.load_records(tmp_path, key)


def test_corrupt_sidecar_detected(tmp_path):
    key = sample_key()
    cache.store_records(tmp_path, key, sample_spectrum())
    json_path = tmp_path / f"{key.entry_id()}.json"
    json_path.write_text("{ not json", encoding="ascii")
    with pytest.raises(cache.CacheCorruptionError):
        cache.load_records(tmp_path, key)


def test_truncated_payload_detected(tmp_path):
    key = sample_key()
    cache.store_records(tmp_path, key, sample_spectrum())
    bin_path = tmp_path / f"{key.entry_id()}.bin"
    raw = bin_path.read_bytes()
    bin_path.write_bytes(raw[:-8])
    with pytest.raises(cache.CacheCorruptionError):
        cache.load_records(tmp_path, key)


def test_store_creates_directories(tmp_path):
    nested = tmp_path / "a" / "b"
    cache.store_records(nested, sample_key(), sample_spectrum())
    assert_same_spectrum(cache.load_records(nested, sample_key()), sample_spectrum())


def test_distinct_keys_distinct_entries(tmp_path):
    key_plus = sample_key()
    key_minus = cache.CacheKey(
        g=0.7, delta=0.4, parity="minus", max_label=4, eigen_tol=1e-10, trunc_tol=1e-8
    )
    assert key_plus.entry_id() != key_minus.entry_id()


# -- property tests on random columns ---------------------------------------

# One entry row as the original per-row writer packed it:
# i64 label, i8 parity sign, f64 value, i64 truncation_dim, f64 error_estimate.
_ROW = struct.Struct("<qbdqd")
_OFFSETS = {"label": 0, "parity": 8}


def per_row_payload(spectrum, sign):
    header = b"RABI" + struct.pack("<IQ", cache.FORMAT_VERSION, len(spectrum))
    rows = (
        _ROW.pack(label, sign, value, spectrum.truncation_dim, error)
        for label, (value, error) in enumerate(
            zip(spectrum.values.tolist(), spectrum.errors.tolist()), start=1
        )
    )
    return header + b"".join(rows)


finite = st.floats(allow_nan=False, allow_infinity=False)
spectra = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.builds(
        ParitySpectrum,
        values=st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted),
        errors=st.lists(st.floats(allow_nan=False), min_size=n, max_size=n),
        truncation_dim=st.integers(min_value=1, max_value=2**40),
    )
)


@settings(max_examples=60, deadline=None)
@given(spectrum=spectra, parity=st.sampled_from(Parity))
def test_roundtrip_random_columns_bit_exact(spectrum, parity):
    key = sample_key(max_label=len(spectrum), parity=parity.label)
    with tempfile.TemporaryDirectory() as tmp:
        cache.store_records(tmp, key, spectrum)
        payload = (Path(tmp) / f"{key.entry_id()}.bin").read_bytes()
        assert payload == per_row_payload(spectrum, parity.sign)
        assert_same_spectrum(cache.load_records(tmp, key), spectrum)


@settings(max_examples=40, deadline=None)
@given(
    spectrum=spectra,
    column=st.sampled_from(sorted(_OFFSETS)),
    row=st.integers(min_value=0),
    delta=st.sampled_from([-2, -1, 1, 2, 7]),
)
def test_tampered_label_or_parity_column_rejected(spectrum, column, row, delta):
    # The checksum is recomputed, so only the structural check can object.
    key = sample_key(max_label=len(spectrum))
    with tempfile.TemporaryDirectory() as tmp:
        cache.store_records(tmp, key, spectrum)
        bin_path = Path(tmp) / f"{key.entry_id()}.bin"
        json_path = Path(tmp) / f"{key.entry_id()}.json"
        raw = bytearray(bin_path.read_bytes())
        at = 16 + (row % len(spectrum)) * _ROW.size + _OFFSETS[column]
        raw[at] = (raw[at] + delta) % 256
        bin_path.write_bytes(bytes(raw))
        sidecar = json.loads(json_path.read_text())
        sidecar["sha256"] = hashlib.sha256(bytes(raw)).hexdigest()
        json_path.write_text(json.dumps(sidecar))
        with pytest.raises(cache.CacheCorruptionError):
            cache.load_records(tmp, key)
