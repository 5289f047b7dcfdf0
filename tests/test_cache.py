import hashlib
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rabi import ModelParams, Parity, ParitySpectrum, adaptive_spectrum, eigensolver
from rabi import cache
from rabi.cli import RunConfig, main

# FORMAT_VERSION versions the stored values, not only the byte layout: the
# SHA-256 of the stored columns (values, errors, truncation dim; PLUS, then
# MINUS) of the solve at (g, delta) = (0.7, 0.4), N = 40, default tolerances,
# pinned next to the version it was taken under.  A solver change that alters
# them must bump FORMAT_VERSION and re-pin both.
PINNED_FORMAT_VERSION = 7
PINNED_STORED_SHA256 = "59ef0fb4af713447742671ff3b91ae8effda7749a45113b6762ca2932d7c071d"


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
    monkeypatch.setattr(cache, "FORMAT_VERSION", cache.FORMAT_VERSION + 1)
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


# -- byte layouts: the current format and format 1 ---------------------------


def entry_bytes(key, spectrum):
    """An entry packed field by field from the layout the README documents."""
    key_json = key.canonical().encode("ascii")
    n = len(spectrum)
    body = (
        b"RABI"
        + struct.pack("<II", cache.FORMAT_VERSION, len(key_json))
        + key_json
        + struct.pack(f"<q{n}d{n}d", spectrum.truncation_dim, *spectrum.values, *spectrum.errors)
    )
    return body + hashlib.sha256(body).digest()


# One entry row as the format-1 writer packed it:
# i64 label, i8 parity sign, f64 value, i64 truncation_dim, f64 error_estimate.
_ROW = struct.Struct("<qbdqd")


def per_row_payload(spectrum, sign):
    header = b"RABI" + struct.pack("<IQ", 1, len(spectrum))
    rows = (
        _ROW.pack(label, sign, value, spectrum.truncation_dim, error)
        for label, (value, error) in enumerate(
            zip(spectrum.values.tolist(), spectrum.errors.tolist()), start=1
        )
    )
    return header + b"".join(rows)


def store_format1(cache_dir, key, spectrum):
    """Write a format-1 entry, ``.bin`` payload plus ``.json`` sidecar, for the key."""
    payload = per_row_payload(spectrum, Parity.from_label(key.parity).sign)
    sidecar = {
        "format_version": 1,
        "key": json.loads(key.canonical()),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    (Path(cache_dir) / f"{key.entry_id()}.bin").write_bytes(payload)
    (Path(cache_dir) / f"{key.entry_id()}.json").write_text(json.dumps(sidecar, sort_keys=True))


def test_format1_entry_is_a_silent_miss(tmp_path):
    key = sample_key()
    store_format1(tmp_path, key, sample_spectrum())
    assert cache.load_records(tmp_path, key) is None
    cache.store_records(tmp_path, key, sample_spectrum())
    assert_same_spectrum(cache.load_records(tmp_path, key), sample_spectrum())


def test_cli_replaces_format1_entries_silently(tmp_path, capsys):
    argv = ["spectrum", "--n-max", "8", "--cache-dir"]
    assert main([*argv, str(tmp_path / "fresh")]) == 0
    expected = capsys.readouterr().out
    defaults = RunConfig()
    keys = [
        cache.CacheKey(
            defaults.g, defaults.delta, parity.label, 8, defaults.eigen_tol, defaults.trunc_tol
        )
        for parity in Parity
    ]
    spectra = [cache.load_records(tmp_path / "fresh", key) for key in keys]
    old = tmp_path / "old"
    old.mkdir()
    for key, spectrum in zip(keys, spectra):
        store_format1(old, key, spectrum)
    before = eigensolver.counters.adaptive_runs
    assert main([*argv, str(old)]) == 0
    assert capsys.readouterr() == (expected, "")
    assert eigensolver.counters.adaptive_runs == before + 2
    for key, spectrum in zip(keys, spectra):
        assert (old / f"{key.entry_id()}.bin").read_bytes() == entry_bytes(key, spectrum)


# -- property tests on random columns ---------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
spectra = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.builds(
        ParitySpectrum,
        values=st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted),
        errors=st.lists(st.floats(allow_nan=False), min_size=n, max_size=n),
        truncation_dim=st.integers(min_value=n, max_value=2**40),
    )
)


@settings(max_examples=60, deadline=None)
@given(spectrum=spectra, parity=st.sampled_from(Parity))
def test_roundtrip_random_columns_bit_exact(spectrum, parity):
    key = sample_key(max_label=len(spectrum), parity=parity.label)
    with tempfile.TemporaryDirectory() as tmp:
        cache.store_records(tmp, key, spectrum)
        assert [p.name for p in Path(tmp).iterdir()] == [f"{key.entry_id()}.bin"]
        payload = (Path(tmp) / f"{key.entry_id()}.bin").read_bytes()
        assert payload == entry_bytes(key, spectrum)
        assert_same_spectrum(cache.load_records(tmp, key), spectrum)


def tamper_key(raw, key, at):
    """Swap one key-JSON byte for another printable one."""
    start = 12 + at % len(key.canonical())
    raw[start] = ord("x") if raw[start] != ord("x") else ord("y")


def tamper_dim(raw, key, at):
    """Replace the truncation dim by one below the label count."""
    start = 12 + len(key.canonical())
    raw[start : start + 8] = struct.pack("<q", at % key.max_label)


def tamper_order(raw, key, at):
    """Swap two neighbouring values."""
    assume(key.max_label > 1)
    i = 20 + len(key.canonical()) + 8 * (at % (key.max_label - 1))
    raw[i : i + 16] = raw[i + 8 : i + 16] + raw[i : i + 8]


@settings(max_examples=40, deadline=None)
@given(
    spectrum=spectra,
    tamper=st.sampled_from([tamper_key, tamper_dim, tamper_order]),
    at=st.integers(min_value=0),
)
def test_tampered_key_dim_or_order_rejected(spectrum, tamper, at):
    # The checksum is recomputed, so only the key and column checks can object.
    key = sample_key(max_label=len(spectrum))
    with tempfile.TemporaryDirectory() as tmp:
        cache.store_records(tmp, key, spectrum)
        bin_path = Path(tmp) / f"{key.entry_id()}.bin"
        raw = bytearray(bin_path.read_bytes()[:-32])
        tamper(raw, key, at)
        bin_path.write_bytes(bytes(raw) + hashlib.sha256(bytes(raw)).digest())
        with pytest.raises(cache.CacheCorruptionError):
            cache.load_records(tmp, key)


def test_format_version_pins_stored_solver_values():
    digest = hashlib.sha256()
    for parity in Parity:
        spectrum = ParitySpectrum.from_records(adaptive_spectrum(parity, ModelParams(0.7, 0.4), 40))
        digest.update(spectrum.values.astype("<f8").tobytes())
        digest.update(spectrum.errors.astype("<f8").tobytes())
        digest.update(np.int64(spectrum.truncation_dim).astype("<i8").tobytes())
    assert (cache.FORMAT_VERSION, digest.hexdigest()) == (
        PINNED_FORMAT_VERSION,
        PINNED_STORED_SHA256,
    ), "stored values changed: bump cache.FORMAT_VERSION and re-pin the digest"


def test_readme_cache_table_names_the_format_version():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| u32 format version \((\d+)\) \| 4 \|$", readme, re.MULTILINE)
    assert documented == [str(cache.FORMAT_VERSION)]
