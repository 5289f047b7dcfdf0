import hashlib
import itertools
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import record_calls
from rabi import ModelParams, Parity, ParitySpectrum, adaptive_spectrum, eigensolver
from rabi import cache
from rabi.cli import RunConfig, main

# FORMAT_VERSION versions the stored values, not only the byte layout: the
# SHA-256 of the stored columns (values, errors, truncation dim; PLUS, then
# MINUS) of the solves at (g, delta, N) = (0.7, 0.4, 40), where every label is
# windowed, (0.7, 30, 40), where every label falls back, and (3, 2, 200),
# where at eigen_tol 1e-16 the certificate refuses label 1 of each parity
# after Newton solved it in its unit bracket; each at eigen_tol 1e-10, then
# 1e-16, pinned next to the version it was taken under.  A solver change
# that alters them must bump FORMAT_VERSION and re-pin both.  Format 10
# changed only the fallback values (the fallback round runs Newton); format
# 11 only values and estimates where 4 pivmin exceeds trunc_tol, which no
# pinned point reaches, so the digest stands.
PINNED_FORMAT_VERSION = 11
PINNED_STORED_SHA256 = "c3acaf31f8c88ef98b7bd8d58f9e3eb3dc9147faf4ab42cab7c6b2a87fea9062"
PINNED_POINTS = [(0.7, 0.4, 40), (0.7, 30.0, 40), (3.0, 2.0, 200)]


def sample_key(max_label=4, eigen_tol=1e-10):
    return cache.CacheKey(g=0.7, delta=0.4, max_label=max_label, eigen_tol=eigen_tol, trunc_tol=1e-8)


def sample_spectra(max_label=4):
    n = np.arange(1, max_label + 1)
    return (
        ParitySpectrum(values=n - 0.49 + np.sin(n) * 1e-3, errors=1.25e-12 * n, truncation_dim=136),
        ParitySpectrum(values=n - 0.51 - np.sin(n) * 1e-3, errors=2.5e-12 * n, truncation_dim=144),
    )


def assert_same_spectra(loaded, spectra):
    assert isinstance(loaded, tuple) and len(loaded) == 2
    for got, spectrum in zip(loaded, spectra):
        assert got.values.tobytes() == spectrum.values.tobytes()
        assert got.errors.tobytes() == spectrum.errors.tobytes()
        assert got.truncation_dim == spectrum.truncation_dim
        assert not (got.values.flags.writeable or got.errors.flags.writeable)


def test_roundtrip_bit_identical(tmp_path):
    key = sample_key()
    cache.store_records(tmp_path, key, *sample_spectra())
    assert [p.name for p in tmp_path.iterdir()] == [f"{key.entry_id()}.bin"]
    assert_same_spectra(cache.load_records(tmp_path, key), sample_spectra())


def test_miss_returns_none(tmp_path):
    assert cache.load_records(tmp_path, sample_key()) is None
    cache.store_records(tmp_path, sample_key(), *sample_spectra())
    assert cache.load_records(tmp_path, sample_key(max_label=9)) is None


def test_version_mismatch_invalidates(tmp_path, monkeypatch):
    key = sample_key()
    cache.store_records(tmp_path, key, *sample_spectra())
    monkeypatch.setattr(cache, "FORMAT_VERSION", cache.FORMAT_VERSION + 1)
    assert cache.load_records(tmp_path, key) is None


def test_corrupt_payload_detected(tmp_path):
    key = sample_key()
    cache.store_records(tmp_path, key, *sample_spectra())
    bin_path = tmp_path / f"{key.entry_id()}.bin"
    raw = bytearray(bin_path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bin_path.write_bytes(bytes(raw))
    with pytest.raises(cache.CacheCorruptionError):
        cache.load_records(tmp_path, key)


def test_truncated_payload_detected(tmp_path):
    key = sample_key()
    cache.store_records(tmp_path, key, *sample_spectra())
    bin_path = tmp_path / f"{key.entry_id()}.bin"
    raw = bin_path.read_bytes()
    bin_path.write_bytes(raw[:-8])
    with pytest.raises(cache.CacheCorruptionError):
        cache.load_records(tmp_path, key)


def test_store_creates_directories(tmp_path):
    nested = tmp_path / "a" / "b"
    cache.store_records(nested, sample_key(), *sample_spectra())
    assert_same_spectra(cache.load_records(nested, sample_key()), sample_spectra())


def test_distinct_keys_distinct_entries():
    ids = {
        key.entry_id()
        for key in (
            sample_key(),
            sample_key(max_label=5),
            sample_key(eigen_tol=2e-10),
            cache.CacheKey(g=0.7, delta=0.5, max_label=4, eigen_tol=1e-10, trunc_tol=1e-8),
        )
    }
    assert len(ids) == 4


# -- the CLI: one entry per table --------------------------------------------


def test_cli_stores_and_loads_one_entry_per_table(tmp_path, monkeypatch, capsys):
    assert main(["spectrum", "--n-max", "12", "--cache-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.bin"))) == 1
    assert main(["classify", "--n-max", "12", "--cache-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.bin"))) == 2
    capsys.readouterr()
    loads = []
    record_calls(monkeypatch, "load_records", loads, cache)
    for command in ("spectrum", "classify", "spacings", "arcsine"):
        before, loads[:] = eigensolver.counters.total(), []
        assert main([command, "--n-max", "12", "--cache-dir", str(tmp_path)]) == 0
        assert eigensolver.counters.total() == before, command
        assert len(loads) == 1, command
    assert capsys.readouterr().err == ""


def test_cli_corrupt_entry_warns_once_and_solves_both_parities(tmp_path, capsys):
    argv = ["spectrum", "--n-max", "8", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    (entry,) = tmp_path.glob("*.bin")
    raw = bytearray(entry.read_bytes())
    raw[-1] ^= 0x01
    entry.write_bytes(bytes(raw))
    before = eigensolver.counters["adaptive_runs"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert err.count("rabi: corrupt cache entry, recomputing:") == 1 and err.count("\n") == 1
    assert eigensolver.counters["adaptive_runs"] == before + 2
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")


# -- byte layouts: the current format and the per-parity formats 1 and 7 ------


def entry_bytes(key, plus, minus):
    """An entry packed field by field from the layout the README documents."""
    key_json = key.canonical().encode("ascii")
    n = len(plus)
    body = (
        b"RABI"
        + struct.pack("<II", cache.FORMAT_VERSION, len(key_json))
        + key_json
        + struct.pack("<qq", plus.truncation_dim, minus.truncation_dim)
        + struct.pack(f"<{4 * n}d", *plus.values, *plus.errors, *minus.values, *minus.errors)
    )
    return body + hashlib.sha256(body).digest()


def parity_key_json(key, parity):
    """The canonical key of formats 1 to 7, which held one parity per entry."""
    return json.dumps({**json.loads(key.canonical()), "parity": parity.label}, sort_keys=True)


def parity_entry_id(key, parity):
    return hashlib.sha256(parity_key_json(key, parity).encode("ascii")).hexdigest()


def store_format7(cache_dir, key, parity, spectrum):
    """Write a format-7 entry, keyed by parity, holding one parity's columns."""
    key_json = parity_key_json(key, parity).encode("ascii")
    n = len(spectrum)
    body = (
        b"RABI"
        + struct.pack("<II", 7, len(key_json))
        + key_json
        + struct.pack(f"<q{n}d{n}d", spectrum.truncation_dim, *spectrum.values, *spectrum.errors)
    )
    entry = body + hashlib.sha256(body).digest()
    (Path(cache_dir) / f"{parity_entry_id(key, parity)}.bin").write_bytes(entry)


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


def store_format1(cache_dir, key, parity, spectrum, entry_id=None):
    """Write a format-1 entry, ``.bin`` payload plus ``.json`` sidecar, keyed by parity
    (or named ``entry_id``)."""
    payload = per_row_payload(spectrum, parity.sign)
    sidecar = {
        "format_version": 1,
        "key": json.loads(parity_key_json(key, parity)),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    entry_id = entry_id or parity_entry_id(key, parity)
    (Path(cache_dir) / f"{entry_id}.bin").write_bytes(payload)
    (Path(cache_dir) / f"{entry_id}.json").write_text(json.dumps(sidecar, sort_keys=True))


def test_format1_entry_is_a_silent_miss(tmp_path):
    key = sample_key()
    store_format1(tmp_path, key, Parity.PLUS, sample_spectra()[0], entry_id=key.entry_id())
    assert cache.load_records(tmp_path, key) is None
    cache.store_records(tmp_path, key, *sample_spectra())
    assert_same_spectra(cache.load_records(tmp_path, key), sample_spectra())


def test_cli_ignores_per_parity_entries_silently(tmp_path, capsys):
    argv = ["spectrum", "--n-max", "8", "--cache-dir"]
    assert main([*argv, str(tmp_path / "fresh")]) == 0
    expected = capsys.readouterr().out
    defaults = RunConfig()
    key = cache.CacheKey(defaults.g, defaults.delta, 8, defaults.eigen_tol, defaults.trunc_tol)
    spectra = cache.load_records(tmp_path / "fresh", key)
    for store in (store_format1, store_format7):
        old = tmp_path / store.__name__
        old.mkdir()
        for parity, spectrum in zip(Parity, spectra):
            store(old, key, parity, spectrum)
        before = {path.name: path.read_bytes() for path in old.iterdir()}
        runs = eigensolver.counters["adaptive_runs"]
        assert main([*argv, str(old)]) == 0
        assert capsys.readouterr() == (expected, "")
        assert eigensolver.counters["adaptive_runs"] == runs + 2
        after = {path.name: path.read_bytes() for path in old.iterdir()}
        assert after == {**before, f"{key.entry_id()}.bin": entry_bytes(key, *spectra)}


# -- property tests on random columns ---------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


def spectra_of_length(n):
    return st.builds(
        ParitySpectrum,
        values=st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted),
        errors=st.lists(st.floats(allow_nan=False), min_size=n, max_size=n),
        truncation_dim=st.integers(min_value=n, max_value=2**40),
    )


tables = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(spectra_of_length(n), spectra_of_length(n))
)


@settings(max_examples=60, deadline=None)
@given(table=tables)
def test_roundtrip_random_columns_bit_exact(table):
    key = sample_key(max_label=len(table[0]))
    with tempfile.TemporaryDirectory() as tmp:
        cache.store_records(tmp, key, *table)
        assert [p.name for p in Path(tmp).iterdir()] == [f"{key.entry_id()}.bin"]
        payload = (Path(tmp) / f"{key.entry_id()}.bin").read_bytes()
        assert payload == entry_bytes(key, *table)
        assert_same_spectra(cache.load_records(tmp, key), table)


def tamper_key(raw, key, at):
    """Swap one key-JSON byte for another printable one."""
    start = 12 + at % len(key.canonical())
    raw[start] = ord("x") if raw[start] != ord("x") else ord("y")


def tamper_dim(raw, key, at):
    """Replace one parity's truncation dim by one below the label count."""
    start = 12 + len(key.canonical()) + 8 * (at % 2)
    raw[start : start + 8] = struct.pack("<q", at % key.max_label)


def tamper_order(raw, key, at):
    """Swap two neighbouring values of one parity."""
    assume(key.max_label > 1)
    column = 28 + len(key.canonical()) + 16 * key.max_label * (at % 2)
    i = column + 8 * (at // 2 % (key.max_label - 1))
    raw[i : i + 16] = raw[i + 8 : i + 16] + raw[i : i + 8]


@settings(max_examples=40, deadline=None)
@given(
    table=tables,
    tamper=st.sampled_from([tamper_key, tamper_dim, tamper_order]),
    at=st.integers(min_value=0),
)
def test_tampered_key_dim_or_order_rejected(table, tamper, at):
    # The checksum is recomputed, so only the key and column checks can object.
    key = sample_key(max_label=len(table[0]))
    with tempfile.TemporaryDirectory() as tmp:
        cache.store_records(tmp, key, *table)
        bin_path = Path(tmp) / f"{key.entry_id()}.bin"
        raw = bytearray(bin_path.read_bytes()[:-32])
        tamper(raw, key, at)
        bin_path.write_bytes(bytes(raw) + hashlib.sha256(bytes(raw)).digest())
        with pytest.raises(cache.CacheCorruptionError):
            cache.load_records(tmp, key)


def test_format_version_pins_stored_solver_values():
    digest = hashlib.sha256()
    for (g, delta, max_label), eigen_tol in itertools.product(PINNED_POINTS, (1e-10, 1e-16)):
        for parity in Parity:
            records = adaptive_spectrum(parity, ModelParams(g, delta), max_label, eigen_tol=eigen_tol)
            spectrum = ParitySpectrum.from_records(records)
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
