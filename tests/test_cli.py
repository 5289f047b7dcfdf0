import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    csv_cell_value,
    mpmath_eigenvalues,
    parse_csv_report,
    record_calls,
    record_round_passes,
)
import rabi
from rabi import ConvergenceError, EigenvalueRecord, eigensolver, intervals
from rabi.cli import EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_IO, EXIT_OK, RunConfig, main


def run(tmp_path, command, name, *extra):
    out = tmp_path / name
    argv = [
        command,
        "--cache-dir",
        str(tmp_path / "cache"),
        "--out",
        str(out),
        *extra,
    ]
    code = main(argv)
    return code, out


def test_spectrum_delta0(tmp_path):
    code, out = run(
        tmp_path, "spectrum", "s.csv", "--g", "0.7", "--delta", "0", "--n-max", "10"
    )
    assert code == EXIT_OK
    columns, rows, config, _ = parse_csv_report(out.read_text())
    assert columns == ["n", "parity", "eigenvalue", "shifted", "truncation_dim", "error_estimate"]
    assert len(rows) == 20
    for row in rows:
        shifted = float(row[3])
        assert abs(shifted - round(shifted)) < 1e-6
    assert float(config["g"]) == 0.7
    assert float(config["delta"]) == 0.0


def test_corrupt_cache_recovers(tmp_path, capsys):
    code1, out1 = run(tmp_path, "spectrum", "a.csv", "--n-max", "8")
    assert code1 == EXIT_OK
    cache_dir = tmp_path / "cache"
    for bin_path in cache_dir.glob("*.bin"):
        raw = bytearray(bin_path.read_bytes())
        raw[-1] ^= 0x01
        bin_path.write_bytes(bytes(raw))
    capsys.readouterr()
    code2, out2 = run(tmp_path, "spectrum", "b.csv", "--n-max", "8")
    assert code2 == EXIT_OK
    assert "corrupt cache entry" in capsys.readouterr().err
    assert out1.read_bytes() == out2.read_bytes()


def test_unreadable_cache_entry_recomputes(tmp_path):
    # A cache path that is a regular file, and an entry that is a directory,
    # cannot be read: the run warns, solves and prints what --no-cache does.
    src = str(Path(rabi.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, HOME=str(tmp_path), PYTHONPATH=os.pathsep.join(filter(None, (src, path))))

    def spectrum(*flags):
        argv = [sys.executable, "-m", "rabi.cli", "spectrum", "--n-max", "4", *flags]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    expected = spectrum("--no-cache")
    assert expected.returncode == EXIT_OK
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    entries = tmp_path / "entries"
    assert main(["spectrum", "--n-max", "4", "--cache-dir", str(entries), "--out", os.devnull]) == 0
    for entry in entries.glob("*.bin"):
        entry.unlink()
        entry.mkdir()
    for cache_dir in (not_a_dir, entries):
        process = spectrum("--cache-dir", str(cache_dir))
        assert process.returncode == EXIT_OK, process.stderr
        assert process.stdout == expected.stdout
        assert "rabi: cache read failed, recomputing:" in process.stderr
        assert "Traceback" not in process.stderr


def test_csv_json_numeric_content_agrees(tmp_path):
    for command, extra in (
        ("spectrum", ("--n-max", "10")),
        ("classify", ("--n-max", "16")),
        ("spacings", ("--n-max", "16")),
        ("arcsine", ("--n-max", "40")),
        ("badset", ()),
    ):
        code, out_csv = run(tmp_path, command, f"{command}.csv", *extra)
        assert code == EXIT_OK
        code, out_json = run(
            tmp_path, command, f"{command}.json", "--format", "json", *extra
        )
        assert code == EXIT_OK
        payload = json.loads(out_json.read_text())
        columns, rows, config, summary = parse_csv_report(out_csv.read_text())
        assert payload["columns"] == columns
        assert len(payload["rows"]) == len(rows)
        for json_row, csv_row in zip(payload["rows"], rows):
            assert json_row == [csv_cell_value(cell) for cell in csv_row]
        assert payload["config"] == {k: csv_cell_value(v) for k, v in config.items()}
        assert payload["summary"] == {k: csv_cell_value(v) for k, v in summary.items()}


def test_classify_delta0_all_boundary(tmp_path):
    code, out = run(tmp_path, "classify", "c.csv", "--delta", "0", "--n-max", "10")
    assert code == EXIT_OK
    columns, rows, _, summary = parse_csv_report(out.read_text())
    verdict_col = columns.index("verdict")
    assert all(row[verdict_col] == "boundary" for row in rows)
    assert int(summary["n_boundary"]) == 10


def test_classify_summary_consistency(tmp_path):
    code, out = run(tmp_path, "classify", "c.csv", "--n-max", "48")
    assert code == EXIT_OK
    columns, rows, _, summary = parse_csv_report(out.read_text())
    assert len(rows) == 48
    assert int(summary["n_good"]) + int(summary["n_bad"]) == 48
    total_patterns = (
        int(summary["n_pass"]) + int(summary["n_fail"]) + int(summary["n_unclassified"])
    )
    assert total_patterns == 48
    good_col = columns.index("good")
    assert sum(1 for row in rows if row[good_col] == "true") == int(summary["n_good"])


def test_classify_report_builds_no_per_interval_objects(tmp_path):
    # The package has no per-interval type: classify's report is its columns,
    # and a warm run repeats the cold bytes without a solve.
    code, cold = run(tmp_path, "classify", "cold.csv", "--n-max", "40")
    assert code == EXIT_OK
    before = eigensolver.counters.total()
    code, warm = run(tmp_path, "classify", "warm.csv", "--n-max", "40")
    assert code == EXIT_OK
    assert eigensolver.counters.total() == before
    assert warm.read_bytes() == cold.read_bytes()


def test_spacings_report(tmp_path):
    code, out = run(tmp_path, "spacings", "sp.csv", "--n-max", "48")
    assert code == EXIT_OK
    columns, rows, _, summary = parse_csv_report(out.read_text())
    assert len(rows) == 2 * 48 - 1
    frequencies = [float(summary[k]) for k in ("f_positive", "f_negative", "f_mixed")]
    assert sum(frequencies) == pytest.approx(1.0, abs=1e-12)
    run_cols = [columns.index(f"run_f_{k}") for k in ("positive", "negative", "mixed")]
    last = rows[-1]
    for freq, col in zip(frequencies, run_cols):
        assert float(last[col]) == pytest.approx(freq, abs=1e-12)
    assert_running_fractions_match_loop(columns, rows)
    # Delta = 0 makes every other gap degenerate, including the first.
    code, out = run(tmp_path, "spacings", "sp0.csv", "--delta", "0", "--n-max", "12")
    assert code == EXIT_OK
    columns, rows, _, _ = parse_csv_report(out.read_text())
    assert rows[0][columns.index("degenerate")] == "true"
    assert_running_fractions_match_loop(columns, rows)


def assert_running_fractions_match_loop(columns, rows):
    """Running fractions equal a plain loop over the rows, exactly."""
    kind_col, degenerate_col = columns.index("kind"), columns.index("degenerate")
    run_cols = [columns.index(f"run_f_{k}") for k in ("positive", "negative", "mixed")]
    counts = {"positive": 0, "negative": 0, "mixed": 0}
    included = 0
    for row in rows:
        if row[degenerate_col] == "false":
            counts[row[kind_col]] += 1
            included += 1
        expected = [counts[k] / included if included else 0.0 for k in counts]
        assert [float(row[col]) for col in run_cols] == expected


def test_arcsine_report_endpoints(tmp_path):
    code, out = run(tmp_path, "arcsine", "a.csv", "--n-max", "64")
    assert code == EXIT_OK
    _, rows, _, summary = parse_csv_report(out.read_text())
    assert len(rows) == 512
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == 1.0
    assert summary["degenerate"] == "false"
    assert int(summary["n_plus"]) == 64 - 31


def test_arcsine_degenerate_flagged(tmp_path):
    code, out = run(tmp_path, "arcsine", "a0.csv", "--delta", "0", "--n-max", "40")
    assert code == EXIT_OK
    _, rows, _, summary = parse_csv_report(out.read_text())
    assert summary["degenerate"] == "true"
    assert len(rows) == 1


def test_badset_report(tmp_path):
    code, out = run(tmp_path, "badset", "b.csv")
    assert code == EXIT_OK
    columns, rows, _, summary = parse_csv_report(out.read_text())
    assert [int(row[0]) for row in rows] == [2**10, 2**12, 2**14, 2**16]
    slope = float(summary["bad_count_slope"])
    assert 0.6 <= slope <= 0.95
    assert float(summary["disc_stability_ratio"]) < 10.0
    ratio_col = columns.index("bad_ratio")
    for row in rows:
        assert 1.0 / 3.0 <= float(row[ratio_col]) <= 3.0


def test_invalid_config_exit_codes(tmp_path):
    assert main(["classify", "--delta-exp", "0.3"]) == EXIT_CONFIG
    assert main(["spectrum", "--n-max", "0"]) == EXIT_CONFIG
    assert main(["spectrum", "--g", "-1"]) == EXIT_CONFIG
    assert main(["spectrum", "--boundary-eps", "1e-9"]) == EXIT_CONFIG
    assert main(["spectrum", "--format", "yaml"]) == EXIT_CONFIG
    assert main(["frobnicate"]) == EXIT_CONFIG
    for flag, value in (
        ("--g", "inf"),
        ("--g", "nan"),
        ("--delta", "inf"),
        ("--delta", "nan"),
        ("--boundary-eps", "0.5"),
    ):
        assert main(["classify", flag, value, "--no-cache"]) == EXIT_CONFIG, (flag, value)


def test_report_limits_exit_config_naming_the_flag(capsys):
    # Every merged gap below --tie-tol leaves the spacing frequencies
    # undefined; classify's window [N/2, N] needs N >= 2.
    for argv, flag in (
        (["spacings", "--tie-tol", "10", "--n-max", "4"], "--tie-tol"),
        (["spacings", "--delta", "0", "--n-max", "1"], "--tie-tol"),
        (["classify", "--n-max", "1"], "--n-max"),
    ):
        assert main([*argv, "--no-cache"]) == EXIT_CONFIG, argv
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err and flag in captured.err.split()
        assert captured.out == ""


# Values RunConfig.validate must reject, per numeric flag.
_NONPOSITIVE = st.floats(max_value=0.0)
_NONFINITE = st.sampled_from([math.nan, math.inf])
INVALID_VALUES = {
    "--g": st.one_of(_NONPOSITIVE, _NONFINITE),
    "--delta": st.one_of(st.floats(max_value=0.0, exclude_max=True), _NONFINITE),
    "--n-max": st.integers(max_value=0),
    "--delta-exp": st.one_of(_NONPOSITIVE, st.floats(min_value=0.25), _NONFINITE),
    "--tol": st.one_of(_NONPOSITIVE, _NONFINITE),
    "--trunc-tol": st.one_of(_NONPOSITIVE, _NONFINITE),
    "--boundary-eps": st.one_of(_NONPOSITIVE, st.floats(min_value=0.5), _NONFINITE),
    "--tie-tol": st.one_of(_NONPOSITIVE, _NONFINITE),
}
NUMERIC_FLAGS = [
    f.metadata["flag"] for f in fields(RunConfig) if type(f.default) in (int, float)
]


@settings(max_examples=150, deadline=None)
@given(flag=st.sampled_from(NUMERIC_FLAGS), data=st.data())
def test_invalid_flag_value_exits_config_naming_the_flag(flag, data):
    value = data.draw(INVALID_VALUES[flag], label="value")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["badset", "--no-cache", f"{flag}={value!r}"])
    err = stderr.getvalue()
    assert code == EXIT_CONFIG
    assert flag in err.replace(":", " ").split(), err
    assert "Traceback" not in err


def test_every_reported_flag_reaches_the_config_block(tmp_path, monkeypatch):
    # RunConfig field -> (flag, a valid non-default value).
    values = {
        "g": ("--g", 1.1),
        "delta": ("--delta", 0.3),
        "n_max": ("--n-max", 37),
        "delta_exp": ("--delta-exp", 0.1),
        "eigen_tol": ("--tol", 2e-10),
        "trunc_tol": ("--trunc-tol", 3e-8),
        "boundary_eps": ("--boundary-eps", 2e-6),
        "tie_tol": ("--tie-tol", 5e-9),
    }
    defaults = RunConfig()
    assert all(getattr(defaults, name) != value for name, (_, value) in values.items())
    expected = {name: value for name, (_, value) in values.items()}
    argv = [arg for flag, value in values.values() for arg in (flag, str(value))]
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    code, out_csv = run(tmp_path, "badset", "b.csv", "--no-cache", *argv)
    assert code == EXIT_OK
    _, _, config, _ = parse_csv_report(out_csv.read_text())
    assert {k: csv_cell_value(v) for k, v in config.items()} == expected
    assert list(config) == list(expected)
    code, out_json = run(tmp_path, "badset", "b.json", "--no-cache", "--format", "json", *argv)
    assert code == EXIT_OK
    assert json.loads(out_json.read_text())["config"] == expected
    # A solving command with --no-cache writes no cache, given or default.
    code, _ = run(tmp_path, "spectrum", "s.csv", "--no-cache", "--n-max", "4")
    assert code == EXIT_OK
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "home").exists()


def test_huge_finite_coupling_exceeds_truncation_cap(tmp_path, capsys):
    # 8 g^2 alone exceeds the dimension cap, without overflowing g**2.
    for g in ("400", "1e200"):
        code = main(["classify", "--g", g, "--no-cache", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONVERGENCE
        assert "initial truncation exceeds cap" in capsys.readouterr().err


def test_label_calibration_that_fits_nothing_exits_convergence(capsys):
    # At delta = 1e15 float64 values near the spectrum are 1/8 apart, so no
    # value meets tol + trunc-tol; the message names that spacing.
    assert main(["spacings", "--delta", "1e15", "--n-max", "4", "--no-cache"]) == EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert "float64 spacing 0.125" in err and "cannot be resolved" in err


def assert_matches_reference(out, params, n_max):
    """Each parity's values in the report lie within tol + trunc-tol of the
    reference solver at twice their truncation dim."""
    columns, rows, _, _ = parse_csv_report(out.read_text())
    for parity in rabi.Parity:
        mine = [row for row in rows if row[columns.index("parity")] == parity.label]
        values = [float(row[columns.index("eigenvalue")]) for row in mine]
        dim = int(mine[0][columns.index("truncation_dim")])
        matrix = rabi.build_truncated(parity, params, 2 * dim)
        reference = rabi.lowest_eigenvalues(matrix, n_max + 1, eigensolver.DEFAULT_EIGEN_TOL)[1:]
        allowed = eigensolver.DEFAULT_EIGEN_TOL + eigensolver.DEFAULT_TRUNC_TOL
        assert max(abs(v - r) for v, r in zip(values, reference)) <= allowed


def assert_within_estimates_of_mpmath(out, params):
    """Each value in the report lies within its error estimate of the
    eigenvalue of its label of the solve's own truncation, at 30 digits."""
    columns, rows, _, _ = parse_csv_report(out.read_text())
    column = {name: columns.index(name) for name in columns}
    for parity in rabi.Parity:
        mine = [row for row in rows if row[column["parity"]] == parity.label]
        matrix = rabi.build_truncated(parity, params, int(mine[0][column["truncation_dim"]]))
        exact = mpmath_eigenvalues(matrix.diag, matrix.offdiag)
        for row in mine:
            value, estimate = (float(row[column[name]]) for name in ("eigenvalue", "error_estimate"))
            assert abs(mpmath.mpf(value) - exact[int(row[column["n"]])]) <= estimate


def test_large_delta_solves_until_float_resolution(tmp_path, capsys):
    # Labels are Sturm counts, so a spectrum far from the n - g**2 regime is
    # solved like any other, as long as float64 resolves its values to the
    # tolerances; past that the solve exits 3 and names the float spacing.
    flags = ["--no-cache", "--n-max", "40", "--delta"]
    for delta in (200.0, 1e4):
        code, out = run(tmp_path, "spectrum", f"{delta:g}.csv", *flags, repr(delta))
        assert code == EXIT_OK
        assert_matches_reference(out, rabi.ModelParams(0.7, delta), 40)
    for delta in (1.5e8, 1e9, 1e15):
        assert main(["spectrum", *flags, repr(delta)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert f"float64 spacing {math.ulp(delta):.3g}" in err and "cannot be resolved" in err
    # The boundary: float64's spacing is 1.49e-08 at 1e8, so half of it stays
    # within tol + trunc-tol, and 2.98e-08 at 1.5e8, so half of it does not.
    # Both sides hold at four labels as at forty.  At 1e8 the estimate is the
    # pivot guard's 4 pivmin (8.9e-08), above one float64 step, and only exact
    # arithmetic can check it: the float64 reference counts with the same guard.
    for n_max in (4, 40):
        argv = ["--no-cache", "--n-max", str(n_max), "--delta"]
        code, out = run(tmp_path, "spectrum", f"1e8-{n_max}.csv", *argv, "1e8")
        assert code == EXIT_OK
        assert_within_estimates_of_mpmath(out, rabi.ModelParams(0.7, 1e8))
        assert main(["spectrum", *argv, "1.5e8"]) == EXIT_CONVERGENCE
        assert "float64 spacing 2.98e-08" in capsys.readouterr().err


def test_label_spacing_below_float_resolution_exits_convergence(capsys):
    # At delta = 1e200 neighbouring float64 values are ~1e184 apart, so no
    # offset can be calibrated; the message names the spacing instead.
    assert main(["spacings", "--delta", "1e200", "--n-max", "4", "--no-cache"]) == EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert "float64 spacing 1.7e+184" in err and "cannot be resolved" in err
    assert "ambiguous" not in err and len(err) < 200


def test_label_count_past_the_cap_exits_convergence(capsys):
    # The cap is checked before any per-label array is built: 10**15 labels
    # would need petabytes.  classify asks for N + 8 labels.
    for command in ("spectrum", "classify"):
        assert main([command, "--n-max", str(10**15), "--no-cache"]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("rabi: convergence failure:") and err.count("\n") == 1, err
        assert f"dimension cap {eigensolver.M_MAX}" in err


def test_delta_at_the_float_limit_exits_at_the_first_bisection(monkeypatch, capsys):
    # Every label reaches the fallback round, whose values sit at float64's
    # spacing there, and the float-resolution rule exits before any lane is
    # refused; bracket ends near the float limit neither overflow nor warn.
    # The solve builds no matrix: the fallback is a window on rows 0..m-1.
    assert not hasattr(eigensolver, "build_truncated")
    built, fallbacks = [], []
    record_calls(monkeypatch, "build_truncated", built, rabi.model)
    record_calls(monkeypatch, "_fallback", fallbacks)
    for delta in ("1e308", "1.7976931348623157e308"):
        built.clear()
        fallbacks.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["spectrum", "--delta", delta, "--n-max", "4", "--no-cache"])
        assert code == EXIT_CONVERGENCE
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("rabi: convergence failure: label ") and err.count("\n") == 1, err
        assert "float64 spacing 2e+292" in err and "cannot be resolved" in err
        assert built == [] and len(fallbacks) == 1, (built, fallbacks)


def test_smoke_fallback_point_reaches_the_fallback(tmp_path, monkeypatch):
    # The CI smoke step's fallback run: at delta = 30 labels 1..~30 sit far
    # below n - g**2, outside their unit brackets, so each parity sends lanes
    # to _fallback, and the command still exits 0.
    fallen = []
    record_calls(monkeypatch, "_fallback", fallen)
    code, _ = run(tmp_path, "spectrum", "s.csv", "--delta", "30", "--n-max", "40", "--no-cache")
    assert code == EXIT_OK
    assert [args[0] for args, _ in fallen] == list(rabi.Parity)


def test_trunc_tol_below_tol_exits_config(tmp_path, capsys):
    # The float-resolution allowance tol + trunc-tol stays at no less than
    # 2 tol (values are solved only to --tol), so --trunc-tol may not undercut --tol.
    assert main(["spectrum", "--trunc-tol", "1e-13", "--n-max", "4", "--no-cache"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "invalid configuration" in captured.err and "--trunc-tol" in captured.err.split()
    assert captured.out == ""
    code, _ = run(tmp_path, "spectrum", "s.csv", "--trunc-tol", "1e-10", "--n-max", "4")
    assert code == EXIT_OK


def test_boundary_rule_is_the_intervals_constant(monkeypatch, capsys):
    monkeypatch.setattr(intervals, "_EPS_OVER_EIGEN_TOL", 1000.0)
    assert main(["badset", "--boundary-eps", "1e-8", "--no-cache"]) == EXIT_CONFIG
    assert "--boundary-eps must exceed --tol (1e-10) by at least 1000x" in capsys.readouterr().err


def test_tolerance_below_float_resolution_stops_at_resolution(tmp_path, monkeypatch):
    rounds = record_round_passes(monkeypatch, eigensolver)
    code, out = run(tmp_path, "spectrum", "s.csv", "--tol", "1e-16", "--n-max", "40", "--no-cache")
    assert code == EXIT_OK
    columns, rows, config, _ = parse_csv_report(out.read_text())
    errors = [float(row[columns.index("error_estimate")]) for row in rows]
    assert all(0.0 < error < float(config["trunc_tol"]) for error in errors)
    # A unit bracket reaches float resolution within ~55 halvings; a round
    # that ran to the iteration cap would make over 200 passes.  One window
    # round per parity, and a fallback round per parity that has one.
    windowed = [passes for kind, passes in rounds if kind == "window"]
    assert len(windowed) == 2 and max(windowed) <= 64, rounds
    assert all(passes <= 64 for kind, passes in rounds if kind == "fallback"), rounds


def test_io_failure_exit_code(tmp_path):
    code = main(
        [
            "badset",
            "--out",
            str(tmp_path / "missing" / "dir" / "x.csv"),
            "--no-cache",
        ]
    )
    assert code == EXIT_IO


def test_exit_codes_of_the_cli_process(tmp_path):
    # The statuses a shell sees from `python -m rabi.cli`, one per exit code.
    src = str(Path(rabi.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(filter(None, (src, path)))
    env = dict(os.environ, HOME=str(tmp_path), PYTHONPATH=pythonpath)
    for argv, status in (
        (["badset", "--no-cache"], EXIT_OK),
        (["spectrum", "--n-max", "0", "--no-cache"], EXIT_CONFIG),
        (["spacings", "--delta", "1e15", "--n-max", "4", "--no-cache"], EXIT_CONVERGENCE),
        (["badset", "--no-cache", "--out", str(tmp_path / "missing" / "dir" / "x.csv")], EXIT_IO),
    ):
        process = subprocess.run(
            [sys.executable, "-m", "rabi.cli", *argv], env=env, capture_output=True, timeout=120
        )
        assert process.returncode == status, (argv, process.stderr)
    assert not (tmp_path / ".cache").exists()


def test_convergence_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ConvergenceError("synthetic truncation failure")

    def decreasing(parity, params, max_label, **kwargs):
        return [EigenvalueRecord(n, parity, -float(n), 64, 0.0) for n in range(1, max_label + 1)]

    # A solver result that breaks a table invariant after the configuration
    # was validated is a numerical failure, not an invalid configuration.
    for solver, message in (
        (fail, "synthetic truncation failure"),
        (decreasing, "values must be strictly increasing"),
    ):
        monkeypatch.setattr("rabi.cli.adaptive_spectrum", solver)
        code = main(["spectrum", "--n-max", "4", "--no-cache", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert message in err
        assert "invalid configuration" not in err


def test_stdout_output(tmp_path, capsys):
    code = main(["badset", "--no-cache"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("n_cap,")


# (g, delta, N, extra flags): a windowed point, two fallback points, delta = 0,
# and --tol 1e-16, where the certificate refuses lanes that Newton solved.
BYTES_POINTS = [
    (0.7, 0.4, 200),
    (0.7, 30.0, 40),
    (0.7, 1e4, 40),
    (0.7, 0.0, 200),
    (3.0, 2.0, 200, "--tol", "1e-16"),
]
PINNED_CLI_SHA256 = "67d5feb45b6d40cd8ae09639df918ded7c277aaa79c3ab1d407d4964fea04803"


def test_cli_bytes_are_pinned(tmp_path):
    # Every command in both formats: stdout, stderr and the exit code.  A
    # change to any byte fails here; re-pin only when the output is meant
    # to change, and bump cache.FORMAT_VERSION if the stored values do.
    digest = hashlib.sha256()
    for index, (g, delta, n_max, *extra) in enumerate(BYTES_POINTS):
        flags = ["--g", str(g), "--delta", str(delta), "--n-max", str(n_max), *extra]
        flags += ["--cache-dir", str(tmp_path / str(index))]
        for command in ("spectrum", "classify", "spacings", "arcsine", "badset"):
            for fmt in ("csv", "json"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, *flags, "--format", fmt])
                argv = " ".join([command, *flags[:-2], fmt])
                for part in (argv, str(code), out.getvalue(), err.getvalue()):
                    digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == PINNED_CLI_SHA256
