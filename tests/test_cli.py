import json

import pytest

from oracles import csv_cell_value, parse_csv_report
from rabi import ConvergenceError, eigensolver
from rabi.cli import EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_IO, EXIT_OK, main


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


def test_spectrum_determinism_and_warm_cache(tmp_path):
    code1, out1 = run(tmp_path, "spectrum", "a.csv", "--delta", "0.4", "--n-max", "12")
    assert code1 == EXIT_OK
    before = eigensolver.counters.total()
    code2, out2 = run(tmp_path, "spectrum", "b.csv", "--delta", "0.4", "--n-max", "12")
    after = eigensolver.counters.total()
    assert code2 == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert after == before, "warm-cache run must not invoke the eigensolver"


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


def test_huge_finite_coupling_exceeds_truncation_cap(tmp_path, capsys):
    # 8 g^2 alone exceeds the dimension cap, without overflowing g**2.
    for g in ("400", "1e200"):
        code = main(["classify", "--g", g, "--no-cache", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONVERGENCE
        assert "initial truncation exceeds cap" in capsys.readouterr().err


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


def test_convergence_failure_exit_code(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ConvergenceError("synthetic truncation failure")

    monkeypatch.setattr("rabi.cli.adaptive_spectrum", fail)
    code = main(["spectrum", "--n-max", "4", "--no-cache", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONVERGENCE


def test_stdout_output(tmp_path, capsys):
    code = main(["badset", "--no-cache"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("n_cap,")
