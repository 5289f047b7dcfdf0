"""Command-line front end: spectra, interval reports, statistics, bad-set counts.

Usage:
    rabi spectrum  [flags]     eigenvalue table for both parity classes
    rabi classify  [flags]     per-interval occupancy, good/bad flags, pattern check
    rabi spacings  [flags]     merged-spectrum spacing types and frequencies
    rabi arcsine   [flags]     deviation ECDF against the closed-form arcsine CDF
    rabi badset    [flags]     bad-index counts and fractional-part discrepancy ladder

Shared flags: --g --delta --n-max --delta-exp --tol --trunc-tol
--boundary-eps --tie-tol --format {csv,json} --cache-dir --no-cache --out PATH

Reports are deterministic: identical flags produce byte-identical output, and
CSV/JSON carry the same numeric content (floats are serialized with 17
significant digits, enough to round-trip doubles).  Converged spectra are
cached per (g, delta, parity, max_label, tolerances); corrupted cache entries
are detected, reported on stderr, and recomputed.

Exit codes: 0 success, 2 invalid configuration, 3 convergence or labeling
failure, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, cache, intervals, stats
from .eigensolver import (
    ConvergenceError,
    LabelingError,
    ParitySpectrum,
    SpectrumTable,
    adaptive_spectrum,
)
from .model import ModelParams, Parity

__all__ = ["RunConfig", "ConfigError", "main", "run_command"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

# badset needs no spectrum; its window ladder is fixed and cheap.
BADSET_LADDER = (2**10, 2**12, 2**14, 2**16)
FEJER_INTERVAL = (0.0, 0.5)

# classify needs labels a little beyond the last reported interval.
_CLASSIFY_MARGIN = 8


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    g: float = 0.7
    delta: float = 0.4
    n_max: int = 2000
    delta_exp: float = 0.05
    eigen_tol: float = 1e-10
    trunc_tol: float = 1e-8
    boundary_eps: float = 1e-6
    tie_tol: float = 1e-9
    fmt: str = "csv"
    cache_dir: str = ""
    use_cache: bool = True
    out: str = ""

    def validate(self) -> None:
        if not (0.0 < self.g < math.inf):
            raise ConfigError(f"--g must be positive and finite, got {self.g}")
        if not (0.0 <= self.delta < math.inf):
            raise ConfigError(f"--delta must be finite and >= 0, got {self.delta}")
        if self.n_max < 1:
            raise ConfigError(f"--n-max must be >= 1, got {self.n_max}")
        if not (0.0 < self.delta_exp < 0.25):
            raise ConfigError(f"--delta-exp must lie in (0, 1/4), got {self.delta_exp}")
        for name, value in (
            ("--tol", self.eigen_tol),
            ("--trunc-tol", self.trunc_tol),
            ("--boundary-eps", self.boundary_eps),
            ("--tie-tol", self.tie_tol),
        ):
            if not (value > 0.0):
                raise ConfigError(f"{name} must be positive, got {value}")
        if not (self.boundary_eps < 0.5):
            raise ConfigError(f"--boundary-eps must be below 1/2, got {self.boundary_eps}")
        if self.boundary_eps < 100.0 * self.eigen_tol:
            raise ConfigError(
                f"--boundary-eps ({self.boundary_eps:g}) must exceed --tol "
                f"({self.eigen_tol:g}) by at least 100x"
            )
        if self.tie_tol <= self.eigen_tol:
            raise ConfigError(
                f"--tie-tol ({self.tie_tol:g}) must exceed --tol ({self.eigen_tol:g})"
            )
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"--format must be csv or json, got {self.fmt!r}")

    @property
    def params(self) -> ModelParams:
        return ModelParams(g=self.g, delta=self.delta)

    def config_items(self) -> list:
        return [
            ("g", self.g),
            ("delta", self.delta),
            ("n_max", self.n_max),
            ("delta_exp", self.delta_exp),
            ("eigen_tol", self.eigen_tol),
            ("trunc_tol", self.trunc_tol),
            ("boundary_eps", self.boundary_eps),
            ("tie_tol", self.tie_tol),
        ]


@dataclass(frozen=True)
class Report:
    command: str
    config: list
    columns: list
    rows: list
    summary: list


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def render_csv(report: Report) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_fmt_value(v) for v in row))
    lines.append("# config")
    for key, value in report.config:
        lines.append(f"# {key},{_fmt_value(value)}")
    if report.summary:
        lines.append("# summary")
        for key, value in report.summary:
            lines.append(f"# {key},{_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def render_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "config": {k: _jsonable(v) for k, v in report.config},
        "columns": list(report.columns),
        "rows": [[_jsonable(v) for v in row] for row in report.rows],
        "summary": {k: _jsonable(v) for k, v in report.summary},
    }
    return json.dumps(payload, indent=2) + "\n"


def _default_cache_dir() -> Path:
    return Path.home() / ".cache" / "rabi"


def _load_or_compute(config: RunConfig, parity: Parity, max_label: int) -> ParitySpectrum:
    cache_dir = Path(config.cache_dir) if config.cache_dir else _default_cache_dir()
    key = cache.CacheKey(
        g=config.g,
        delta=config.delta,
        parity=parity.label,
        max_label=max_label,
        eigen_tol=config.eigen_tol,
        trunc_tol=config.trunc_tol,
    )
    if config.use_cache:
        try:
            spectrum = cache.load_records(cache_dir, key)
        except cache.CacheCorruptionError as exc:
            print(f"rabi: corrupt cache entry, recomputing: {exc}", file=sys.stderr)
            spectrum = None
        if spectrum is not None:
            return spectrum
    records = adaptive_spectrum(
        parity,
        config.params,
        max_label,
        tol=config.trunc_tol,
        eigen_tol=config.eigen_tol,
    )
    spectrum = ParitySpectrum.from_records(records)
    if config.use_cache:
        try:
            cache.store_records(cache_dir, key, spectrum)
        except OSError as exc:
            print(f"rabi: cache write failed, continuing: {exc}", file=sys.stderr)
    return spectrum


def _build_table(config: RunConfig, max_label: int) -> SpectrumTable:
    plus = _load_or_compute(config, Parity.PLUS, max_label)
    minus = _load_or_compute(config, Parity.MINUS, max_label)
    return SpectrumTable.from_records(
        config.params,
        plus,
        minus,
        eigen_tol=config.eigen_tol,
        trunc_tol=config.trunc_tol,
    )


def cmd_spectrum(config: RunConfig) -> Report:
    table = _build_table(config, config.n_max)
    g_sq = config.g**2
    per_parity = []
    for parity in Parity:
        spectrum = table.spectrum(parity)
        per_parity.append(
            zip(
                range(1, config.n_max + 1),
                itertools.repeat(parity.label),
                spectrum.values.tolist(),
                (spectrum.values + g_sq).tolist(),
                itertools.repeat(spectrum.truncation_dim),
                spectrum.errors.tolist(),
            )
        )
    rows = [row for pair in zip(*per_parity) for row in pair]
    return Report(
        command="spectrum",
        config=config.config_items(),
        columns=["n", "parity", "eigenvalue", "shifted", "truncation_dim", "error_estimate"],
        rows=rows,
        summary=[],
    )


def cmd_classify(config: RunConfig) -> Report:
    table = _build_table(config, config.n_max + _CLASSIFY_MARGIN)
    classifications = intervals.classify_range(
        table,
        1,
        config.n_max + 1,
        eps=config.boundary_eps,
        n_cap=config.n_max,
        delta_exp=config.delta_exp,
    )
    reported = classifications[: config.n_max]
    patterns = [intervals.PatternVerdict.UNCLASSIFIED] + [
        intervals.check_alternation_pattern(n, classifications[n - 2 : n + 1])
        for n in range(2, config.n_max + 1)
    ]
    rows = [
        (c.n, c.good, c.count_plus, c.count_minus, c.boundary_hits, c.verdict.label, p.label)
        for c, p in zip(reported, patterns)
    ]
    tally = collections.Counter(patterns)
    n_good = sum(c.good for c in reported)
    n_bad = len(reported) - n_good
    n_boundary = sum(c.verdict is intervals.IntervalVerdict.BOUNDARY for c in reported)
    window_lo = (config.n_max + 1) // 2
    in_window = reported[window_lo - 1 :]
    bad_window = sum(not c.good for c in in_window)
    threshold = float(config.n_max) ** (-0.25 + config.delta_exp)
    summary = [
        ("n_good", n_good),
        ("n_bad", n_bad),
        ("n_pass", tally[intervals.PatternVerdict.PASS]),
        ("n_fail", tally[intervals.PatternVerdict.FAIL]),
        ("n_boundary", n_boundary),
        ("n_unclassified", tally[intervals.PatternVerdict.UNCLASSIFIED]),
        ("bad_fraction", n_bad / len(reported)),
        ("bad_fraction_window", bad_window / len(in_window)),
        ("good_threshold", threshold),
        ("predicted_bad_fraction", 2.0 * threshold / math.pi),
    ]
    return Report(
        command="classify",
        config=config.config_items(),
        columns=["n", "good", "count_plus", "count_minus", "boundary_hits", "verdict", "pattern"],
        rows=rows,
        summary=summary,
    )


def cmd_spacings(config: RunConfig) -> Report:
    table = _build_table(config, config.n_max)
    merged = stats.merge_spectra(table, tie_tol=config.tie_tol)
    spacings = stats.classify_spacings(merged, tie_tol=config.tie_tol)
    report = stats.spacing_frequencies(spacings)
    kind_labels = np.array([kind.label for kind in stats.SpacingKind])
    included = ~spacings.degenerate
    seen = np.cumsum(included)[:, None]
    one_hot = spacings.kinds[:, None] == np.arange(kind_labels.size)
    counts = np.cumsum(one_hot & included[:, None], axis=0)
    running = np.divide(counts, seen, out=np.zeros(counts.shape), where=seen > 0)
    rows = list(
        zip(
            range(spacings.gaps.size),
            spacings.gaps.tolist(),
            kind_labels[spacings.kinds].tolist(),
            spacings.degenerate.tolist(),
            *running.T.tolist(),
        )
    )
    summary = [
        ("f_positive", report.f_positive),
        ("f_negative", report.f_negative),
        ("f_mixed", report.f_mixed),
        ("total", report.total),
        ("n_degenerate", report.n_degenerate),
        ("n_ties", len(merged.ties)),
    ]
    return Report(
        command="spacings",
        config=config.config_items(),
        columns=[
            "position",
            "gap",
            "kind",
            "degenerate",
            "run_f_positive",
            "run_f_negative",
            "run_f_mixed",
        ],
        rows=rows,
        summary=summary,
    )


def cmd_arcsine(config: RunConfig) -> Report:
    table = _build_table(config, config.n_max)
    params = config.params
    support = asymptotics.deviation_amplitude(params)
    min_label = stats.DEFAULT_MIN_LABEL if config.n_max > stats.DEFAULT_MIN_LABEL else 1
    ecdfs = {
        p: stats.empirical_deviation_distribution(table, p, min_label=min_label)
        for p in Parity
    }
    degenerate = support == 0.0
    grid = np.array([0.0]) if degenerate else np.linspace(-support, support, 512)
    cdf_vals = stats.arcsine_cdf(grid, params)
    ecdf_plus = ecdfs[Parity.PLUS].evaluate(grid)
    ecdf_minus = ecdfs[Parity.MINUS].evaluate(grid)
    rows = [
        (float(y), float(c), float(ep), float(em))
        for y, c, ep, em in zip(grid, np.atleast_1d(cdf_vals), ecdf_plus, ecdf_minus)
    ]
    summary = [
        ("ks_plus", stats.ks_distance(ecdfs[Parity.PLUS], lambda y: stats.arcsine_cdf(y, params))),
        ("ks_minus", stats.ks_distance(ecdfs[Parity.MINUS], lambda y: stats.arcsine_cdf(y, params))),
        ("n_plus", ecdfs[Parity.PLUS].n_samples),
        ("n_minus", ecdfs[Parity.MINUS].n_samples),
        ("support", support),
        ("min_label", min_label),
        ("degenerate", degenerate),
    ]
    return Report(
        command="arcsine",
        config=config.config_items(),
        columns=["y", "cdf", "ecdf_plus", "ecdf_minus"],
        rows=rows,
        summary=summary,
    )


def cmd_badset(config: RunConfig) -> Report:
    a = 4.0 * config.g / math.pi
    gamma = 0.25
    alpha, beta = FEJER_INTERVAL
    points = intervals.bad_set_ladder(BADSET_LADDER, config.delta_exp, config.g)
    rows = []
    disc_ratios = []
    for point in points:
        fejer = intervals.fejer_count(a, gamma, alpha, beta, point.n_cap)
        disc_ratio = fejer.discrepancy / math.sqrt(point.n_cap)
        disc_ratios.append(disc_ratio)
        rows.append(
            (
                point.n_cap,
                point.count,
                point.predicted,
                point.ratio,
                fejer.count,
                fejer.expected,
                fejer.discrepancy,
                disc_ratio,
            )
        )
    slope = intervals.bad_count_slope(points)
    positive = [r for r in disc_ratios if r > 0]
    stability = (max(positive) / min(positive)) if positive else float("inf")
    summary = [
        ("bad_count_slope", slope),
        ("fejer_a", a),
        ("fejer_gamma", gamma),
        ("fejer_alpha", alpha),
        ("fejer_beta", beta),
        ("disc_stability_ratio", stability),
    ]
    return Report(
        command="badset",
        config=config.config_items(),
        columns=[
            "n_cap",
            "bad_count",
            "bad_predicted",
            "bad_ratio",
            "fejer_count",
            "fejer_expected",
            "fejer_discrepancy",
            "disc_over_sqrt_n",
        ],
        rows=rows,
        summary=summary,
    )


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "classify": cmd_classify,
    "spacings": cmd_spacings,
    "arcsine": cmd_arcsine,
    "badset": cmd_badset,
}


def run_command(command: str, config: RunConfig) -> str:
    """Run one subcommand and return the rendered report text."""
    config.validate()
    report = _COMMANDS[command](config)
    if config.fmt == "json":
        return render_json(report)
    return render_csv(report)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi",
        description="Spectral toolkit for the quantum Rabi model parity classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "converged eigenvalue table for both parity classes"),
        ("classify", "interval occupancy, good/bad flags, alternation pattern"),
        ("spacings", "merged-spectrum spacing types and frequencies"),
        ("arcsine", "deviation ECDF against the closed-form arcsine CDF"),
        ("badset", "bad-index counts and fractional-part discrepancy ladder"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--g", type=float, default=0.7, help="coupling strength (default 0.7)")
        cmd.add_argument("--delta", type=float, default=0.4, help="level splitting (default 0.4)")
        cmd.add_argument("--n-max", type=int, default=2000, help="largest label N (default 2000)")
        cmd.add_argument(
            "--delta-exp", type=float, default=0.05, help="good/bad exponent in (0, 1/4)"
        )
        cmd.add_argument("--tol", type=float, default=1e-10, help="eigenvalue tolerance")
        cmd.add_argument(
            "--trunc-tol", type=float, default=1e-8, help="truncation convergence tolerance"
        )
        cmd.add_argument(
            "--boundary-eps", type=float, default=1e-6, help="integer-boundary tolerance"
        )
        cmd.add_argument("--tie-tol", type=float, default=1e-9, help="degenerate-gap tolerance")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        cmd.add_argument("--cache-dir", default="", help="cache directory (default ~/.cache/rabi)")
        cmd.add_argument("--no-cache", action="store_true", help="disable the spectrum cache")
        cmd.add_argument("--out", default="", help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    config = RunConfig(
        g=args.g,
        delta=args.delta,
        n_max=args.n_max,
        delta_exp=args.delta_exp,
        eigen_tol=args.tol,
        trunc_tol=args.trunc_tol,
        boundary_eps=args.boundary_eps,
        tie_tol=args.tie_tol,
        fmt=args.fmt,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        out=args.out,
    )
    try:
        text = run_command(args.command, config)
    except ValueError as exc:
        print(f"rabi: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, LabelingError) as exc:
        print(f"rabi: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    try:
        if config.out:
            Path(config.out).write_text(text, encoding="ascii")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"rabi: output failed: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
