"""Command-line front end: spectra, interval reports, statistics, bad-set counts.

Usage:
    rabi spectrum  [flags]     eigenvalue table for both parity classes
    rabi classify  [flags]     per-interval occupancy, good/bad flags, pattern check
    rabi spacings  [flags]     merged-spectrum spacing types and frequencies
    rabi arcsine   [flags]     deviation ECDF against the closed-form arcsine CDF
    rabi badset    [flags]     bad-index counts and fractional-part discrepancy ladder

Every subcommand takes the same flags.  Each is declared once, as a field of
:class:`RunConfig` that names its flag, help text and default; the parser,
the parsed namespace and the ``config`` block of every report are derived
from those fields.  Tolerance defaults are the library's own constants.

Each command fills a :class:`Report` with named 1-d columns.  Reports are
deterministic: identical flags produce byte-identical output, and CSV/JSON
carry the same numeric content.  CSV formats each column by its dtype (floats
with 17 significant digits, enough to round-trip doubles; booleans as
true/false); JSON serializes each column's ``tolist()``.  One cache entry
holds both parity classes of a table, keyed by (g, delta, max_label,
tolerances); a corrupted or unreadable entry is reported once on stderr and
both parities are recomputed.

Exit codes: 0 success, 2 invalid configuration, 3 convergence, labeling or
other numerical failure (a ``ValueError`` raised after the configuration was
validated is a broken invariant, not a configuration error), 4 output I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import asymptotics, cache, intervals, stats
from .eigensolver import (
    DEFAULT_EIGEN_TOL,
    DEFAULT_TRUNC_TOL,
    ConvergenceError,
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

_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid run configuration."""


def _flag(
    flag: str, default, help_text: str | None = None, *, reported: bool = True, **argparse_kw
):
    """A :class:`RunConfig` field set by ``flag``.

    The argument type is the default's type; a bool field is on by default
    and its flag turns it off.  ``reported`` fields form every report's
    ``config`` block, in declaration order.
    """
    if isinstance(default, bool):
        argparse_kw["action"] = "store_false"
    elif "choices" in argparse_kw:
        argparse_kw["type"] = type(default)
    else:
        # Help names the value after the flag, not after the field.
        argparse_kw.update(type=type(default), metavar=flag[2:].upper().replace("-", "_"))
    argparse_kw["help"] = help_text
    return field(
        default=default, metadata={"flag": flag, "reported": reported, "argparse": argparse_kw}
    )


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; each field declares the flag that sets it."""

    g: float = _flag("--g", 0.7, "coupling strength (default %(default)s)")
    delta: float = _flag("--delta", 0.4, "level splitting (default %(default)s)")
    n_max: int = _flag("--n-max", 2000, "largest label N (default %(default)s)")
    delta_exp: float = _flag(
        "--delta-exp", intervals.DEFAULT_DELTA_EXP, "good/bad exponent in (0, 1/4)"
    )
    eigen_tol: float = _flag("--tol", DEFAULT_EIGEN_TOL, "eigenvalue tolerance")
    trunc_tol: float = _flag(
        "--trunc-tol",
        DEFAULT_TRUNC_TOL,
        "float-resolution allowance: half a float64 spacing above tol + it exits 3",
    )
    boundary_eps: float = _flag(
        "--boundary-eps", intervals.DEFAULT_BOUNDARY_EPS, "integer-boundary tolerance"
    )
    tie_tol: float = _flag("--tie-tol", stats.DEFAULT_TIE_TOL, "degenerate-gap tolerance")
    fmt: str = _flag("--format", "csv", reported=False, choices=_FORMATS)
    cache_dir: str = _flag(
        "--cache-dir", "", "cache directory (default ~/.cache/rabi)", reported=False
    )
    use_cache: bool = _flag("--no-cache", True, "disable the spectrum cache", reported=False)
    out: str = _flag("--out", "", "output path (default stdout)", reported=False)

    def validate(self) -> None:
        """Raise :class:`ConfigError`, naming the flag, on the first invalid value."""
        flag = {f.name: f.metadata["flag"] for f in fields(self)}
        tol = f"{flag['eigen_tol']} ({self.eigen_tol:g})"
        for name, ok, requirement in (
            ("g", 0.0 < self.g < math.inf, "must be positive and finite"),
            ("delta", 0.0 <= self.delta < math.inf, "must be finite and >= 0"),
            ("n_max", self.n_max >= 1, "must be >= 1"),
            ("delta_exp", 0.0 < self.delta_exp < 0.25, "must lie in (0, 1/4)"),
            ("eigen_tol", 0.0 < self.eigen_tol < math.inf, "must be positive and finite"),
            ("trunc_tol", 0.0 < self.trunc_tol < math.inf, "must be positive and finite"),
            ("boundary_eps", 0.0 < self.boundary_eps < 0.5, "must lie in (0, 1/2)"),
            ("tie_tol", 0.0 < self.tie_tol < math.inf, "must be positive and finite"),
            ("trunc_tol", self.trunc_tol >= self.eigen_tol, f"must be at least {tol}"),
            (
                "boundary_eps",
                self.boundary_eps >= intervals._EPS_OVER_EIGEN_TOL * self.eigen_tol,
                f"must exceed {tol} by at least {intervals._EPS_OVER_EIGEN_TOL:g}x",
            ),
            ("tie_tol", self.tie_tol > self.eigen_tol, f"must exceed {tol}"),
            ("fmt", self.fmt in _FORMATS, f"must be {' or '.join(_FORMATS)}"),
        ):
            if not ok:
                raise ConfigError(f"{flag[name]} {requirement}, got {getattr(self, name)!r}")

    @property
    def params(self) -> ModelParams:
        return ModelParams(g=self.g, delta=self.delta)

    def config_items(self) -> dict:
        """The reported settings, keyed by field name."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.metadata["reported"]}


@dataclass(frozen=True)
class Report:
    """One command's output: named 1-d columns of one length, plus scalars."""

    command: str
    config: dict
    columns: dict
    summary: dict


def _csv_column(column: np.ndarray) -> tuple:
    """The cell format of one column, picked by its dtype, and its values."""
    if column.dtype == np.bool_:
        return "{}", np.where(column, "true", "false").tolist()
    return ("{:.17g}" if column.dtype.kind == "f" else "{}"), column.tolist()


def render_csv(report: Report) -> str:
    formats, values = zip(*map(_csv_column, report.columns.values()))
    row = ",".join(formats)
    lines = [",".join(report.columns), *(row.format(*cells) for cells in zip(*values))]
    for title, scalars in (("config", report.config), ("summary", report.summary)):
        if scalars:
            lines.append(f"# {title}")
            for key, value in scalars.items():
                cell, (value,) = _csv_column(np.array([value]))
                lines.append(f"# {key},{cell.format(value)}")
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "config": {k: np.array(v).tolist() for k, v in report.config.items()},
        "columns": list(report.columns),
        "rows": list(zip(*(c.tolist() for c in report.columns.values()))),
        "summary": {k: np.array(v).tolist() for k, v in report.summary.items()},
    }
    return json.dumps(payload, indent=2) + "\n"


def _build_table(config: RunConfig, max_label: int) -> SpectrumTable:
    """Both parity classes, labels 1..max_label: one cache entry, or one solve per parity."""
    cache_dir = Path(config.cache_dir or Path.home() / ".cache" / "rabi")
    key = cache.CacheKey(
        g=config.g,
        delta=config.delta,
        max_label=max_label,
        eigen_tol=config.eigen_tol,
        trunc_tol=config.trunc_tol,
    )
    spectra = None
    if config.use_cache:
        try:
            spectra = cache.load_records(cache_dir, key)
        except cache.CacheCorruptionError as exc:
            print(f"rabi: corrupt cache entry, recomputing: {exc}", file=sys.stderr)
        except OSError as exc:
            print(f"rabi: cache read failed, recomputing: {exc}", file=sys.stderr)
    if spectra is None:
        spectra = [
            ParitySpectrum.from_records(
                adaptive_spectrum(
                    parity,
                    config.params,
                    max_label,
                    tol=config.trunc_tol,
                    eigen_tol=config.eigen_tol,
                )
            )
            for parity in Parity
        ]
        if config.use_cache:
            try:
                cache.store_records(cache_dir, key, *spectra)
            except OSError as exc:
                print(f"rabi: cache write failed, continuing: {exc}", file=sys.stderr)
    return SpectrumTable.from_records(
        config.params, *spectra, eigen_tol=config.eigen_tol, trunc_tol=config.trunc_tol
    )


def cmd_spectrum(config: RunConfig) -> Report:
    table = _build_table(config, config.n_max)
    spectra = [table.spectrum(parity) for parity in Parity]

    def by_label(per_parity) -> np.ndarray:
        """One column from a column per parity: label n's PLUS row, then its MINUS row."""
        return np.stack(per_parity, axis=1).ravel()

    n = config.n_max
    columns = {
        "n": np.repeat(table.labels(Parity.PLUS), 2),
        "parity": by_label([np.full(n, parity.label) for parity in Parity]),
        "eigenvalue": by_label([s.values for s in spectra]),
        "shifted": by_label([intervals.shifted_values(table, p) for p in Parity]),
        "truncation_dim": by_label([np.full(n, s.truncation_dim) for s in spectra]),
        "error_estimate": by_label([s.errors for s in spectra]),
    }
    return Report("spectrum", config.config_items(), columns, {})


def cmd_classify(config: RunConfig) -> Report:
    if config.n_max < 2:
        raise ConfigError(f"--n-max must be >= 2 for classify, got {config.n_max}")
    table = _build_table(config, config.n_max + _CLASSIFY_MARGIN)
    occupancy = intervals.interval_columns(
        table, 1, config.n_max + 1, config.boundary_eps, config.n_max, config.delta_exp
    )
    # Interval N + 1 is classified only as the right neighbor of interval N.
    patterns = intervals.alternation_patterns(occupancy.verdict, occupancy.good)[: config.n_max]
    columns = {name: column[: config.n_max] for name, column in occupancy._asdict().items()}
    columns["verdict"] = np.array([v.label for v in intervals.IntervalVerdict])[columns["verdict"]]
    columns["pattern"] = np.array([p.label for p in intervals.PatternVerdict])[patterns]
    good = columns["good"]
    n_pass, n_fail, n_unclassified = np.bincount(patterns, minlength=3).tolist()
    n_good = int(np.count_nonzero(good))
    n_bad = good.size - n_good
    in_window = good[(config.n_max + 1) // 2 - 1 :]
    threshold = intervals.good_threshold(config.n_max, config.delta_exp)
    summary = {
        "n_good": n_good,
        "n_bad": n_bad,
        "n_pass": n_pass,
        "n_fail": n_fail,
        "n_boundary": np.count_nonzero(columns["verdict"] == "boundary"),
        "n_unclassified": n_unclassified,
        "bad_fraction": n_bad / good.size,
        "bad_fraction_window": int(np.count_nonzero(~in_window)) / in_window.size,
        "good_threshold": threshold,
        "predicted_bad_fraction": 2.0 * threshold / math.pi,
    }
    return Report("classify", config.config_items(), columns, summary)


def cmd_spacings(config: RunConfig) -> Report:
    table = _build_table(config, config.n_max)
    spacings = stats.classify_spacings(stats.merge_spectra(table), tie_tol=config.tie_tol)
    if spacings.degenerate.all():
        largest = f"the largest merged gap ({spacings.gaps.max():g})"
        raise ConfigError(f"--tie-tol must be below {largest}, got {config.tie_tol!r}")
    report = stats.spacing_frequencies(spacings)
    kind_labels = np.array([kind.label for kind in stats.SpacingKind])
    included = ~spacings.degenerate
    seen = np.cumsum(included)[:, None]
    one_hot = spacings.kinds[:, None] == np.arange(kind_labels.size)
    counts = np.cumsum(one_hot & included[:, None], axis=0)
    running = np.divide(counts, seen, out=np.zeros(counts.shape), where=seen > 0)
    columns = {
        "position": np.arange(spacings.gaps.size),
        "gap": spacings.gaps,
        "kind": kind_labels[spacings.kinds],
        "degenerate": spacings.degenerate,
        **{f"run_f_{kind.label}": running[:, i] for i, kind in enumerate(stats.SpacingKind)},
    }
    summary = {
        "f_positive": report.f_positive,
        "f_negative": report.f_negative,
        "f_mixed": report.f_mixed,
        "total": report.total,
        "n_degenerate": report.n_degenerate,
        # A tie is a degenerate gap: both keys count gaps below the tie tolerance.
        "n_ties": report.n_degenerate,
    }
    return Report("spacings", config.config_items(), columns, summary)


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
    columns = {
        "y": grid,
        "cdf": stats.arcsine_cdf(grid, params),
        "ecdf_plus": ecdfs[Parity.PLUS].evaluate(grid),
        "ecdf_minus": ecdfs[Parity.MINUS].evaluate(grid),
    }
    summary = {
        "ks_plus": stats.ks_distance(ecdfs[Parity.PLUS], lambda y: stats.arcsine_cdf(y, params)),
        "ks_minus": stats.ks_distance(ecdfs[Parity.MINUS], lambda y: stats.arcsine_cdf(y, params)),
        "n_plus": ecdfs[Parity.PLUS].n_samples,
        "n_minus": ecdfs[Parity.MINUS].n_samples,
        "support": support,
        "min_label": min_label,
        "degenerate": degenerate,
    }
    return Report("arcsine", config.config_items(), columns, summary)


def cmd_badset(config: RunConfig) -> Report:
    a = 4.0 * config.g / math.pi
    gamma = 0.25
    alpha, beta = FEJER_INTERVAL
    ladder = intervals.bad_set_ladder(BADSET_LADDER, config.delta_exp, config.g)
    fejers = [intervals.fejer_count(a, gamma, alpha, beta, n_cap) for n_cap in BADSET_LADDER]
    count, expected, discrepancy = (np.array(column) for column in zip(*fejers))
    disc_ratio = discrepancy / np.sqrt(ladder.n_cap)
    columns = {
        "n_cap": ladder.n_cap,
        "bad_count": ladder.count,
        "bad_predicted": ladder.predicted,
        "bad_ratio": ladder.ratio,
        "fejer_count": count,
        "fejer_expected": expected,
        "fejer_discrepancy": discrepancy,
        "disc_over_sqrt_n": disc_ratio,
    }
    positive = disc_ratio[disc_ratio > 0]
    summary = {
        "bad_count_slope": intervals.bad_count_slope(ladder),
        "fejer_a": a,
        "fejer_gamma": gamma,
        "fejer_alpha": alpha,
        "fejer_beta": beta,
        "disc_stability_ratio": positive.max() / positive.min() if positive.size else math.inf,
    }
    return Report("badset", config.config_items(), columns, summary)


# Each subcommand: the function that builds its report and its help text.
_COMMANDS = {
    "spectrum": (cmd_spectrum, "converged eigenvalue table for both parity classes"),
    "classify": (cmd_classify, "interval occupancy, good/bad flags, alternation pattern"),
    "spacings": (cmd_spacings, "merged-spectrum spacing types and frequencies"),
    "arcsine": (cmd_arcsine, "deviation ECDF against the closed-form arcsine CDF"),
    "badset": (cmd_badset, "bad-index counts and fractional-part discrepancy ladder"),
}


def run_command(command: str, config: RunConfig) -> str:
    """Run one subcommand and return the rendered report text."""
    config.validate()
    report = _COMMANDS[command][0](config)
    if config.fmt == "json":
        return render_json(report)
    return render_csv(report)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi",
        description="Spectral toolkit for the quantum Rabi model parity classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for f in fields(RunConfig):
            cmd.add_argument(
                f.metadata["flag"], dest=f.name, default=f.default, **f.metadata["argparse"]
            )
    return parser


# Built once: parsing leaves the parser unchanged.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        options = vars(_PARSER.parse_args(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    command = options.pop("command")
    config = RunConfig(**options)
    try:
        text = run_command(command, config)
    except ConfigError as exc:
        print(f"rabi: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"rabi: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        # The configuration was valid, so this is a broken numerical invariant.
        print(f"rabi: numerical failure: {exc}", file=sys.stderr)
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
