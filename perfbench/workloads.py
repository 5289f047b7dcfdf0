"""Seeded request lists for the three workloads.

A workload is a set-up list of CLI invocations (run once, untimed), a
warm-up (its pass at tiny scale, untimed) and a pass: the list of
invocations the timed phase repeats.
Every invocation names its cache directory explicitly, so the default
``~/.cache/rabi`` is never used.

* ``cold_spectrum``: one ``spectrum --n-max 2000`` at (g, delta) = (0.7, 0.4)
  on an empty cache.  Nearly all time is the eigensolver.
* ``warm_reports``: set-up solves N = 1000 cold (``spectrum`` and
  ``classify``) and renders all ten (command, format) reports; a pass asks
  for the same ten reports again, in seeded order, all from the cache.  The
  eigensolver does no work; cache loads, table building, interval and
  spacing statistics and rendering do all of it.
* ``param_sweep``: ten seeded (g, delta, N) points, each running spectrum,
  spacings, arcsine, classify and badset, in csv and then json, on a fresh
  cache.  Small matrices, so fixed per-call costs weigh more; ``classify``
  needs N + 8 labels and solves again; large g and delta = 0 are covered.
  The json repeats read the cache; they make a pass 100 invocations, so
  request_p90_ms has ten samples above it and request_p50_ms falls among
  many cheap invocations instead of at the edge of the few.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("cold_spectrum", "warm_reports", "param_sweep")
COMMANDS = ("spectrum", "classify", "spacings", "arcsine", "badset")
FORMATS = ("csv", "json")
SWEEP_COMMANDS = ("spectrum", "spacings", "arcsine", "classify", "badset")

PAPER_G = 0.7
PAPER_DELTA = 0.4
# The CLI defaults, spelled out so the checks read every setting from argv.
TOLERANCES = (
    ("--tol", "1e-10"),
    ("--trunc-tol", "1e-08"),
    ("--boundary-eps", "1e-06"),
    ("--delta-exp", "0.05"),
    ("--tie-tol", "1e-09"),
)


@dataclass(frozen=True)
class Scale:
    cold_n: int
    warm_n: int
    sweep_points: int
    sweep_n: tuple
    sweep_g: tuple = (0.3, 2.0)


# "tiny" keeps every code path but runs in seconds; the self-test uses it.
SCALES = {
    "full": Scale(cold_n=2000, warm_n=1000, sweep_points=10, sweep_n=(64, 400)),
    "tiny": Scale(cold_n=48, warm_n=40, sweep_points=3, sweep_n=(24, 48)),
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation.  Invocations in the same ``slot`` ask for the same
    report, so their outputs must be byte-identical."""

    slot: str
    argv: tuple


def _argv(command, g, delta, n_max, cache_dir, fmt="csv"):
    return (
        command,
        "--g", repr(g),
        "--delta", repr(delta),
        "--n-max", str(n_max),
        "--format", fmt,
        "--cache-dir", str(cache_dir),
        *(item for pair in TOLERANCES for item in pair),
    )


def sweep_points(seed: int, scale: Scale) -> list:
    """Seeded (g, delta, N) points on a Latin grid of the (g, N) box.

    N and g each take the midpoints of ``sweep_points`` equal strata, paired
    in seeded order, and delta is uniform on [0, 1] with one point at 0.  The
    grid keeps the work of a pass nearly the same for every seed (the rows
    bisected are exactly the same) while each seed visits new points.
    """
    rng = random.Random(seed)
    k = scale.sweep_points

    def grid(lo, hi):
        values = [lo + (i + 0.5) * (hi - lo) / k for i in range(k)]
        rng.shuffle(values)
        return values

    ns = [round(v) for v in grid(*scale.sweep_n)]
    gs = [round(v, 3) for v in grid(*scale.sweep_g)]
    deltas = [round(rng.random(), 3) for _ in range(k)]
    deltas[rng.randrange(k)] = 0.0
    return list(zip(gs, deltas, ns))


def setup_requests(workload: str, scale: Scale, cache_root) -> list:
    if workload != "warm_reports":
        return []
    cache_dir = cache_root / "warm"
    n = scale.warm_n
    # spectrum and classify first: they fill the cache cold.
    return [
        Request(f"{cmd}.{fmt}", _argv(cmd, PAPER_G, PAPER_DELTA, n, cache_dir, fmt))
        for cmd in COMMANDS
        for fmt in FORMATS
    ]


def warmup_requests(workload: str, seed: int, cache_root) -> list:
    """The workload's pass at tiny scale and one sweep point, on its own
    cache, run before timing so that first-call costs (lazy imports,
    allocator growth) do not land on the timed requests.  ``warm_reports``
    needs none: its set-up already renders every report."""
    if workload == "warm_reports":
        return []
    tiny = replace(SCALES["tiny"], sweep_points=1)
    return [
        Request(f"warmup.{r.slot}", r.argv)
        for r in pass_requests(workload, seed, tiny, cache_root / "warmup", 0)
    ]


def pass_requests(workload: str, seed: int, scale: Scale, cache_root, index: int) -> list:
    """Requests of pass ``index``; cold workloads get a fresh cache per pass."""
    if workload == "cold_spectrum":
        cache_dir = cache_root / f"pass{index}"
        return [
            Request(
                "spectrum",
                _argv("spectrum", PAPER_G, PAPER_DELTA, scale.cold_n, cache_dir),
            )
        ]
    if workload == "warm_reports":
        cache_dir = cache_root / "warm"
        pairs = [(cmd, fmt) for cmd in COMMANDS for fmt in FORMATS]
        random.Random(f"{seed}:{index}").shuffle(pairs)
        return [
            Request(f"{cmd}.{fmt}", _argv(cmd, PAPER_G, PAPER_DELTA, scale.warm_n, cache_dir, fmt))
            for cmd, fmt in pairs
        ]
    if workload == "param_sweep":
        cache_dir = cache_root / f"pass{index}"
        return [
            Request(f"p{i}.{cmd}.{fmt}", _argv(cmd, g, delta, n, cache_dir, fmt))
            for i, (g, delta, n) in enumerate(sweep_points(seed, scale))
            for cmd in SWEEP_COMMANDS
            for fmt in FORMATS
        ]
    raise ValueError(f"unknown workload {workload!r}")
