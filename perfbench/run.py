"""Benchmark of the rabi toolkit: end-to-end numbers and per-module spans.

Run from the repository root:

    python3 perfbench/run.py --workload cold_spectrum --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``cold_spectrum``,
``warm_reports`` and ``param_sweep``.  Each run starts worker processes that
import ``rabi`` from ``src/`` of this checkout and call ``rabi.cli.main(argv)``
in-process, one invocation at a time.  Each worker times its own set-up;
the timed phase, which repeats the workload's pass while another one fits
in ``--seconds`` (at least once), runs in the last worker, or is split
evenly over all of them where a set-up is long and a pass short.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the timed
phase once untraced and once with every public function of the seven rabi
modules wrapped in a span (``tracer.py``), and prints per-layer metrics per
pass; ``trace.overhead_s`` is the traced minus the untraced pass time.

This process checks every output: each cold solve against LAPACK
(``checks.py``; scipy stays out of the timed worker), every report against
statistics recomputed from the solve, byte-identical repeats, and on
``warm_reports`` a frozen cache with no solver calls.  A failed check fails
the invocation it belongs to.  Workers run with HOME inside the run
directory, so the default ``~/.cache/rabi`` is never read or written.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All files go under
``.perfbench_work/`` in the checkout; LAPACK references are kept there
between runs, everything else is deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Workers per untraced run, each timing its own set-up; the median is
# setup_s.  The cold set-ups only import and warm up at tiny N, so they are
# cheap to repeat.  A warm set-up solves N = 1000 (about 12 s), so every
# warm worker also runs an equal share of the timed phase: its short passes
# are then spread over the whole run, which averages over speed swings of a
# shared host that last seconds (swings that last minutes still show between
# runs).
WORKERS = {"cold_spectrum": 7, "warm_reports": 3, "param_sweep": 5}
TIMED_WORKERS = {"cold_spectrum": 1, "warm_reports": 3, "param_sweep": 1}
# Every run must end within 180 s; workers are killed past this point.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but kept out of the JSON: both read 0
# on some workload (no cold solves on warm_reports; no failures when all is
# well), and the JSON's attempted/failed already carry the error rate.
REPORT_ONLY = (("eigenvalues_per_s", "1/s"), ("error_rate", "ratio"))

_LAYER_TIMES = (
    "eigensolver.adaptive_spectrum",
    "eigensolver.lowest_eigenvalues",
    "eigensolver.label_offset",
    "eigensolver.spectrum_table",
    "model.build_truncated",
    "cache.load_records",
    "cache.store_records",
    "intervals.classify_range",
    "intervals.check_alternation_pattern",
    "intervals.bad_set_ladder",
    "intervals.fejer_count",
    "stats.merge_spectra",
    "stats.classify_spacings",
    "stats.spacing_frequencies",
    "stats.empirical_deviation_distribution",
    "stats.ks_distance",
    "asymptotics.deviations",
    "cli.main",
    "cli.run_command",
    "cli.render",
)
_LAYER_CALLS = (
    "eigensolver.adaptive_spectrum",
    "eigensolver.lowest_eigenvalues",
    "model.build_truncated",
    "cache.load_records",
    "cache.store_records",
    "intervals.check_alternation_pattern",
)
# Per-layer numbers are per pass of the traced phase, so they do not grow
# with --seconds or with the speed of the machine.
PER_LAYER = (
    *((f"{name}.calls", "calls/pass") for name in _LAYER_CALLS),
    *((f"{name}.self_s", "s/pass") for name in _LAYER_TIMES),
    ("eigensolver.rows_bisected", "rows/pass"),
    ("eigensolver.row_lanes", "row-lanes/pass"),
    ("eigensolver.us_per_row", "us/row"),
    ("eigensolver.truncation_levels", "levels/solve"),
    ("eigensolver.final_dim_per_label", "rows/label"),
    ("eigensolver.wall_share", "ratio"),
    ("eigensolver.ref_err_max", "abs"),
    ("eigensolver.lapack_ref_s", "s"),
    ("model.rows_built", "rows/pass"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "bytes/pass"),
    ("cache.bytes_written", "bytes/pass"),
    ("cli.bytes_out", "bytes/pass"),
    ("trace.overhead_s", "s/pass"),
)
# Counts that depend only on the inputs and the algorithm; they must repeat
# exactly from pass to pass and from run to run.
EXACT_COUNTS = (
    "eigensolver.rows_bisected",
    "eigensolver.row_lanes",
    "eigensolver.labels_solved",
    "eigensolver.final_dim_sum",
    "model.rows_built",
    "cache.bytes_read",
    "cache.bytes_written",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def provenance(seed: int) -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _spawn(run_dir: Path, deadline: float, worker_args: list) -> dict:
    run_dir.mkdir(parents=True)
    env = dict(
        os.environ,
        HOME=str(run_dir / "home"),
        XDG_CACHE_HOME=str(run_dir / "home" / ".cache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--run-dir", str(run_dir)]
    try:
        proc = subprocess.run(
            cmd + worker_args,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the run's {DEADLINE_S:.0f} s") from exc
    result_path = run_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["run_dir"] = run_dir
    return result


def _check_run(results: list, reference: checks.Reference, workload: str) -> dict:
    """Checks every solve and report of every worker; returns failures."""
    failed: dict = {}  # (worker, request id) -> reasons
    problems: list = []
    errors = []
    reference.plan(solve for result in results for solve in result["solves"])

    def fail(w, request_ids, reason):
        for rid in request_ids:
            failed.setdefault((w, rid), []).append(reason)

    for w, result in enumerate(results):
        requests = result["requests"]
        for request in requests:
            if request["problems"]:
                fail(w, [request["id"]], "; ".join(request["problems"]))
            argv = request["argv"]
            cache_dir = Path(argv[argv.index("--cache-dir") + 1])
            if result["run_dir"] not in cache_dir.parents:
                problems.append(f"request {request['id']} uses a cache outside its run")
        if (result["run_dir"] / "home" / ".cache" / "rabi").exists():
            problems.append("the default cache under HOME was written")
        values = {}
        for solve in result["solves"]:
            reasons, err = checks.check_solve(solve, reference)
            errors.append(err)
            if reasons:
                fail(w, [solve["request"], *solve["repeats"]], "; ".join(reasons))
            key = (solve["g"], solve["delta"], solve["max_label"])
            values.setdefault(key, {})[solve["parity"]] = np.asarray(solve["values"])
        solves = {k: (v["plus"], v["minus"]) for k, v in values.items() if len(v) == 2}
        by_id = {r["id"]: r for r in requests}
        texts = {}
        for path in sorted((result["run_dir"] / "out").glob("*.txt")):
            rid = int(path.stem)
            text = path.read_text(encoding="ascii")
            texts[by_id[rid]["slot"]] = text
            try:
                reasons = checks.check_report(text, by_id[rid]["argv"], solves)
            except (KeyError, ValueError, IndexError) as exc:
                reasons = [f"unreadable report: {type(exc).__name__}: {exc}"]
            if reasons:
                fail(w, [r["id"] for r in requests if r["ref"] == rid], "; ".join(reasons))
        result["texts"] = texts
        # A report asked for in both formats must carry the same content.
        stems = {slot.rsplit(".", 1)[0] for slot in texts if slot.endswith((".csv", ".json"))}
        for stem in sorted(stems):
            csv_text, json_text = texts.get(f"{stem}.csv"), texts.get(f"{stem}.json")
            if csv_text is None or json_text is None:
                problems.append(f"missing {stem} report")
                continue
            reasons = checks.csv_matches_json(csv_text, json_text)
            if reasons:
                rids = [r["id"] for r in requests if r["slot"] == f"{stem}.json"]
                fail(w, rids, "; ".join(reasons))
    final = results[-1]["texts"]
    for w, result in enumerate(results[:-1]):
        for slot, text in result["texts"].items():
            if final.get(slot) != text:
                problems.append(f"set-up worker {w} wrote a different {slot} report")
    return {
        "failed": failed,
        "problems": problems,
        "ref_err_max": max(errors, default=0.0),
        "lapack_ref_s": reference.seconds_used,
    }


def _percentile(values: list, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _pooled(results: list, phase: str) -> dict:
    """One timed phase's numbers, pooled over the workers that ran it."""
    timed = [r for r in results if phase in r]
    return {
        "pass_walls_s": [w for r in timed for w in r[phase]["pass_walls_s"]],
        "elapsed_s": sum(r[phase]["elapsed_s"] for r in timed),
        "requests": sum(r[phase]["requests"] for r in timed),
        "labels_solved": sum(r[phase]["labels_solved"] for r in timed),
        "latencies_ms": [
            q["latency_s"] * 1e3
            for r in timed
            for q in r["requests"]
            if q["phase"] == phase and q["latency_s"] is not None
        ],
        "peak_rss_kb": max(r.get("peak_rss_kb", 0) for r in timed),
        "workers": len(timed),
    }


def _end_to_end(results: list, phase: dict, failed: int, attempted: int) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": statistics.median(phase["pass_walls_s"]),
        "requests_per_s": phase["requests"] / phase["elapsed_s"],
        "request_p50_ms": _percentile(phase["latencies_ms"], 50),
        "request_p90_ms": _percentile(phase["latencies_ms"], 90),
        "peak_rss_mb": phase["peak_rss_kb"] / 1024.0,
        "eigenvalues_per_s": phase["labels_solved"] / phase["elapsed_s"],
        "error_rate": failed / attempted,
    }


def _per_layer(final: dict, checked: dict, problems: list, workload: str) -> dict:
    traced = final["traced"]
    passes = len(traced["pass_walls_s"])
    layers = traced["layers"]
    per_pass = traced["counts_per_pass"]
    counts = per_pass[-1]
    deltas = [
        {k: b.get(k, 0) - a.get(k, 0) for k in EXACT_COUNTS}
        for a, b in zip([{}] + per_pass[:-1], per_pass)
    ]
    if any(d != deltas[0] for d in deltas):
        problems.append("work counts differ between traced passes")

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / passes

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) / passes

    def count(name):
        return counts.get(name, 0) / passes

    metrics = {f"{name}.calls": calls(name) for name in _LAYER_CALLS}
    metrics.update({f"{name}.self_s": self_s(name) for name in _LAYER_TIMES})
    rows = count("eigensolver.rows_bisected")
    solves = calls("eigensolver.adaptive_spectrum")
    loads = count("cache.hits") + count("cache.misses")
    solver_s = sum(
        entry["self_s"]
        for name, entry in layers.items()
        if name.startswith(("eigensolver.", "model.")) and name != "eigensolver.spectrum_table"
    ) / passes
    traced_wall = statistics.median(traced["pass_walls_s"])
    metrics.update(
        {
            "eigensolver.rows_bisected": rows,
            "eigensolver.row_lanes": count("eigensolver.row_lanes"),
            "eigensolver.us_per_row": 1e6 * self_s("eigensolver.lowest_eigenvalues") / rows if rows else 0.0,
            "eigensolver.truncation_levels": calls("eigensolver.lowest_eigenvalues") / solves if solves else 0.0,
            "eigensolver.final_dim_per_label": (
                count("eigensolver.final_dim_sum") / count("eigensolver.labels_solved") if solves else 0.0
            ),
            "eigensolver.wall_share": solver_s / traced_wall,
            "eigensolver.ref_err_max": checked["ref_err_max"],
            "eigensolver.lapack_ref_s": checked["lapack_ref_s"],
            "model.rows_built": count("model.rows_built"),
            "cache.hit_ratio": count("cache.hits") / loads if loads else 0.0,
            "cache.bytes_read": count("cache.bytes_read"),
            "cache.bytes_written": count("cache.bytes_written"),
            "cli.bytes_out": count("cli.bytes_out"),
            "trace.overhead_s": traced_wall - statistics.median(final["untraced"]["pass_walls_s"]),
        }
    )
    if workload == "warm_reports":
        if metrics["eigensolver.adaptive_spectrum.calls"] != 0:
            problems.append("traced warm pass called the eigensolver")
        if metrics["cache.hit_ratio"] != 1.0:
            problems.append("traced warm pass missed the cache")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int, scale: str = "full", perturb_ref: float = 0.0) -> dict:
    """One benchmark run; returns the result and everything printed about it."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / "runs" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workers = 1 if trace else WORKERS[workload]
    timed = 1 if trace else TIMED_WORKERS[workload]
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / timed)]
    base += ["--scale", scale, "--trace", str(trace)]
    try:
        results = [
            _spawn(run_dir / f"worker{i}", deadline, base + (["--setup-only"] if i < workers - timed else []))
            for i in range(workers)
        ]
        reference = checks.Reference(WORK / "lapack", perturb=perturb_ref)
        checked = _check_run(results, reference, workload)
        attempted = sum(len(r["requests"]) for r in results)
        failed = len(checked["failed"])
        problems = checked["problems"]
        phase = _pooled(results, "traced" if trace else "untraced")
        if trace:
            metrics, units = _per_layer(results[-1], checked, problems, workload), dict(PER_LAYER)
        else:
            metrics = _end_to_end(results, phase, failed, attempted)
            units = dict(END_TO_END + REPORT_ONLY)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info = {
        "workload": workload,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "passes": len(phase["pass_walls_s"]),
        "timed_requests": phase["requests"],
        "timed_workers": phase["workers"],
        "workers": len(results),
        "problems": problems,
        "failures": [f"worker {w} request {rid}: {why}" for (w, rid), why in checked["failed"].items()],
    }
    json_units = units if trace else dict(END_TO_END)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in json_units.items()},
        "report": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "info": info,
    }


def _print_report(outcome: dict) -> None:
    info = outcome["info"]
    prov = info["provenance"]
    print(
        f"perfbench workload={info['workload']} seed={prov['seed']} seconds={info['seconds']}"
        f" trace={info['trace']} scale={info['scale']}"
    )
    print(
        f"provenance nproc={prov['nproc']} cpu={prov['cpu']!r} python={prov['python']}"
        f" numpy={prov['numpy']} scipy={prov['scipy']}"
    )
    print(
        f"timed phase: {info['passes']} passes, {info['timed_requests']} invocations"
        f" in {info['timed_workers']} workers; set-up timed in {info['workers']} workers"
    )
    for name, entry in outcome["report"].items():
        note = ""
        if name in ("request_p50_ms", "request_p90_ms"):
            note = f"  (over {info['timed_requests']} invocations)"
        elif name == "error_rate":
            note = f"  ({outcome['failed']} failed of {outcome['attempted']} attempted)"
        elif name == "eigensolver.wall_share":
            note = "  (eigensolver and model self time over traced wall_s)"
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}{note}")
    for line in info["problems"] + info["failures"][:20]:
        print(f"FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rabi benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_report(outcome)
    # Keep the full outcome, provenance included, beside the LAPACK cache.
    stamp = time.strftime("%Y%m%dT%H%M%S")
    saved = WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps(outcome, indent=1))
    print(json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
