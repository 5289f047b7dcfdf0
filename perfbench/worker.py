"""Benchmark worker: imports rabi from the checkout, sets up one workload and
runs its timed phase through ``rabi.cli.main(argv)`` in this one process.

One closed-loop client, no threads.  The worker never imports scipy, so its
peak RSS is the program's.  It checks what is cheap to check while running
(exit codes, byte-identical repeats, a frozen warm cache, no solver calls on
the warm path) and writes everything else the parent checks to
``<run-dir>/result.json`` and ``<run-dir>/out/``.

Run by ``run.py``; not a user entry point.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _import_rabi():
    import rabi.cli

    src = (ROOT / "src").resolve()
    found = Path(rabi.cli.__file__).resolve()
    if src not in found.parents:
        raise SystemExit(f"perfbench: rabi imported from {found}, not from {src}")
    return rabi.cli


class Client:
    """Closed-loop client: one invocation at a time, each checked on return."""

    def __init__(self, cli, workload: str, seed: int, scale, run_dir: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.cache_root = run_dir / "cache"
        self.requests: list = []
        self.solves: list = []
        self._solve_index: dict = {}
        self._reference: dict = {}
        self._passes = 0
        self._frozen = None
        self._inner = None
        self.tracer = None

    # -- solve capture: every cold solve the CLI asks for, with its records
    def capture_on(self) -> None:
        self._inner = inner = self.cli.adaptive_spectrum
        client = self

        def capture(*args, **kwargs):
            records = inner(*args, **kwargs)
            client._record_solve(args, kwargs, records)
            return records

        self.cli.adaptive_spectrum = capture

    def capture_off(self) -> None:
        self.cli.adaptive_spectrum = self._inner

    def _record_solve(self, args, kwargs, records) -> None:
        parity, params, max_label = args[:3]
        request = self.requests[-1]
        request["labels_solved"] += len(records)
        trunc_tol, eigen_tol = kwargs.get("tol"), kwargs.get("eigen_tol")
        key = (parity.label, params.g, params.delta, max_label, trunc_tol, eigen_tol)
        values = [r.value for r in records]
        seen = self._solve_index.get(key)
        if seen is None:
            self._solve_index[key] = len(self.solves)
            self.solves.append(
                {
                    "request": request["id"],
                    "parity": parity.label,
                    "g": params.g,
                    "delta": params.delta,
                    "max_label": max_label,
                    "labels": [r.label for r in records],
                    "trunc_tol": trunc_tol,
                    "eigen_tol": eigen_tol,
                    "dim": max(r.truncation_dim for r in records),
                    "values": values,
                    "repeats": [],
                }
            )
        else:
            solve = self.solves[seen]
            solve["repeats"].append(request["id"])
            if values != solve["values"]:
                request["problems"].append("solve differs from an identical earlier solve")

    # -- invocations
    def _cache_listing(self):
        warm = self.cache_root / "warm"
        return sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(warm))

    def invoke(self, request, phase: str, pass_index: int) -> None:
        entry = {
            "id": len(self.requests),
            "phase": phase,
            "pass": pass_index,
            "slot": request.slot,
            "argv": list(request.argv),
            "rc": None,
            "latency_s": None,
            "labels_solved": 0,
            "ref": None,
            "problems": [],
        }
        self.requests.append(entry)
        if self.tracer is not None:
            self.tracer.request = entry["id"]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                rc = self.cli.main(list(request.argv))
                entry["latency_s"] = time.perf_counter() - start
        except Exception as exc:  # a crash is a failed operation, not a dead run
            entry["problems"].append(f"raised {type(exc).__name__}: {exc}")
            return
        entry["rc"] = rc
        if rc != 0:
            entry["problems"].append(f"exit code {rc}: {err.getvalue().strip()[:200]}")
            return
        text = out.getvalue()
        ref = self._reference.setdefault(request.slot, (entry["id"], text))
        entry["ref"] = ref[0]
        if ref[1] != text:
            entry["problems"].append(f"output differs from request {ref[0]} ({request.slot})")
        if phase != "setup" and self.workload == "warm_reports":
            if entry["labels_solved"]:
                entry["problems"].append("eigensolver ran on the warm path")
            listing = self._cache_listing()
            if listing != self._frozen:
                entry["problems"].append("cache directory changed on the warm path")
                self._frozen = listing

    def setup(self) -> None:
        for request in workloads.setup_requests(self.workload, self.scale, self.cache_root):
            self.invoke(request, "setup", -1)
        for request in workloads.warmup_requests(self.workload, self.seed, self.cache_root):
            self.invoke(request, "setup", -1)
        if self.workload == "warm_reports":
            self._frozen = self._cache_listing()

    def timed_phase(self, phase: str, seconds: float, counts_per_pass=None) -> dict:
        walls = []
        first = len(self.requests)
        start = time.perf_counter()
        while True:
            batch = workloads.pass_requests(
                self.workload, self.seed, self.scale, self.cache_root, self._passes
            )
            t = time.perf_counter()
            for request in batch:
                self.invoke(request, phase, self._passes)
            walls.append(time.perf_counter() - t)
            self._passes += 1
            if counts_per_pass is not None:
                counts_per_pass.append(dict(self.tracer.counts))
            # Stop unless a further pass of median length still fits.
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        elapsed = time.perf_counter() - start
        done = self.requests[first:]
        return {
            "elapsed_s": elapsed,
            "pass_walls_s": walls,
            "requests": len(done),
            "labels_solved": sum(r["labels_solved"] for r in done),
        }

    def save_outputs(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for request_id, text in self._reference.values():
            (out_dir / f"{request_id}.txt").write_text(text, encoding="ascii")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = _import_rabi()
    client = Client(cli, args.workload, args.seed, workloads.SCALES[args.scale], args.run_dir)
    client.capture_on()
    client.setup()
    result = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        result["untraced"] = client.timed_phase("untraced", args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            # The tracer wraps the solver itself; capture goes back on top.
            client.capture_off()
            client.tracer = tracing.Tracer()
            tracing.install(client.tracer)
            client.capture_on()
            counts_per_pass: list = []
            result["traced"] = client.timed_phase("traced", args.seconds, counts_per_pass)
            result["traced"]["layers"] = client.tracer.layer_totals()
            result["traced"]["counts_per_pass"] = counts_per_pass
    result["requests"] = client.requests
    result["solves"] = client.solves
    client.save_outputs(args.run_dir / "out")
    (args.run_dir / "result.json").write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
