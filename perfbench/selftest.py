"""Self-test of the benchmark at tiny N (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that:
* every metric BENCHMARK.json names appears with its unit, in the JSON and
  in the printed report, and the report also carries eigenvalues_per_s and
  error_rate;
* every workload runs with no failed invocation, traced and untraced;
* the machine-independent counts repeat exactly between two traced runs;
* a deliberately perturbed LAPACK reference fails the invocations whose
  solves it checks, and shows in error_rate;
* the benchmark exits nonzero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

``--scale full`` runs the count-repeat check at the real workload sizes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run
import workloads

EXACT = (
    "eigensolver.adaptive_spectrum.calls",
    "eigensolver.lowest_eigenvalues.calls",
    "model.build_truncated.calls",
    "cache.load_records.calls",
    "cache.store_records.calls",
    "intervals.check_alternation_pattern.calls",
    "eigensolver.rows_bisected",
    "eigensolver.row_lanes",
    "eigensolver.truncation_levels",
    "eigensolver.final_dim_per_label",
    "model.rows_built",
    "cache.hit_ratio",
    "cache.bytes_read",
    "cache.bytes_written",
    "cli.bytes_out",
)


class SelfTest:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        self.failures += not ok


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="tiny")
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    test = SelfTest()

    names = [w["name"] for w in spec["workloads"]]
    test.expect(names == list(workloads.WORKLOADS), "BENCHMARK.json lists the three workloads")
    test.expect(all(w["why"].strip() for w in spec["workloads"]), "each workload records why it was chosen")
    end_to_end, per_layer = _units(spec["end_to_end"]), _units(spec["per_layer"])
    test.expect(end_to_end == dict(run.END_TO_END), "end_to_end metrics match the benchmark's")
    test.expect(per_layer == dict(run.PER_LAYER), "per_layer metrics match the benchmark's")

    for workload in workloads.WORKLOADS:
        plain = run.run(workload, 1, 1.0, 0, scale="tiny")
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        test.expect(got == end_to_end, f"{workload}: JSON has every end-to-end metric with its unit")
        reported = {k: v["unit"] for k, v in plain["report"].items()}
        test.expect(
            reported == dict(run.END_TO_END + run.REPORT_ONLY),
            f"{workload}: report prints all eight end-to-end metrics",
        )
        test.expect(
            plain["correct"] and plain["failed"] == 0 and plain["report"]["error_rate"]["value"] == 0,
            f"{workload}: untraced run correct, error_rate 0 ({plain['info']['failures'][:3]})",
        )
        traced = [run.run(workload, 1, 1.0, 1, scale=args.scale) for _ in range(2)]
        got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        test.expect(got == per_layer, f"{workload}: traced JSON has every per-layer metric with its unit")
        test.expect(all(t["correct"] for t in traced), f"{workload}: traced runs correct")
        first, second = ({k: t["metrics"][k]["value"] for k in EXACT} for t in traced)
        diff = {k: (first[k], second[k]) for k in EXACT if first[k] != second[k]}
        test.expect(not diff, f"{workload}: work counts repeat exactly between traced runs {diff}")
        if workload == "warm_reports":
            m = traced[0]["metrics"]
            test.expect(
                m["eigensolver.adaptive_spectrum.calls"]["value"] == 0
                and m["cache.hit_ratio"]["value"] == 1,
                "warm_reports: no solver calls and every cache load hits",
            )

    bad = run.run("param_sweep", 1, 1.0, 0, scale="tiny", perturb_ref=1e-6)
    test.expect(
        not bad["correct"] and bad["failed"] > 0 and bad["report"]["error_rate"]["value"] > 0,
        f"perturbed reference counted: {bad['failed']} of {bad['attempted']} failed",
    )

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [*spec["command"], "--workload", "cold_spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    test.expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        f"without the program the benchmark exits {proc.returncode} and prints no result",
    )
    print(f"{test.failures} failed")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
