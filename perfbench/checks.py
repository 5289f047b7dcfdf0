"""Correctness checks the parent runs on a worker's solves and reports.

Each check returns a list of problems (empty when the output is right).  The
model and every report statistic are recomputed here from the definitions
in the package README, with numpy only, so a check never trusts the code it
checks.  The eigenvalues themselves are checked against LAPACK.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

# Labels beyond N that the reference solves, so every label offset it tries
# stays inside the reference spectrum.
_REF_EXTRA = 8
BADSET_LADDER = (2**10, 2**12, 2**14, 2**16)


def jacobi(parity: str, g: float, delta: float, dim: int):
    """Diagonal d(k) = k +- (-1)^k delta and off-diagonal a(k) = g sqrt(k)."""
    sign = 1.0 if parity == "plus" else -1.0
    k = np.arange(dim, dtype=np.float64)
    diag = k + sign * delta * np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    return diag, g * np.sqrt(np.arange(1, dim, dtype=np.float64))


class Reference:
    """LAPACK (dstebz, select by index) eigenvalues, cached across runs.

    The reference truncation is at least twice the solver's final
    dimension.  ``plan`` sizes one reference per matrix to cover every solve
    of it, so the spectrum solve at N and the classify solve at N + 8 share
    one LAPACK call.  Results are keyed by the matrix and the scipy version
    and stored under ``cache_dir`` with the time the solve took, so repeated
    runs of one workload pay for each reference once.
    """

    def __init__(self, cache_dir: Path, perturb: float = 0.0) -> None:
        import scipy
        from scipy.linalg import eigvalsh_tridiagonal

        self.cache_dir = cache_dir
        self.perturb = perturb
        self.version = scipy.__version__
        self._solve = eigvalsh_tridiagonal
        self._sizes: dict = {}  # (parity, g, delta) -> (dim, count)
        self._seconds: dict = {}  # LAPACK time of each reference used

    def plan(self, solves) -> None:
        """Size each matrix's reference for the largest solve of it."""
        for solve in solves:
            matrix = (solve["parity"], solve["g"], solve["delta"])
            dim, count = self._sizes.get(matrix, (0, 0))
            self._sizes[matrix] = (
                max(dim, 2 * solve["dim"]),
                max(count, solve["max_label"] + _REF_EXTRA),
            )

    @property
    def seconds_used(self) -> float:
        """LAPACK time of the distinct references used so far."""
        return sum(self._seconds.values())

    def lowest(self, parity: str, g: float, delta: float, dim: int, count: int):
        """The ``count`` lowest eigenvalues at truncation ``dim`` or larger."""
        planned = self._sizes.get((parity, g, delta), (0, 0))
        dim, count = max(dim, planned[0]), max(count, planned[1])
        key = json.dumps([parity, repr(g), repr(delta), dim, count, self.version])
        path = self.cache_dir / (hashlib.sha256(key.encode()).hexdigest() + ".npz")
        if path.exists():
            with np.load(path) as stored:
                values, seconds = stored["values"], float(stored["seconds"])
        else:
            diag, offdiag = jacobi(parity, g, delta, dim)
            start = time.perf_counter()
            values = self._solve(
                diag, offdiag, select="i", select_range=(0, count - 1), lapack_driver="stebz"
            )
            seconds = time.perf_counter() - start
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp.npz")
            np.savez(tmp, values=values, seconds=seconds)
            tmp.replace(path)
        self._seconds[key] = seconds
        return values + self.perturb


def reference_labels(ref: np.ndarray, g: float, n_max: int) -> int:
    """Index of label 1 in ``ref``: the shift that best fits E_n ~ n - g^2
    over the upper half of the labels (the package's labeling convention)."""
    n = np.arange((n_max + 1) // 2, n_max + 1)
    fits = [float(np.median(np.abs(ref[n - 1 + s] - (n - g**2)))) for s in range(_REF_EXTRA)]
    return int(np.argmin(fits))


def check_solve(solve: dict, reference: Reference) -> tuple:
    """(problems, max error) for one captured cold solve."""
    n_max = solve["max_label"]
    values = np.asarray(solve["values"], dtype=np.float64)
    if solve["labels"] != list(range(1, n_max + 1)):
        return [f"{solve['parity']} solve does not cover labels 1..{n_max}"], math.inf
    ref = reference.lowest(
        solve["parity"], solve["g"], solve["delta"], 2 * solve["dim"], n_max + _REF_EXTRA
    )
    first = reference_labels(ref, solve["g"], n_max)
    err = float(np.max(np.abs(values - ref[first : first + n_max])))
    allowed = (solve["eigen_tol"] or 0.0) + (solve["trunc_tol"] or 0.0)
    problems = []
    if not err <= allowed:
        problems.append(
            f"{solve['parity']} eigenvalues off LAPACK by {err:.3g} > tol + trunc-tol {allowed:.3g}"
            f" (g={solve['g']}, delta={solve['delta']}, N={n_max})"
        )
    return problems, err


# -- report parsing -------------------------------------------------------


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    meta = [line[2:] for line in lines if line.startswith("# ") and "," in line]
    rows = list(csv.reader(body))
    pairs = dict(item.split(",", 1) for item in meta)
    return {"columns": rows[0], "rows": rows[1:], "meta": pairs}


def _typed(cell: str):
    for cast in (int, float):
        try:
            return cast(cell)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(cell, cell)


def csv_matches_json(csv_text: str, json_text: str) -> list:
    """CSV and JSON renderings must carry the same columns, rows and summary."""
    c = parse_csv(csv_text)
    j = json.loads(json_text)
    problems = []
    if c["columns"] != j["columns"]:
        problems.append("csv and json columns differ")
    if [[_typed(v) for v in row] for row in c["rows"]] != j["rows"]:
        problems.append("csv and json rows differ")
    for key, value in j["summary"].items():
        if _typed(c["meta"].get(key, "")) != value:
            problems.append(f"csv and json summary {key} differ")
    return problems


def _column(report: dict, name: str, cast=float) -> np.ndarray:
    i = report["columns"].index(name)
    return np.array([cast(row[i]) for row in report["rows"]])


def _flag(cell: str) -> bool:
    return cell == "true"


# -- per-command content checks --------------------------------------------


def check_spectrum(report, plus, minus, g, trunc_tol) -> list:
    n_max = plus.size
    if len(report["rows"]) != 2 * n_max:
        return [f"spectrum has {len(report['rows'])} rows, expected {2 * n_max}"]
    parity = _column(report, "parity", str)
    values = _column(report, "eigenvalue")
    problems = []
    if not (np.all(parity[0::2] == "plus") and np.all(parity[1::2] == "minus")):
        problems.append("spectrum rows are not plus/minus interleaved")
    if not np.array_equal(_column(report, "n", int), np.repeat(np.arange(1, n_max + 1), 2)):
        problems.append("spectrum labels are not 1..N")
    if not (np.array_equal(values[0::2], plus) and np.array_equal(values[1::2], minus)):
        problems.append("spectrum values differ from the checked solve")
    if not np.allclose(_column(report, "shifted"), values + g**2, rtol=0, atol=1e-12 * n_max):
        problems.append("shifted column is not eigenvalue + g^2")
    if not np.all(_column(report, "error_estimate") < trunc_tol):
        problems.append("an error estimate exceeds trunc-tol")
    return problems


def _classify_expected(plus, minus, g, n_max, eps, delta_exp):
    """Per n in 1..N+1: interior counts, boundary hits and verdicts."""
    ns = np.arange(1, n_max + 2)
    counts = {}
    hits = np.zeros(ns.size, dtype=np.int64)
    for name, values in (("plus", plus), ("minus", minus)):
        x = values + g**2
        near = np.rint(x)
        on_edge = np.abs(x - near) <= eps
        edge_n = near[on_edge].astype(np.int64)
        # a value within eps of integer m hits intervals m - 1 and m
        for shift in (1, 0):
            n_hit = edge_n - shift
            keep = (n_hit >= 1) & (n_hit <= n_max + 1)
            np.add.at(hits, n_hit[keep] - 1, 1)
        inner = np.floor(x[~on_edge]).astype(np.int64)
        keep = (inner >= 1) & (inner <= n_max + 1)
        counts[name] = np.bincount(inner[keep] - 1, minlength=ns.size)[: ns.size]
    verdict = np.full(ns.size, "violation", dtype=object)
    verdict[(counts["minus"] == 2) & (counts["plus"] == 0)] = "minus_pair"
    verdict[(counts["minus"] == 0) & (counts["plus"] == 2)] = "plus_pair"
    verdict[hits > 0] = "boundary"
    threshold = float(n_max) ** (-0.25 + delta_exp)
    good = np.abs(np.cos(4.0 * g * np.sqrt(ns) - 0.25 * np.pi)) > threshold
    pattern = np.full(ns.size, "unclassified", dtype=object)
    for i in range(1, n_max):
        window = verdict[i - 1 : i + 2]
        if "boundary" in window or not good[i]:
            continue
        other = {"minus_pair": "plus_pair", "plus_pair": "minus_pair"}.get(verdict[i])
        ok = other is not None and window[0] == other and window[2] == other
        pattern[i] = "pass" if ok else "fail"
    return counts, hits, verdict, good, pattern


def check_classify(report, plus, minus, g, n_max, eps, delta_exp) -> list:
    if len(report["rows"]) != n_max:
        return [f"classify has {len(report['rows'])} rows, expected {n_max}"]
    counts, hits, verdict, good, pattern = _classify_expected(
        plus, minus, g, n_max, eps, delta_exp
    )
    got = {
        "count_plus": (_column(report, "count_plus", int), counts["plus"][:n_max]),
        "count_minus": (_column(report, "count_minus", int), counts["minus"][:n_max]),
        "boundary_hits": (_column(report, "boundary_hits", int), hits[:n_max]),
        "good": (_column(report, "good", _flag), good[:n_max]),
        "verdict": (_column(report, "verdict", str), verdict[:n_max]),
        "pattern": (_column(report, "pattern", str), pattern[:n_max]),
    }
    problems = [f"classify column {name} is wrong" for name, (a, b) in got.items() if list(a) != list(b)]
    summary = report["meta"]
    if int(summary["n_pass"]) != int(np.sum(pattern[:n_max] == "pass")):
        problems.append("classify summary n_pass is wrong")
    if int(summary["n_good"]) != int(np.sum(good[:n_max])):
        problems.append("classify summary n_good is wrong")
    return problems


def check_spacings(report, plus, minus, tie_tol) -> list:
    values = np.concatenate([plus, minus])
    signs = np.concatenate([np.ones(plus.size), -np.ones(minus.size)])
    order = np.lexsort((signs, values))
    values, signs = values[order], signs[order]
    gaps = np.diff(values)
    kind = np.where(
        (signs[:-1] > 0) & (signs[1:] > 0),
        "positive",
        np.where((signs[:-1] < 0) & (signs[1:] < 0), "negative", "mixed"),
    )
    if len(report["rows"]) != gaps.size:
        return [f"spacings has {len(report['rows'])} rows, expected {gaps.size}"]
    problems = []
    if not np.array_equal(_column(report, "gap"), gaps):
        problems.append("spacing gaps are wrong")
    if list(_column(report, "kind", str)) != list(kind):
        problems.append("spacing kinds are wrong")
    included = kind[gaps >= tie_tol]
    for name in ("positive", "negative", "mixed"):
        expected = float(np.mean(included == name))
        if abs(float(report["meta"][f"f_{name}"]) - expected) > 1e-12:
            problems.append(f"spacing frequency f_{name} is wrong")
    return problems


def _arcsine_cdf(y, support):
    if support == 0.0:
        return np.where(y < 0.0, 0.0, 1.0)
    return 0.5 + np.arcsin(np.clip(y / support, -1.0, 1.0)) / np.pi


def check_arcsine(report, plus, minus, g, delta) -> list:
    support = delta / math.sqrt(2.0 * math.pi * g)
    min_label = int(report["meta"]["min_label"])
    problems = []
    y = _column(report, "y")
    if not np.allclose(_column(report, "cdf"), _arcsine_cdf(y, support), rtol=0, atol=1e-12):
        problems.append("arcsine cdf column is wrong")
    for name, values in (("plus", plus), ("minus", minus)):
        n = np.arange(1, values.size + 1, dtype=np.float64)
        dev = np.sort((n**0.25 * (values - (n - g**2)))[n >= min_label])
        ref = _arcsine_cdf(dev, support)
        after = np.searchsorted(dev, dev, side="right") / dev.size
        before = np.searchsorted(dev, dev, side="left") / dev.size
        ks = float(max(np.max(np.abs(ref - after)), np.max(np.abs(ref - before))))
        if abs(float(report["meta"][f"ks_{name}"]) - ks) > 1e-9:
            problems.append(f"arcsine ks_{name} is wrong")
        ecdf = np.searchsorted(dev, y, side="right") / dev.size
        if not np.allclose(_column(report, f"ecdf_{name}"), ecdf, rtol=0, atol=1e-12):
            problems.append(f"arcsine ecdf_{name} column is wrong")
    return problems


def check_badset(report, g, delta_exp) -> list:
    if list(_column(report, "n_cap", int)) != list(BADSET_LADDER):
        return ["badset ladder rows are wrong"]
    problems = []
    a = 4.0 * g / math.pi
    for row, n_cap in zip(report["rows"], BADSET_LADDER):
        cells = dict(zip(report["columns"], row))
        ns = np.arange((n_cap + 1) // 2, n_cap + 1, dtype=np.float64)
        threshold = float(n_cap) ** (-0.25 + delta_exp)
        bad = int(np.sum(np.abs(np.cos(4.0 * g * np.sqrt(ns) - 0.25 * np.pi)) <= threshold))
        x = a * np.sqrt(ns) + 0.25
        frac = x - np.floor(x)
        fejer = int(np.sum((frac >= 0.0) & (frac <= 0.5)))
        if int(cells["bad_count"]) != bad:
            problems.append(f"badset bad_count at N={n_cap} is wrong")
        if int(cells["fejer_count"]) != fejer:
            problems.append(f"badset fejer_count at N={n_cap} is wrong")
    return problems


def check_report(text: str, argv: list, solves: dict) -> list:
    """Content check of one CSV or JSON report against recomputed values.

    ``argv`` must spell out every numeric flag.  ``solves`` maps
    (g, delta, max_label) to the (plus, minus) values of a solve already
    checked against LAPACK.
    """
    flags = dict(zip(argv[1::2], argv[2::2]))
    command = argv[0]
    g, delta, n_max = float(flags["--g"]), float(flags["--delta"]), int(flags["--n-max"])
    delta_exp = float(flags["--delta-exp"])
    if flags["--format"] == "json":
        payload = json.loads(text)
        report = {
            "columns": payload["columns"],
            "rows": [[_render(v) for v in row] for row in payload["rows"]],
            "meta": {k: _render(v) for k, v in payload["summary"].items()},
        }
    else:
        report = parse_csv(text)
    if command == "badset":
        return check_badset(report, g, delta_exp)
    need = n_max + 8 if command == "classify" else n_max
    if (g, delta, need) not in solves:
        return [f"no checked solve for {command} at g={g}, delta={delta}, N={need}"]
    plus, minus = solves[(g, delta, need)]
    if command == "spectrum":
        return check_spectrum(report, plus, minus, g, float(flags["--trunc-tol"]))
    if command == "classify":
        eps = float(flags["--boundary-eps"])
        return check_classify(report, plus, minus, g, n_max, eps, delta_exp)
    if command == "spacings":
        return check_spacings(report, plus, minus, float(flags["--tie-tol"]))
    if command == "arcsine":
        return check_arcsine(report, plus, minus, g, delta)
    return [f"unknown command {command}"]


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
