"""Independent eigenvalue oracles and report-parsing helpers for the tests.

The characteristic-polynomial oracle never touches Sturm counting: it
evaluates leading principal minors by the three-term determinant recurrence
and isolates roots by bisecting sign changes between the (strictly
interlacing) roots of the previous minor.
"""

from __future__ import annotations

import math

import numpy as np


def _minor_values(d: np.ndarray, a: np.ndarray, level: int, lam: np.ndarray) -> np.ndarray:
    """det(T_level - lam*I) for the leading level x level block, elementwise."""
    lam = np.asarray(lam, dtype=np.float64)
    prev = np.ones_like(lam)
    cur = d[0] - lam
    for j in range(2, level + 1):
        prev, cur = cur, (d[j - 1] - lam) * cur - a[j - 2] ** 2 * prev
    return cur if level >= 1 else prev


def charpoly_eigenvalues(diag, offdiag, tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending."""
    d = np.asarray(diag, dtype=np.float64)
    a = np.asarray(offdiag, dtype=np.float64)
    m = d.size
    radius = np.zeros_like(d)
    if a.size:
        radius[:-1] += np.abs(a)
        radius[1:] += np.abs(a)
    glo = float(np.min(d - radius)) - 1e-6
    ghi = float(np.max(d + radius)) + 1e-6
    roots = np.array([d[0]])
    for level in range(2, m + 1):
        lo = np.concatenate([[glo], roots])
        hi = np.concatenate([roots, [ghi]])
        flo = _minor_values(d, a, level, lo)
        for _ in range(120):
            if np.max(hi - lo) < tol:
                break
            mid = 0.5 * (lo + hi)
            fmid = _minor_values(d, a, level, mid)
            left = (np.sign(fmid) != np.sign(flo)) | (fmid == 0.0)
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            flo = np.where(left, flo, fmid)
        roots = 0.5 * (lo + hi)
    return roots


def dense_eigenvalues(diag, offdiag) -> np.ndarray:
    """LAPACK dense-solver oracle on the explicitly assembled matrix."""
    d = np.asarray(diag, dtype=np.float64)
    a = np.asarray(offdiag, dtype=np.float64)
    full = np.diag(d)
    if a.size:
        full += np.diag(a, 1) + np.diag(a, -1)
    return np.linalg.eigvalsh(full)


def random_tridiagonal(rng: np.random.Generator, max_dim: int = 12):
    """Random symmetric tridiagonal with off-diagonals bounded away from zero."""
    dim = int(rng.integers(1, max_dim + 1))
    d = rng.uniform(-2.0, 2.0, size=dim)
    a = rng.uniform(0.05, 2.0, size=max(dim - 1, 0)) * rng.choice([-1.0, 1.0], size=max(dim - 1, 0))
    return d, a


def parse_csv_report(text: str):
    """Split a rendered CSV report into (columns, rows, config, summary)."""
    lines = text.splitlines()
    columns = lines[0].split(",")
    rows = []
    config = {}
    summary = {}
    section = None
    for line in lines[1:]:
        if line == "# config":
            section = config
            continue
        if line == "# summary":
            section = summary
            continue
        if line.startswith("# "):
            key, value = line[2:].split(",", 1)
            section[key] = value
            continue
        rows.append(line.split(","))
    return columns, rows, config, summary


def csv_cell_value(cell: str):
    """Interpret a CSV cell the way the JSON emission types it."""
    if cell in ("true", "false"):
        return cell == "true"
    try:
        as_int = int(cell)
    except ValueError:
        pass
    else:
        return as_int
    try:
        return float(cell)
    except ValueError:
        return cell


def arcsine_quantile(q: float, support: float) -> float:
    """Inverse of the arcsine CDF on [-support, support]."""
    return support * math.sin(math.pi * (q - 0.5))


def classify_intervals(shifted_plus, shifted_minus, first, last, eps, n_cap, delta_exp, g):
    """Per-interval brute force of the occupancy definition in ``rabi.intervals``.

    For each n in [first, last] and each shifted eigenvalue x of either
    parity: |x - n| <= eps or |x - (n + 1)| <= eps makes x a boundary hit of
    (n, n + 1); otherwise n < x < n + 1 counts x as interior.  Returns one
    (n, count_plus, count_minus, boundary_hits, good, verdict label) tuple
    per interval.
    """
    threshold = float(n_cap) ** (-0.25 + delta_exp)
    out = []
    for n in range(first, last + 1):
        counts = {"plus": 0, "minus": 0}
        hits = 0
        for name, xs in (("plus", shifted_plus), ("minus", shifted_minus)):
            for x in xs:
                x = float(x)
                if abs(x - n) <= eps or abs(x - (n + 1)) <= eps:
                    hits += 1
                elif n < x < n + 1:
                    counts[name] += 1
        if hits:
            verdict = "boundary"
        elif (counts["minus"], counts["plus"]) == (2, 0):
            verdict = "minus_pair"
        elif (counts["minus"], counts["plus"]) == (0, 2):
            verdict = "plus_pair"
        else:
            verdict = "violation"
        good = abs(math.cos(4.0 * g * math.sqrt(n) - math.pi / 4.0)) > threshold
        out.append((n, counts["plus"], counts["minus"], hits, good, verdict))
    return out
