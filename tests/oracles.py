"""Independent eigenvalue oracles, report-parsing helpers and solver spies
for the tests.

The characteristic-polynomial oracle never touches Sturm counting: it
evaluates leading principal minors by the three-term determinant recurrence
and isolates roots by bisecting sign changes between the (strictly
interlacing) roots of the previous minor.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from rabi import eigensolver


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


def mpmath_eigenvalues(diag, offdiag, dps: int = 30) -> list:
    """All eigenvalues of a symmetric tridiagonal matrix, as mpmath numbers
    computed at ``dps`` digits from its float entries, sorted ascending."""
    with mpmath.workdps(dps):
        full = mpmath.diag([mpmath.mpf(float(d)) for d in diag])
        for i, a in enumerate(offdiag):
            full[i, i + 1] = full[i + 1, i] = mpmath.mpf(float(a))
        return sorted(mpmath.eigsy(full, eigvals_only=True))


def random_tridiagonal(rng: np.random.Generator, max_dim: int = 12):
    """Random symmetric tridiagonal with off-diagonals bounded away from zero."""
    dim = int(rng.integers(1, max_dim + 1))
    d = rng.uniform(-2.0, 2.0, size=dim)
    a = rng.uniform(0.05, 2.0, size=max(dim - 1, 0)) * rng.choice([-1.0, 1.0], size=max(dim - 1, 0))
    return d, a


def window_counts_reference(windows, lams, g_sq, pivmin, theta=0.0, phi=None, rows=None):
    """Counts and Newton sums of ``eigensolver._window_counts``, one lane and
    one row at a time in Python floats: the same operations in the same
    order, and the same guard, so the two agree bit for bit."""
    start, length, sigma = windows
    theta = np.broadcast_to(np.asarray(theta, dtype=np.float64), np.shape(lams))
    counts = np.zeros(len(lams), dtype=np.int64)
    sums = np.zeros(len(lams))
    for j, lam in enumerate(np.asarray(lams).tolist()):
        size = int(length[j])
        if rows is None:
            diag = [float(i) for i in range(size)]
            couple = [g_sq * x for x in diag]
        else:
            diag, couple = (np.asarray(column)[:size].tolist() for column in rows)
        shifted = float(start[j]) - lam
        even, odd = shifted + float(sigma[j]), shifted - float(sigma[j])
        coupling = g_sq * float(start[j])
        ratio, count, total = -1.0, 0, 0.0
        for i in range(size):
            if i:
                quot = (coupling + couple[i]) / q
                ratio = ratio * quot - 1.0
                q = ((odd if i % 2 else even) + diag[i]) - quot
            else:
                q = even + diag[0] + float(theta[j])
            if phi is not None and i == size - 1:
                q = q - float(phi[j])
            if q < pivmin:
                count += 1
                q = min(q, -pivmin)
            ratio = ratio / q
            total = total + ratio
        counts[j], sums[j] = count, total
    return counts, sums


# A fit of labels to the n - g**2 asymptotics needs a tail in that regime:
# at g = 5 labels ~15..30 still stray up to 1 from n - g**2, so a tail of
# labels 16..32 can pick the wrong offset; one of 24..48 does not.
MIN_TAIL = 48


def label_offset(values, params, position: int = 1) -> int:
    """Integer shift s aligning sorted eigenvalues with the n - g**2 asymptotics.

    ``values[i]`` is the eigenvalue at 1-based sorted position
    k = position + i, and its asymptotic label is n = k + s.  s minimizes the
    median of |value_k - (k + s - g**2)| over the top half of the list,
    trimmed to an even count so that both parities of k weigh equally (the
    diagonal alternates by (-1)**k delta); values below that half are never
    read.  Raises ValueError for fewer than MIN_TAIL values, when float64
    cannot resolve unit spacing at the tail (its spacing is 1/4 or more),
    when the best median is 1/2 or more, or when the runner-up comes within
    0.25 of it.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < MIN_TAIL:
        raise ValueError(f"need at least {MIN_TAIL} eigenvalues to fit labels")
    start = values.size - 2 * (values.size // 4)
    top = values[start:]
    resolution = float(np.spacing(np.max(np.abs(top))))
    if resolution >= 0.25:
        raise ValueError(f"float64 spacing {resolution:.3g} cannot resolve unit label spacing")
    k = np.arange(position + start, position + values.size, dtype=np.float64)
    tail = top - (k - params.g**2)
    center = int(round(float(np.median(tail))))
    medians = sorted(
        (float(np.median(np.abs(tail - s))), s) for s in range(center - 3, center + 4)
    )
    (best_med, best), (second_med, _) = medians[:2]
    if best_med >= 0.5:
        raise ValueError(f"no label offset fits: best median deviation {best_med:.3g} >= 1/2")
    if second_med - best_med < 0.25:
        raise ValueError(
            f"label offset ambiguous: best {best} at {best_med:.3f}, runner-up {second_med:.3f}"
        )
    return best


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


def alternation_patterns(verdicts, goods):
    """Per-window brute force of the alternation rule in ``rabi.intervals``.

    ``verdicts`` are the verdict labels and ``goods`` the good flags of
    consecutive intervals.  An interval is "unclassified" when it is the
    first or the last (it lacks a neighbor), when it is bad, or when it or a
    neighbor is "boundary".  Otherwise it is "pass" when it is a pair of one
    parity and both neighbors are pairs of the other, and "fail" when not.
    Returns one pattern label per interval.
    """
    other = {"minus_pair": "plus_pair", "plus_pair": "minus_pair"}
    out = []
    for i, (verdict, good) in enumerate(zip(verdicts, goods)):
        if i == 0 or i == len(verdicts) - 1 or not good:
            out.append("unclassified")
        elif "boundary" in (verdicts[i - 1], verdict, verdicts[i + 1]):
            out.append("unclassified")
        elif verdict in other and verdicts[i - 1] == verdicts[i + 1] == other[verdict]:
            out.append("pass")
        else:
            out.append("fail")
    return out


def record_calls(patch, name, calls, module=eigensolver):
    """Patch ``module.<name>`` to append [args, result] of each call; the
    entry is appended before the call, so one that raises leaves [args, None]."""
    inner = getattr(module, name)

    def spy(*args):
        entry = [args, None]
        calls.append(entry)
        entry[1] = inner(*args)
        return entry[1]

    patch.setattr(module, name, spy)


def record_round_passes(patch, eigensolver):
    """Patch ``eigensolver`` to record each ``_newton_windows`` round as
    ``[kind, passes]``: kind is "fallback" for a round inside ``_fallback``
    and "window" otherwise; passes counts the window passes from the round's
    start to the next round's, the certificate's count included."""
    rounds, inside = [], []
    solve, counts = eigensolver._newton_windows, eigensolver._window_counts
    fallback = eigensolver._fallback

    def counted_solve(*args):
        rounds.append(["fallback" if inside else "window", 0])
        return solve(*args)

    def counted_counts(*args):
        rounds[-1][1] += 1
        return counts(*args)

    def marked_fallback(*args):
        inside.append(True)
        try:
            return fallback(*args)
        finally:
            inside.pop()

    patch.setattr(eigensolver, "_newton_windows", counted_solve)
    patch.setattr(eigensolver, "_window_counts", counted_counts)
    patch.setattr(eigensolver, "_fallback", marked_fallback)
    return rounds
