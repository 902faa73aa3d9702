"""Statistical primitives for metric aggregation and leaderboard tests.

The two significance tests are one-sided and rank-based.  Both switch between
an exact null distribution (computed by integer-count dynamic programming,
equivalent to full enumeration) and a tie-corrected normal approximation with
a 0.5 continuity correction.  Exactness matters here: leaderboard positions
hinge on p < alpha decisions, so the exact branch is used whenever feasible.

An exact null depends only on the multiset of doubled ranks (signed-rank) or
on the sample sizes ``(n, m)`` (rank-sum).  A call builds each distinct null
once, as its upper tail in integer suffix sums: signed-rank once per unique
rank pattern of its rows (``np.unique``), rank-sum once for all its rows.
Nothing is kept between calls.  The integer tail gives the same counts as
summing the distribution, so the p-values are exact quotients of counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BadParams, BadQuantile, DegenerateInput, EmptyInput, LengthMismatch


@dataclass(frozen=True)
class PearsonFit:
    r: float
    slope: float
    intercept: float


@dataclass(frozen=True)
class CohortStats:
    """Per-metric cohort summary: mean and sample (n-1) standard deviation."""

    means: dict
    stds: dict


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks on the sorted values.

    h = (n - 1) * q / 100; result = v[floor(h)] + frac * (v[floor(h) + 1] - v[floor(h)]).
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise EmptyInput("percentile of an empty sequence")
    if not (0.0 <= q <= 100.0) or not math.isfinite(q):
        raise BadQuantile(f"quantile must be in [0, 100], got {q}")
    v = np.sort(vals)
    h = (v.size - 1) * (q / 100.0)
    lo = int(math.floor(h))
    if lo == v.size - 1:
        return float(v[lo])
    frac = h - lo
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


def dsc30(per_structure_dsc) -> float:
    """Robustness statistic: 30th percentile of a case's per-structure overlap."""
    return percentile(per_structure_dsc, 30.0)


def tre30(per_landmark_tre) -> float:
    """Robustness statistic on the large-error side: 70th percentile of a
    case's per-landmark distances (the boundary of the worst 30 percent)."""
    return percentile(per_landmark_tre, 70.0)


def mean_std(values) -> tuple[float, float]:
    """Mean and n-1 standard deviation; std is 0.0 for a single value."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise EmptyInput("mean_std of an empty sequence")
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    return mean, std


def summarize_cohort(per_case_values: dict) -> CohortStats:
    """Column-wise mean/std over cases for a {metric: per-case values} map.

    Metrics may cover different case subsets (landmark-based ones often do).
    """
    means = {}
    stds = {}
    for metric, vals in per_case_values.items():
        means[metric], stds[metric] = mean_std(vals)
    return CohortStats(means=means, stds=stds)


# ---------------------------------------------------------------------------
# rank helpers


def _rank_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a 2-D stack, from one sort: ranks 1..k with ties sharing
    their average rank, and the sum of t**3 - t over the groups of t equal
    values.

    A run of ties is decided by ``!=`` between sorted neighbours, so -0.0
    ties 0.0 and every NaN ranks on its own; as in ``np.unique``, all NaNs
    of a row (sorted last) form one tie group.
    """
    rows, k = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=1)
    # edge[r, p]: a run boundary between sorted positions p - 1 and p of row r
    edge = np.ones((rows, k + 1), dtype=bool)
    edge[:, 1:k] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    # flat positions of each run's first and last value; row r begins at r * k
    starts, ends = np.flatnonzero(edge[:, :k]), np.flatnonzero(edge[:, 1:])
    mid = np.repeat(0.5 * (starts + ends), ends - starts + 1).reshape(rows, k)
    ranks = np.empty((rows, k))
    np.put_along_axis(ranks, order, mid - k * np.arange(rows)[:, None] + 1.0, axis=1)
    # tie groups are the runs with a row's NaNs merged into one
    nan = np.isnan(sorted_vals)
    edge[:, 1:k] &= ~(nan[:, 1:] & nan[:, :-1])
    t = np.flatnonzero(edge[:, 1:]) - np.flatnonzero(edge[:, :k]) + 1
    # each of a group's t positions adds t * t - 1
    return ranks, np.repeat(t * t - 1, t).reshape(rows, k).sum(axis=1)


def _sample_rows(x, y, method: str, paired: bool) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float64 (rows, k) stacks, a 1-D sample as one row; a
    LengthMismatch names both shapes, and rows need at least one value."""
    if method not in ("auto", "exact", "normal"):
        raise BadParams(f"method must be 'auto', 'exact' or 'normal', got {method!r}")
    xv = np.atleast_2d(np.asarray(x, dtype=np.float64))
    yv = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if max(xv.ndim, yv.ndim) > 2 or xv.shape[0] != yv.shape[0]:
        raise LengthMismatch(f"samples need one row per test: shapes {np.shape(x)} vs {np.shape(y)}")
    if paired and xv.shape != yv.shape:
        raise LengthMismatch(f"paired samples differ in length: shapes {np.shape(x)} vs {np.shape(y)}")
    if xv.shape[1] == 0 or yv.shape[1] == 0:
        raise EmptyInput("rank tests need nonempty samples")
    return xv, yv


def _use_exact(method: str, feasible: np.ndarray) -> np.ndarray:
    """Rows that take the exact null: all under "exact", none under "normal",
    the ``feasible`` ones under "auto"."""
    return (method == "exact") | ((method == "auto") & feasible)


def _normal_p(stat: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Upper-tail p-values of ``stat`` under normal nulls with a 0.5
    continuity correction; 1 where ``var`` vanishes."""
    ok = var > 0.0
    z = (stat - 0.5 - mean) / np.sqrt(np.where(ok, var, 1.0))
    p = [min(0.5 * math.erfc(v), 1.0) for v in (z / math.sqrt(2.0)).tolist()]
    return np.where(ok, p, 1.0)


@dataclass(frozen=True)
class RowResults:
    """One-sided outcomes of one test on each row of a stack of sample pairs.

    Row r compares ``x[r]`` with ``y[r]``: ``statistic`` is that of x over y,
    ``p_greater`` the p-value that x tends to exceed y and ``p_less`` the one
    that y tends to exceed x, both from one ranking of the row.  ``method``
    is "exact" (enumerated null distribution), "normal" (tie-corrected
    approximation with continuity correction) or "degenerate" (no
    informative pairs; both p-values forced to 1).
    """

    statistic: np.ndarray
    p_greater: np.ndarray
    p_less: np.ndarray
    n_effective: np.ndarray
    method: np.ndarray


def _method_names(degenerate: np.ndarray, exact: np.ndarray) -> np.ndarray:
    return np.where(degenerate, "degenerate", np.where(exact, "exact", "normal"))


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


def _upper_tail(counts: list[int]) -> tuple[int, ...]:
    """Suffix sums of a count distribution, with a trailing 0 for values past
    its end: ``tail[k] == sum(counts[k:])`` for every k in 0..len(counts)."""
    return tuple(accumulate(reversed(counts), initial=0))[::-1]


def _p_ge(tail: tuple[int, ...], k: int) -> float:
    """P(statistic >= k) from an upper tail; ``tail[0]`` counts every outcome."""
    return tail[min(max(k, 0), len(tail) - 1)] / tail[0]


def _wilcoxon_exact_tail(sorted_doubled_ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Upper tail of the doubled positive-rank sum over all 2**n sign patterns.

    Dynamic program over the distribution of the sum; integer counts make
    this identical to enumerating the sign patterns.
    """
    total = sum(sorted_doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in sorted_doubled_ranks:
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    return _upper_tail(counts)


def wilcoxon_signed_rank_rows(x, y, method: str = "auto") -> RowResults:
    """Paired one-sided Wilcoxon signed-rank tests of ``x[r]`` against
    ``y[r]`` for every row r of two (rows, k) stacks, in both directions;
    1-D samples are one row.

    Zero differences are dropped (classic Wilcoxon); |d| is ranked with
    average ranks for ties and W+, the statistic, is the rank sum over
    positive differences.  The null distribution is exact for
    n_effective <= 25 (conditional on the observed ranks), otherwise a
    tie-corrected normal approximation with a 0.5 continuity correction.
    A row with no nonzero differences is "degenerate" with p = 1 both ways,
    so that no comparison can be won.

    y - x has the |differences| and ranks of x - y, so W+ of y over x is the
    rank sum over the negative differences of x - y, and both directions
    share one exact null.  Each distinct null is built once per call.
    """
    xv, yv = _sample_rows(x, y, method, paired=True)

    d = xv - yv
    abs_d = np.abs(d)
    # zero differences are dropped: |d| = 0 sorts first and holds ranks 1..zeros
    zeros = np.count_nonzero(d == 0.0, axis=1)
    n = d.shape[1] - zeros
    ranks, ties = _rank_rows(abs_d)
    ranks -= zeros[:, None]
    # sums of ranks, multiples of 0.5 far below 2**53, are exact in any order
    w_plus = np.sum(ranks, axis=1, where=d > 0.0)
    w_minus = np.sum(ranks, axis=1, where=d < 0.0)
    p_greater = np.ones(n.size)
    p_less = np.ones(n.size)
    degenerate = n == 0
    exact = ~degenerate & _use_exact(method, n <= 25)

    rows = np.flatnonzero(exact)
    if rows.size:
        doubled = np.rint(2.0 * ranks[rows]).astype(np.int64)
        doubled[d[rows] == 0.0] = 0
        # the null is keyed by the sorted doubled ranks; zeros pad shorter rows
        patterns, which = np.unique(np.sort(doubled, axis=1), axis=0, return_inverse=True)
        tails = [_wilcoxon_exact_tail(tuple(u[u > 0].tolist())) for u in patterns]
        w2_plus = np.rint(2.0 * w_plus[rows]).astype(np.int64).tolist()
        w2_minus = np.rint(2.0 * w_minus[rows]).astype(np.int64).tolist()
        for r, t, wp, wm in zip(rows.tolist(), which.ravel().tolist(), w2_plus, w2_minus):
            p_greater[r] = _p_ge(tails[t], wp)
            p_less[r] = _p_ge(tails[t], wm)

    normal = ~degenerate & ~exact
    m = n[normal]
    # the tie sum of |d| less that of the zero group
    ties = ties[normal] - (zeros[normal] ** 3 - zeros[normal])
    var = m * (m + 1) * (2 * m + 1) / 24.0 - ties / 48.0
    mean = m * (m + 1) / 4.0
    p_greater[normal] = _normal_p(w_plus[normal], mean, var)
    p_less[normal] = _normal_p(w_minus[normal], mean, var)
    degenerate[normal] = var <= 0.0
    return RowResults(w_plus, p_greater, p_less, n, _method_names(degenerate, exact))


# ---------------------------------------------------------------------------
# Mann-Whitney U test


def _mwu_exact_tail(n: int, m: int) -> tuple[int, ...]:
    """Upper tail of the distribution of U for sample sizes (n, m) without ties.

    f[k][u] after considering the j-th smallest pooled rank counts the ways
    to assign k of them to x with U = u; built with the classic recurrence
    f(j, k, u) = f(j-1, k, u) + f(j-1, k-1, u - (j - k)).
    """
    max_u = n * m
    # f[k][u], iterating pooled ranks j = 1..n+m
    f = [[0] * (max_u + 1) for _ in range(n + 1)]
    f[0][0] = 1
    for j in range(1, n + m + 1):
        for k in range(min(j, n), 0, -1):
            row = f[k]
            prev = f[k - 1]
            shift = j - k  # number of y-values below this x-value
            for u in range(max_u - shift, -1, -1):
                if prev[u]:
                    row[u + shift] += prev[u]
    return _upper_tail(f[n])


def mann_whitney_u_rows(x, y, method: str = "auto") -> RowResults:
    """Unpaired one-sided Mann-Whitney U tests (Wilcoxon rank-sum) of
    ``x[r]`` against ``y[r]`` for every row r of a (rows, n) and a (rows, m)
    stack, in both directions; 1-D samples are one row.

    U, the statistic, is computed from average ranks of the pooled row.  The
    null is exact when min(n, m) <= 10 and the pooled row is tie-free,
    otherwise a tie-corrected normal approximation with continuity
    correction; a row of equal values is "degenerate" with p = 1 both ways.

    The pooled ranks sum to (n + m)(n + m + 1)/2, so U of y over x is
    n*m - U of x over y, and the null for (n, m), built once per call,
    equals that for (m, n).  Rows holding NaN rank it by position, so there
    the reversed direction can differ from testing (y, x).
    """
    xv, yv = _sample_rows(x, y, method, paired=False)
    n, m = xv.shape[1], yv.shape[1]

    pooled = np.concatenate([xv, yv], axis=1)
    ranks, ties = _rank_rows(pooled)
    u_x = np.sum(ranks[:, :n], axis=1) - n * (n + 1) / 2.0
    u_y = n * m - u_x
    has_ties = ties > 0
    exact = _use_exact(method, (min(n, m) <= 10) & ~has_ties)
    if np.any(exact & has_ties):
        raise BadParams("exact Mann-Whitney null is only defined for tie-free data")
    p_greater = np.ones(pooled.shape[0])
    p_less = np.ones(pooled.shape[0])

    rows = np.flatnonzero(exact)
    if rows.size:
        tail = _mwu_exact_tail(n, m)
        for r, ux, uy in zip(rows.tolist(), u_x[rows].tolist(), u_y[rows].tolist()):
            p_greater[r] = _p_ge(tail, round(ux))
            p_less[r] = _p_ge(tail, round(uy))

    normal = ~exact
    big_n = n + m
    tie_term = ties[normal] / (big_n * (big_n - 1.0))
    var = n * m / 12.0 * (big_n + 1.0 - tie_term)
    p_greater[normal] = _normal_p(u_x[normal], n * m / 2.0, var)
    p_less[normal] = _normal_p(u_y[normal], n * m / 2.0, var)
    degenerate = np.zeros(exact.shape, dtype=bool)
    degenerate[normal] = var <= 0.0
    n_effective = np.full(exact.shape, big_n)
    return RowResults(u_x, p_greater, p_less, n_effective, _method_names(degenerate, exact))


# ---------------------------------------------------------------------------
# Pearson correlation with linear fit


def pearson_fit(x, y) -> PearsonFit:
    """Sample Pearson r and the least-squares line of y on x.

    Raises DegenerateInput when either variable is constant (r undefined).
    """
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.size != yv.size:
        raise LengthMismatch(f"samples differ in length: {xv.size} vs {yv.size}")
    if xv.size < 2:
        raise EmptyInput("pearson_fit needs at least two points")
    dx = xv - xv.mean()
    dy = yv - yv.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("constant x or y makes the correlation undefined")
    sxy = float(np.dot(dx, dy))
    slope = sxy / sxx
    return PearsonFit(
        r=sxy / math.sqrt(sxx * syy),
        slope=slope,
        intercept=float(yv.mean() - slope * xv.mean()),
    )
