"""Statistical primitives for metric aggregation and leaderboard tests.

The two significance tests are one-sided and rank-based.  Both switch between
an exact null distribution (computed by integer-count dynamic programming,
equivalent to full enumeration) and a tie-corrected normal approximation with
a 0.5 continuity correction.  Exactness matters here: leaderboard positions
hinge on p < alpha decisions, so the exact branch is used whenever feasible.

An exact null depends only on the multiset of doubled ranks (signed-rank) or
on the sample sizes ``(n, m)`` (rank-sum), so each is built once per process
and its upper tail, as integer suffix sums, is kept in a bounded LRU cache of
``_NULL_CACHE_SIZE`` entries.  On tie-free data a ranking run of M methods
asks for the same null M*(M-1) times per metric.  The integer tail gives the
same counts as the distribution it sums, so the p-values are unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import BadQuantile, DegenerateInput, EmptyInput, LengthMismatch


@dataclass(frozen=True)
class TestResult:
    """One-sided test outcome.

    ``method`` is "exact" (enumerated null distribution), "normal"
    (tie-corrected approximation with continuity correction), or
    "degenerate" (no informative pairs; p forced to 1).
    """

    statistic: float
    p_one_sided: float
    n_effective: int
    method: str


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


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank.

    A run of ties is decided by ``==`` between sorted neighbours, so -0.0
    ties 0.0 and every NaN is a run of its own.
    """
    n = values.size
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # edge[k]: a run boundary between sorted positions k - 1 and k
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=edge[1:n])
    starts = np.flatnonzero(edge[:n])
    ends = np.flatnonzero(edge[1:])
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _tie_counts(values: np.ndarray) -> np.ndarray:
    _, counts = np.unique(values, return_counts=True)
    return counts


def _check_options(alternative: str, method: str) -> None:
    if alternative not in ("greater", "less"):
        raise ValueError(f"alternative must be 'greater' or 'less', got {alternative!r}")
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"method must be 'auto', 'exact' or 'normal', got {method!r}")


def _normal_result(stat: float, mean: float, var: float, n: int) -> TestResult:
    """Upper-tail p-value of ``stat`` under a normal null with a 0.5
    continuity correction; "degenerate" with p = 1 when ``var`` vanishes."""
    if var <= 0.0:
        return TestResult(stat, 1.0, n, "degenerate")
    z = (stat - 0.5 - mean) / math.sqrt(var)
    return TestResult(stat, min(0.5 * math.erfc(z / math.sqrt(2.0)), 1.0), n, "normal")


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test


# Entries per exact-null cache.  Under method="auto" a signed-rank key holds up
# to 25 doubled ranks and its tail up to 652 ints; tie-heavy data can make many
# distinct keys, so the cache must not grow without bound.
_NULL_CACHE_SIZE = 256


def _upper_tail(counts: list[int]) -> tuple[int, ...]:
    """Suffix sums of a count distribution, with a trailing 0 for values past
    its end: ``tail[k] == sum(counts[k:])`` for every k in 0..len(counts)."""
    return tuple(accumulate(reversed(counts), initial=0))[::-1]


def _tail_at(tail: tuple[int, ...], k: int) -> int:
    return tail[min(max(k, 0), len(tail) - 1)]


@lru_cache(maxsize=_NULL_CACHE_SIZE)
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


def _wilcoxon_exact_p_ge(doubled_ranks: list[int], w2_obs: int) -> float:
    """P(W+ >= w_obs) under random signs, on ranks doubled to integers."""
    tail = _wilcoxon_exact_tail(tuple(sorted(doubled_ranks)))
    return _tail_at(tail, w2_obs) / (1 << len(doubled_ranks))


def wilcoxon_signed_rank(x, y, alternative: str = "greater", method: str = "auto") -> TestResult:
    """Paired one-sided Wilcoxon signed-rank test.

    Zero differences are dropped (classic Wilcoxon); |d| is ranked with
    average ranks for ties and W+ is the rank sum over positive differences.
    The null distribution is exact for n_effective <= 25 (conditional on the
    observed ranks), otherwise a tie-corrected normal approximation with a
    0.5 continuity correction.  With no nonzero differences the result is
    flagged "degenerate" with p = 1 so that no comparison can be won.

    ``alternative`` "greater" tests whether x tends to exceed y.
    """
    _check_options(alternative, method)
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.size != yv.size:
        raise LengthMismatch(f"paired samples differ in length: {xv.size} vs {yv.size}")
    if xv.size == 0:
        raise EmptyInput("wilcoxon_signed_rank needs at least one pair")

    d = xv - yv
    nz = d[d != 0.0]
    n = int(nz.size)
    abs_d = np.abs(nz)
    ranks = _average_ranks(abs_d)
    w_plus = float(np.sum(ranks[nz > 0]))
    if alternative == "less":
        # p(less on (x, y)) equals p(greater on (y, x)); route through one
        # code path so the identity holds bit for bit.
        return replace(wilcoxon_signed_rank(yv, xv, "greater", method), statistic=w_plus)
    if n == 0:
        return TestResult(statistic=0.0, p_one_sided=1.0, n_effective=0, method="degenerate")

    use_exact = method == "exact" or (method == "auto" and n <= 25)
    if use_exact:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        w2 = int(np.rint(2.0 * np.sum(ranks[nz > 0])))
        p = _wilcoxon_exact_p_ge([int(r) for r in doubled], w2)
        return TestResult(w_plus, min(p, 1.0), n, "exact")

    ties = _tie_counts(abs_d)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(ties**3 - ties)) / 48.0
    return _normal_result(w_plus, n * (n + 1) / 4.0, var, n)


# ---------------------------------------------------------------------------
# Mann-Whitney U test


@lru_cache(maxsize=_NULL_CACHE_SIZE)
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


def mann_whitney_u(x, y, alternative: str = "greater", method: str = "auto") -> TestResult:
    """Unpaired one-sided Mann-Whitney U test (Wilcoxon rank-sum).

    U is computed from average ranks of the pooled sample.  The null is
    exact when min(n, m) <= 10 and the pooled sample is tie-free, otherwise
    a tie-corrected normal approximation with continuity correction.
    """
    _check_options(alternative, method)
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.size == 0 or yv.size == 0:
        raise EmptyInput("mann_whitney_u needs nonempty samples")

    n, m = int(xv.size), int(yv.size)
    pooled = np.concatenate([xv, yv])
    ranks = _average_ranks(pooled)
    u_x = float(np.sum(ranks[:n]) - n * (n + 1) / 2.0)
    if alternative == "less":
        return replace(mann_whitney_u(yv, xv, "greater", method), statistic=u_x)

    has_ties = np.unique(pooled).size != pooled.size
    use_exact = method == "exact" or (method == "auto" and min(n, m) <= 10 and not has_ties)
    if use_exact and has_ties:
        raise ValueError("exact Mann-Whitney null is only defined for tie-free data")
    if use_exact:
        n_ge = _tail_at(_mwu_exact_tail(n, m), int(round(u_x)))
        p = n_ge / math.comb(n + m, n)
        return TestResult(u_x, min(p, 1.0), n + m, "exact")

    big_n = n + m
    ties = _tie_counts(pooled)
    tie_term = float(np.sum(ties**3 - ties)) / (big_n * (big_n - 1.0)) if big_n > 1 else 0.0
    return _normal_result(u_x, n * m / 2.0, n * m / 12.0 * (big_n + 1.0 - tie_term), big_n)


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
