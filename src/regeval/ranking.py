"""Leaderboard construction from per-method, per-case metric matrices.

Every method is compared against every other with a one-sided significance
test in the metric's better-direction (paired Wilcoxon signed-rank for
matrices paired over cases, Mann-Whitney U otherwise).  Win counts map
affinely onto rank scores in [0.1, 1.0], with tied win counts sharing a
score, and the accuracy score is the geometric mean of the per-metric rank
scores.  Because the tests are rank-based, the board is invariant under any
strictly increasing rescaling of an unpaired metric.  The signed-rank test
ranks |differences| across cases, so a paired metric keeps its board under
positive affine rescaling, but a non-affine map can reorder the differences
and change a win.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentMethodSets, UnpairedCases
from .stats import mann_whitney_u, wilcoxon_signed_rank

HIGHER_BETTER = "higher"
LOWER_BETTER = "lower"


@dataclass(frozen=True)
class MetricMatrix:
    """Values of one metric for every (method, case) pair.

    ``values[i, j]`` is method ``methods[i]`` on case ``cases[j]``; paired
    matrices may not contain missing (NaN) cells.
    """

    metric_id: str
    direction: str
    methods: tuple[str, ...]
    cases: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    pairing: str = "paired"

    def __post_init__(self):
        if self.direction not in (HIGHER_BETTER, LOWER_BETTER):
            raise ValueError(f"direction must be 'higher' or 'lower', got {self.direction!r}")
        if self.pairing not in ("paired", "unpaired"):
            raise ValueError(f"pairing must be 'paired' or 'unpaired', got {self.pairing!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.methods), len(self.cases)):
            raise ValueError(f"values shape {vals.shape} does not match methods x cases")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("method ids must be unique")
        if self.pairing == "paired" and not np.all(np.isfinite(vals)):
            raise UnpairedCases(f"{self.metric_id}: paired matrix has missing cells")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class RankRow:
    method: str
    wins: dict
    rank_scores: dict
    acc_score: float
    final_rank: int


@dataclass(frozen=True)
class RankTable:
    """Leaderboard: one row per method, ordered best (rank 1) first.

    Exact accuracy-score ties share a rank (competition ranking); listing
    order breaks ties lexicographically by method id for determinism.
    """

    rows: tuple[RankRow, ...]
    metrics: tuple[str, ...]

    def row(self, method: str) -> RankRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)


def pairwise_wins(matrix: MetricMatrix, alpha: float = 0.05) -> dict:
    """Count, per method, the opponents it beats at the given alpha.

    Method A beats B when the one-sided test of A-better-than-B in the
    metric's direction yields p < alpha.  For a lower-is-better metric
    that is the "greater" test of B over A, which is how both tests compute
    their "less" p-value anyway.
    """
    higher = matrix.direction == HIGHER_BETTER
    test = wilcoxon_signed_rank if matrix.pairing == "paired" else mann_whitney_u
    wins = {m: 0 for m in matrix.methods}
    for i, a in enumerate(matrix.methods):
        for j, b in enumerate(matrix.methods):
            if i == j:
                continue
            va, vb = matrix.values[i], matrix.values[j]
            if matrix.pairing == "unpaired":
                va, vb = va[np.isfinite(va)], vb[np.isfinite(vb)]
            result = test(va, vb) if higher else test(vb, va)
            if result.p_one_sided < alpha:
                wins[a] += 1
    return wins


def wins_to_rank_scores(wins: dict, method_count: int | None = None) -> dict:
    """Affine map from win counts onto [0.1, 1.0].

    score = 0.1 + 0.9 * wins / (M - 1); equal wins give equal scores.  A
    single method (no opponents) scores the floor 0.1.
    """
    m = len(wins) if method_count is None else int(method_count)
    if m <= 1:
        return {k: 0.1 for k in wins}
    return {k: 0.1 + 0.9 * (w / (m - 1)) for k, w in wins.items()}


def aggregate(
    rank_scores: dict,
    metrics: list[str] | None = None,
    wins: dict | None = None,
) -> RankTable:
    """Geometric-mean aggregation of per-metric rank scores into a leaderboard.

    ``rank_scores`` maps metric id to a {method: score} map.  ``metrics``
    selects and orders the pooled metrics (defaults to all).  Each method
    must appear in every included map.
    """
    if metrics is None:
        metrics = sorted(rank_scores)
    missing = [m for m in metrics if m not in rank_scores]
    if missing:
        raise InconsistentMethodSets(f"no rank scores for metrics {missing}")
    if not metrics:
        raise InconsistentMethodSets("no metrics to aggregate")

    method_sets = [frozenset(rank_scores[m]) for m in metrics]
    if len(set(method_sets)) != 1:
        raise InconsistentMethodSets("metric maps cover different method sets")
    methods = sorted(method_sets[0])

    acc = {
        meth: math.exp(sum(math.log(rank_scores[m][meth]) for m in metrics) / len(metrics))
        for meth in methods
    }
    ordered = sorted(methods, key=lambda meth: (-acc[meth], meth))
    final_rank: dict[str, int] = {}
    for pos, meth in enumerate(ordered):
        if pos > 0 and acc[meth] == acc[ordered[pos - 1]]:
            final_rank[meth] = final_rank[ordered[pos - 1]]
        else:
            final_rank[meth] = pos + 1

    rows = tuple(
        RankRow(
            method=meth,
            wins={} if wins is None else {m: w[meth] for m, w in wins.items() if meth in w},
            rank_scores={m: rank_scores[m][meth] for m in metrics},
            acc_score=acc[meth],
            final_rank=final_rank[meth],
        )
        for meth in ordered
    )
    return RankTable(rows=rows, metrics=tuple(metrics))


def rank_methods(
    matrices: list[MetricMatrix],
    acc_metrics: list[str] | None = None,
    alpha: float = 0.05,
) -> tuple[RankTable, dict]:
    """Full pipeline: pairwise tests, rank scores, geometric-mean table.

    Returns the table aggregated over ``acc_metrics`` (default: all supplied
    matrices) plus the {metric: {method: score}} map for every matrix, so
    callers can report per-metric rankings beyond the pooled ones.
    """
    scores: dict[str, dict] = {}
    wins: dict[str, dict] = {}
    for matrix in matrices:
        w = pairwise_wins(matrix, alpha=alpha)
        wins[matrix.metric_id] = w
        scores[matrix.metric_id] = wins_to_rank_scores(w, len(matrix.methods))
    if acc_metrics is None:
        acc_metrics = [m.metric_id for m in matrices]
    table = aggregate(scores, acc_metrics, wins=wins)
    return table, scores
