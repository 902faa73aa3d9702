"""Leaderboard construction from per-method metric matrices.

Five fictitious methods with a strict injected quality ordering are ranked
the challenge way: every method is tested against every other with a
one-sided paired Wilcoxon signed-rank test at alpha 0.05; win counts map
onto rank scores in [0.1, 1.0]; the accuracy score is the geometric mean of
the Dice, HD95, and TRE rank scores.  Here every method beats the next on
every case by more than the case-to-case spread, so a monotone rescaling of
a metric leaves the board unchanged.  (In general the paired signed-rank
test is only invariant under positive affine rescaling.)
"""
import numpy as np

from regeval.ranking import HIGHER_BETTER, LOWER_BETTER, MetricMatrix, rank_methods

rng = np.random.default_rng(11)
methods = ("atlasflow", "bendfield", "coilwarp", "driftnet", "elastique")
cases = tuple(f"case{i:02d}" for i in range(40))
per_case = rng.random(len(cases)) * 0.02

dsc = np.stack([0.92 - 0.05 * i + per_case for i in range(5)])
hd95 = np.stack([2.0 + 0.6 * i + 5 * per_case for i in range(5)])
tre = np.stack([1.0 + 0.5 * i + 5 * per_case for i in range(5)])

matrices = [
    MetricMatrix("dsc", HIGHER_BETTER, methods, cases, dsc),
    MetricMatrix("hd95", LOWER_BETTER, methods, cases, hd95),
    MetricMatrix("tre", LOWER_BETTER, methods, cases, tre),
]

table, scores = rank_methods(matrices, ["dsc", "hd95", "tre"], alpha=0.05)

print(f"{'method':<12} {'wins d/h/t':>12} {'rank scores':>22} {'acc':>7}  rank")
for row in table.rows:
    wins = "/".join(str(row.wins[m]) for m in ("dsc", "hd95", "tre"))
    rs = " ".join(f"{row.rank_scores[m]:.3f}" for m in ("dsc", "hd95", "tre"))
    print(f"{row.method:<12} {wins:>12} {rs:>22} {row.acc_score:7.3f}  {row.final_rank}")

print()
print("sanity: a monotone transform of a metric cannot change this board")
transformed = [
    MetricMatrix("dsc", HIGHER_BETTER, methods, cases, np.exp(dsc)),
    MetricMatrix("hd95", LOWER_BETTER, methods, cases, np.log1p(hd95)),
    MetricMatrix("tre", LOWER_BETTER, methods, cases, tre**3),
]
table2, _ = rank_methods(transformed, ["dsc", "hd95", "tre"])
same = [r.method for r in table.rows] == [r.method for r in table2.rows]
print(f"ordering preserved under exp/log1p/cube transforms: {same}")
