import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regeval import errors, ranking
from regeval.ranking import (
    HIGHER_BETTER,
    LOWER_BETTER,
    MetricMatrix,
    aggregate,
    pairwise_wins,
    rank_methods,
    wins_to_rank_scores,
)
from regeval.stats import mann_whitney_u, wilcoxon_signed_rank


def matrix(values, direction=HIGHER_BETTER, methods=None, pairing="paired", metric_id="m"):
    values = np.asarray(values, dtype=np.float64)
    methods = methods or [f"m{i}" for i in range(values.shape[0])]
    cases = [f"c{j}" for j in range(values.shape[1])]
    return MetricMatrix(
        metric_id=metric_id,
        direction=direction,
        methods=tuple(methods),
        cases=tuple(cases),
        values=values,
        pairing=pairing,
    )


def dominated_values(rng, n_methods, n_cases, gap=1.0):
    """Each method strictly better than the next on every case."""
    base = rng.standard_normal(n_cases)
    return np.stack([base + gap * (n_methods - i) for i in range(n_methods)])


class TestPairwiseWins:
    def test_strict_domination_chain(self, rng):
        vals = dominated_values(rng, 3, 20)
        wins = pairwise_wins(matrix(vals, methods=["A", "B", "C"]))
        assert wins == {"A": 2, "B": 1, "C": 0}

    def test_identical_methods_have_no_wins(self):
        vals = np.tile(np.arange(10.0), (4, 1))
        wins = pairwise_wins(matrix(vals))
        assert all(w == 0 for w in wins.values())

    def test_lower_better_two_methods(self, rng):
        base = rng.standard_normal(15)
        vals = np.stack([base, base + 1.0])  # method 0 uniformly 1.0 below
        wins = pairwise_wins(matrix(vals, direction=LOWER_BETTER, methods=["A", "B"]))
        # exact one-sided p is 2**-15 < 0.05
        assert wins == {"A": 1, "B": 0}

    def test_unpaired_uses_rank_sum(self, rng):
        a = rng.standard_normal(12) + 3.0
        b = rng.standard_normal(12)
        vals = np.stack([a, b])
        wins = pairwise_wins(matrix(vals, pairing="unpaired", methods=["A", "B"]))
        assert wins == {"A": 1, "B": 0}

    def test_alpha_controls_significance(self, rng):
        base = rng.standard_normal(6)
        vals = np.stack([base + 1.0, base])  # p = 2**-6 = 0.015625
        m = matrix(vals, methods=["A", "B"])
        assert pairwise_wins(m, alpha=0.05) == {"A": 1, "B": 0}
        assert pairwise_wins(m, alpha=0.01) == {"A": 0, "B": 0}


class TestWinsToRankScores:
    def test_three_method_example(self):
        assert wins_to_rank_scores({"a": 2, "b": 1, "c": 0}, 3) == {
            "a": 1.0,
            "b": pytest.approx(0.55),
            "c": 0.1,
        }

    def test_all_zero_wins(self):
        scores = wins_to_rank_scores({"a": 0, "b": 0, "c": 0}, 3)
        assert all(s == 0.1 for s in scores.values())

    def test_tied_wins_share_scores(self):
        scores = wins_to_rank_scores({"a": 3, "b": 3, "c": 0, "d": 0}, 4)
        assert scores["a"] == scores["b"] == 1.0
        assert scores["c"] == scores["d"] == 0.1

    def test_single_method_floor(self):
        assert wins_to_rank_scores({"only": 0}, 1) == {"only": 0.1}


class TestAggregate:
    def test_perfect_scores(self):
        table = aggregate({"dsc": {"a": 1.0}, "hd95": {"a": 1.0}, "tre": {"a": 1.0}})
        assert table.rows[0].acc_score == pytest.approx(1.0)
        assert table.rows[0].final_rank == 1

    def test_geometric_mean_two_metrics(self):
        table = aggregate({"dsc": {"a": 0.1}, "hd95": {"a": 0.9}}, ["dsc", "hd95"])
        assert table.rows[0].acc_score == pytest.approx(0.3, abs=1e-12)

    def test_competition_ranking_with_ties(self):
        scores = {"m": {"a": 1.0, "b": 1.0, "c": 0.4}}
        table = aggregate(scores, ["m"])
        ranks = {row.method: row.final_rank for row in table.rows}
        assert ranks == {"a": 1, "b": 1, "c": 3}
        # deterministic listing order: ties break lexicographically
        assert [row.method for row in table.rows] == ["a", "b", "c"]

    def test_inconsistent_method_sets(self):
        with pytest.raises(errors.InconsistentMethodSets):
            aggregate({"x": {"a": 0.5}, "y": {"b": 0.5}}, ["x", "y"])

    def test_single_metric_preserves_order(self, rng):
        scores = {"m": {f"q{i}": s for i, s in enumerate(rng.uniform(0.1, 1.0, size=6))}}
        table = aggregate(scores, ["m"])
        ordered = sorted(scores["m"], key=lambda k: (-scores["m"][k], k))
        assert [row.method for row in table.rows] == ordered
        assert [row.final_rank for row in table.rows] == sorted(row.final_rank for row in table.rows)


class TestRankMethodsPipeline:
    def make_cohort_matrices(self, rng, order, n_cases=50):
        """Three metrics whose quality strictly follows the given order."""
        n = len(order)
        dsc_vals = np.stack([rng.random(n_cases) * 0.02 + 0.9 - 0.05 * order.index(m) for m in order])
        hd_vals = np.stack([rng.random(n_cases) * 0.1 + 1.0 + 0.5 * order.index(m) for m in order])
        tre_vals = np.stack([rng.random(n_cases) * 0.1 + 1.0 + 0.4 * order.index(m) for m in order])
        return [
            matrix(dsc_vals, HIGHER_BETTER, list(order), metric_id="dsc"),
            matrix(hd_vals, LOWER_BETTER, list(order), metric_id="hd95"),
            matrix(tre_vals, LOWER_BETTER, list(order), metric_id="tre"),
        ]

    def test_injected_ordering_recovered(self, rng):
        order = ["alpha", "beta", "gamma", "delta", "epsilon"]
        matrices = self.make_cohort_matrices(rng, order)
        table, scores = rank_methods(matrices, ["dsc", "hd95", "tre"])
        assert [row.method for row in table.rows] == order
        assert [row.final_rank for row in table.rows] == [1, 2, 3, 4, 5]
        # acc equals the geometric mean of the three rank scores
        for row in table.rows:
            want = (
                scores["dsc"][row.method]
                * scores["hd95"][row.method]
                * scores["tre"][row.method]
            ) ** (1.0 / 3.0)
            assert row.acc_score == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        order = ["a", "b", "c"]
        matrices = self.make_cohort_matrices(rng, order)
        table1, _ = rank_methods(matrices)
        transformed = []
        for m in matrices:
            vals = np.exp(m.values) if m.direction == HIGHER_BETTER else np.log1p(m.values)
            transformed.append(
                MetricMatrix(
                    metric_id=m.metric_id,
                    direction=m.direction,
                    methods=m.methods,
                    cases=m.cases,
                    values=vals,
                    pairing=m.pairing,
                )
            )
        table2, _ = rank_methods(transformed)
        assert [r.method for r in table1.rows] == [r.method for r in table2.rows]
        assert [r.final_rank for r in table1.rows] == [r.final_rank for r in table2.rows]

    def test_adding_universal_loser_keeps_relative_wins(self, rng):
        order = ["a", "b", "c"]
        matrices = self.make_cohort_matrices(rng, order)
        wins_before = {m.metric_id: pairwise_wins(m) for m in matrices}
        extended = []
        for m in matrices:
            loser = (
                m.values.min() - 10.0 - rng.random(len(m.cases))
                if m.direction == HIGHER_BETTER
                else m.values.max() + 10.0 + rng.random(len(m.cases))
            )
            extended.append(
                MetricMatrix(
                    metric_id=m.metric_id,
                    direction=m.direction,
                    methods=m.methods + ("loser",),
                    cases=m.cases,
                    values=np.vstack([m.values, loser]),
                    pairing=m.pairing,
                )
            )
        for m in extended:
            wins_after = pairwise_wins(m)
            base = wins_before[m.metric_id]
            # every original method gains exactly the win over the loser
            assert {k: wins_after[k] - 1 for k in base} == base
            assert wins_after["loser"] == 0

    def test_paired_matrix_rejects_missing_cells(self):
        vals = np.array([[1.0, np.nan], [0.5, 0.4]])
        with pytest.raises(errors.UnpairedCases):
            matrix(vals)


# --- invariance under rescaling, as a property ---------------------------------


def rescaled(m: MetricMatrix, fn) -> MetricMatrix:
    return MetricMatrix(
        metric_id=m.metric_id,
        direction=m.direction,
        methods=m.methods,
        cases=m.cases,
        values=fn(m.values),
        pairing=m.pairing,
    )


def board(table) -> list:
    return [(r.method, r.wins, r.rank_scores, r.acc_score, r.final_rank) for r in table.rows]


@st.composite
def integer_matrices(draw, pairing):
    """2-4 methods x 1-12 cases of small integers: ties and, when paired,
    zero differences are common."""
    k = draw(st.integers(2, 4))
    c = draw(st.integers(1, 12))
    width = draw(st.sampled_from([3, 30]))
    values = draw(arrays(np.int64, (k, c), elements=st.integers(-width, width)))
    direction = draw(st.sampled_from([HIGHER_BETTER, LOWER_BETTER]))
    return matrix(values, direction=direction, pairing=pairing, metric_id=f"{pairing}-m")


# strictly increasing on the integers drawn above, also in float64
INCREASING_MAPS = (lambda v: v**3, lambda v: np.exp(v / 8.0), lambda v: np.arctan(v / 4.0))


@settings(max_examples=150, deadline=None)
@given(integer_matrices("unpaired"), st.sampled_from(range(len(INCREASING_MAPS))))
def test_unpaired_board_invariant_under_increasing_rescaling(m, which):
    fn = INCREASING_MAPS[which]
    grid = np.arange(-30, 31, dtype=np.float64)
    assert np.all(np.diff(fn(grid)) > 0)
    table, scores = rank_methods([m])
    table2, scores2 = rank_methods([rescaled(m, fn)])
    assert scores2 == scores
    assert board(table2) == board(table)


@settings(max_examples=150, deadline=None)
@given(integer_matrices("paired"), st.integers(-3, 3), st.integers(-50, 50))
def test_paired_board_invariant_under_positive_affine_rescaling(m, log2_scale, shift):
    # a power-of-two scale and an integer shift are exact in float64, so the
    # |differences| keep their order and ties
    table, scores = rank_methods([m])
    table2, scores2 = rank_methods([rescaled(m, lambda v: v * 2.0**log2_scale + shift)])
    assert scores2 == scores
    assert board(table2) == board(table)


def test_paired_wins_can_change_under_nonlinear_rescaling():
    # The signed-rank test ranks |a - b| across cases, so a monotone but
    # non-affine map can reorder the differences: here a loses one case by
    # the largest raw margin, which log turns into the smallest.
    a = [1.1, 2.1, 3.1, 4.1, 5.1, 6.1, 7.1, 1000.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1001.0]
    m = matrix([a, b], methods=["a", "b"])
    assert pairwise_wins(m) == {"a": 0, "b": 0}
    assert pairwise_wins(rescaled(m, np.log)) == {"a": 1, "b": 0}


# --- the swapped test call against the "less" alternative ------------------------


@st.composite
def gapped_matrices(draw):
    """2-4 methods x 1-30 cases with ties, zero differences and, when
    unpaired, NaN gaps (every method keeps its first case)."""
    pairing = draw(st.sampled_from(["paired", "unpaired"]))
    k = draw(st.integers(2, 4))
    c = draw(st.integers(1, 30))
    elements = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    values = draw(arrays(np.float64, (k, c), elements=elements))
    if pairing == "unpaired":
        gaps = draw(arrays(np.bool_, (k, c)))
        gaps[:, 0] = False
        values[gaps] = np.nan
    direction = draw(st.sampled_from([HIGHER_BETTER, LOWER_BETTER]))
    return matrix(values, direction=direction, pairing=pairing)


def p_values_via_alternative(m: MetricMatrix) -> dict:
    """p of "row method beats column method", asked the direct way:
    ``alternative="less"`` for a lower-is-better metric."""
    better = "greater" if m.direction == HIGHER_BETTER else "less"
    test = wilcoxon_signed_rank if m.pairing == "paired" else mann_whitney_u
    p = {}
    for i, a in enumerate(m.methods):
        for j, b in enumerate(m.methods):
            if i != j:
                va, vb = m.values[i], m.values[j]
                if m.pairing == "unpaired":
                    va, vb = va[np.isfinite(va)], vb[np.isfinite(vb)]
                p[a, b] = test(va, vb, alternative=better).p_one_sided
    return p


@settings(max_examples=300, deadline=None)
@given(gapped_matrices(), st.data())
def test_pairwise_wins_equal_the_less_alternative(m, data):
    p = p_values_via_alternative(m)
    # a threshold at one of the p-values, or just above it, flips a win if
    # that p-value differs in its last bit
    at = data.draw(st.sampled_from(sorted(set(p.values()))))
    for alpha in (0.05, at, float(np.nextafter(at, 2.0))):
        want = {a: sum(p[a, b] < alpha for b in m.methods if b != a) for a in m.methods}
        assert pairwise_wins(m, alpha=alpha) == want
