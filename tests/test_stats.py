import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as scipy_stats

from regeval import errors, stats
from regeval.stats import (
    dsc30,
    mann_whitney_u_rows,
    mean_std,
    pearson_fit,
    percentile,
    tre30,
    wilcoxon_signed_rank_rows,
)


def one_sided(res, alternative):
    """Row 0's p-value for "x tends to exceed y" ("greater") or the reverse."""
    return (res.p_greater if alternative == "greater" else res.p_less)[0]


def row_fields(res, r):
    """Every field of row ``r`` of a RowResults."""
    return tuple(getattr(res, f.name)[r] for f in dataclasses.fields(res))


# --- enumeration oracles -----------------------------------------------------


def wilcoxon_enum_p(d, alternative):
    """Exhaustive sign-pattern enumeration on the observed |d| ranks."""
    d = np.asarray(d, dtype=np.float64)
    nz = d[d != 0.0]
    n = nz.size
    # average ranks of |d|, computed independently (argsort of argsort + tie groups)
    abs_d = np.abs(nz)
    ranks = np.empty(n)
    for i, v in enumerate(abs_d):
        smaller = np.sum(abs_d < v)
        equal = np.sum(abs_d == v)
        ranks[i] = smaller + (equal + 1) / 2.0
    w_obs = ranks[nz > 0].sum()
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if alternative == "greater":
            count += w >= w_obs - 1e-12
        else:
            count += w <= w_obs + 1e-12
    return count / 2.0**n


def mwu_enum_p(x, y, alternative):
    """Exhaustive enumeration over all C(n+m, n) rank arrangements."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.size, y.size
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled)
    ranks = np.empty(n + m)
    ranks[order] = np.arange(1, n + m + 1)
    u_obs = ranks[:n].sum() - n * (n + 1) / 2.0
    total = 0
    count = 0
    all_ranks = np.arange(1, n + m + 1)
    for combo in itertools.combinations(range(n + m), n):
        u = all_ranks[list(combo)].sum() - n * (n + 1) / 2.0
        total += 1
        if alternative == "greater":
            count += u >= u_obs - 1e-12
        else:
            count += u <= u_obs + 1e-12
    return count / total


# --- percentile --------------------------------------------------------------


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_interpolation_rule(self):
        assert percentile([0, 10], 95) == 9.5

    def test_matches_sort_and_index_oracle(self, rng):
        for _ in range(20):
            values = rng.standard_normal(1000)
            q = float(rng.uniform(0, 100))
            got = percentile(values, q)
            v = np.sort(values)
            h = (len(v) - 1) * q / 100.0
            lo = int(math.floor(h))
            want = v[lo] if lo == len(v) - 1 else v[lo] + (h - lo) * (v[lo + 1] - v[lo])
            assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_and_bounded(self, rng):
        values = rng.standard_normal(50)
        qs = np.linspace(0, 100, 21)
        results = [percentile(values, q) for q in qs]
        assert all(a <= b + 1e-15 for a, b in zip(results, results[1:]))
        assert results[0] == values.min() and results[-1] == values.max()

    def test_errors(self):
        with pytest.raises(errors.EmptyInput):
            percentile([], 50)
        with pytest.raises(errors.BadQuantile):
            percentile([1.0], 101)


class TestRobustnessStats:
    def test_constant_dsc(self):
        assert dsc30([0.8] * 7) == 0.8

    def test_tre30_is_seventieth_percentile(self):
        assert tre30(list(range(1, 11))) == pytest.approx(7.3)

    def test_matches_percentile(self, rng):
        values = rng.random(37)
        assert dsc30(values) == percentile(values, 30)
        assert tre30(values) == percentile(values, 70)

    def test_mean_std(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(1.0)
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_summarize_cohort(self):
        cohort = stats.summarize_cohort({"dsc": [0.8, 0.9], "tre": [1.0, 2.0, 3.0]})
        assert cohort.means["dsc"] == pytest.approx(0.85)
        assert cohort.means["tre"] == 2.0  # metrics may cover different cases
        assert all(s >= 0 for s in cohort.stds.values())


# --- Wilcoxon ----------------------------------------------------------------


class TestWilcoxon:
    def test_all_positive_units(self):
        x = np.arange(10, dtype=float) + 1.0
        y = x - 1.0
        res = wilcoxon_signed_rank_rows(x, y)
        assert res.statistic[0] == 55.0
        assert res.p_greater[0] == pytest.approx(1.0 / 1024.0, abs=1e-15)
        assert res.method[0] == "exact"

    def test_identical_samples_flagged(self):
        x = [1.0, 2.0, 3.0]
        res = wilcoxon_signed_rank_rows(x, x)
        assert res.p_greater[0] == 1.0
        assert res.n_effective[0] == 0
        assert res.method[0] == "degenerate"

    def test_fixed_example_matches_enumeration(self):
        d = np.array([3.0, -1.0, 2.0, -2.0, 4.0, 1.0])
        x = d
        y = np.zeros(6)
        for alt in ("greater", "less"):
            got = one_sided(wilcoxon_signed_rank_rows(x, y), alt)
            want = wilcoxon_enum_p(d, alt)
            assert got == pytest.approx(want, abs=1e-12)

    def test_random_instances_match_enumeration(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 11))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            alt = "greater" if rng.random() < 0.5 else "less"
            got = one_sided(wilcoxon_signed_rank_rows(x, y), alt)
            want = wilcoxon_enum_p(x - y, alt)
            assert got == pytest.approx(want, abs=1e-12)

    def test_ties_in_magnitudes_still_exact(self, rng):
        # repeated |d| values: the exact branch conditions on average ranks
        x = np.array([2.0, 2.0, 2.0, -2.0, 1.0, 1.0])
        y = np.zeros(6)
        got = wilcoxon_signed_rank_rows(x, y).p_greater[0]
        want = wilcoxon_enum_p(x, "greater")
        assert got == pytest.approx(want, abs=1e-12)

    def test_direction_swap_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert (
                wilcoxon_signed_rank_rows(x, y).p_greater[0]
                == wilcoxon_signed_rank_rows(y, x).p_less[0]
            )

    def test_exact_and_normal_agree_for_moderate_n(self, rng):
        # tie-free samples in the window where both branches are defensible
        for _ in range(25):
            n = int(rng.integers(20, 26))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            p_exact = wilcoxon_signed_rank_rows(x, y, method="exact").p_greater[0]
            p_normal = wilcoxon_signed_rank_rows(x, y, method="normal").p_greater[0]
            assert abs(p_exact - p_normal) < 0.01

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            wilcoxon_signed_rank_rows([1.0], [1.0, 2.0])


# --- Mann-Whitney ------------------------------------------------------------


class TestMannWhitney:
    def test_complete_separation(self):
        res = mann_whitney_u_rows([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
        assert res.statistic[0] == 9.0
        assert res.p_greater[0] == pytest.approx(1.0 / 20.0, abs=1e-15)
        assert res.method[0] == "exact"

    def test_equal_multisets_not_significant(self):
        x = [1.0, 2.0, 3.0, 4.0]
        for alt in ("greater", "less"):
            assert one_sided(mann_whitney_u_rows(x, list(x)), alt) >= 0.5

    def test_random_instances_match_enumeration(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            alt = "greater" if rng.random() < 0.5 else "less"
            got = one_sided(mann_whitney_u_rows(x, y), alt)
            want = mwu_enum_p(x, y, alt)
            assert got == pytest.approx(want, abs=1e-12)

    def test_direction_swap_identity(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(2, 20)), int(rng.integers(2, 20))
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            assert (
                mann_whitney_u_rows(x, y).p_greater[0]
                == mann_whitney_u_rows(y, x).p_less[0]
            )

    def test_exact_and_normal_agree_for_moderate_sizes(self, rng):
        for _ in range(25):
            n = int(rng.integers(8, 11))
            m = int(rng.integers(12, 26))
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            p_exact = mann_whitney_u_rows(x, y, method="exact").p_greater[0]
            p_normal = mann_whitney_u_rows(x, y, method="normal").p_greater[0]
            assert abs(p_exact - p_normal) < 0.01

    def test_empty_input(self):
        with pytest.raises(errors.EmptyInput):
            mann_whitney_u_rows([], [1.0])


# --- the normal branch against scipy ---------------------------------------------


class TestNormalApproximation:
    """The tie-corrected normal approximation with continuity correction
    against scipy.stats' asymptotic tests, on tie-heavy samples."""

    def test_signed_rank_matches_scipy(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 40))
            x = rng.integers(-3, 4, n).astype(np.float64)
            y = rng.integers(-3, 4, n).astype(np.float64)
            res = wilcoxon_signed_rank_rows(x, y, method="normal")
            if res.method[0] == "degenerate":
                continue
            for alt in ("greater", "less"):
                want = scipy_stats.wilcoxon(
                    x, y, zero_method="wilcox", correction=True, alternative=alt, method="approx"
                ).pvalue
                assert one_sided(res, alt) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_rank_sum_matches_scipy(self, rng):
        for _ in range(40):
            x = rng.integers(-3, 4, int(rng.integers(2, 30))).astype(np.float64)
            y = rng.integers(-3, 4, int(rng.integers(2, 30))).astype(np.float64)
            res = mann_whitney_u_rows(x, y, method="normal")
            if res.method[0] == "degenerate":
                continue
            for alt in ("greater", "less"):
                want = scipy_stats.mannwhitneyu(x, y, alternative=alt, method="asymptotic").pvalue
                assert one_sided(res, alt) == pytest.approx(want, rel=1e-12, abs=1e-15)


# --- input contract of the row tests --------------------------------------------


class TestRowInputs:
    @pytest.mark.parametrize("test", [wilcoxon_signed_rank_rows, mann_whitney_u_rows])
    def test_one_dimensional_samples_are_one_row(self, test):
        x, y = np.array([3.0, -1.0, 2.0]), np.array([0.0, 0.5, 1.0])
        assert row_fields(test(x, y), 0) == row_fields(test(x[None], y[None]), 0)
        assert len(test(x, y).statistic) == 1

    @pytest.mark.parametrize("test", [wilcoxon_signed_rank_rows, mann_whitney_u_rows])
    @pytest.mark.parametrize(
        "x_shape, y_shape",
        [((2, 5), (3, 5)), ((3,), (2, 3)), ((2, 2, 5), (2, 2, 5))],
        ids=["row_counts", "one_row_against_two", "three_dims"],
    )
    def test_row_counts_must_match(self, test, x_shape, y_shape):
        x, y = np.ones(x_shape), np.zeros(y_shape)
        with pytest.raises(errors.LengthMismatch, match=re.escape(f"{x_shape} vs {y_shape}")):
            test(x, y)

    def test_paired_rows_must_have_one_length(self):
        with pytest.raises(errors.LengthMismatch, match=re.escape("(2, 5) vs (2, 4)")):
            wilcoxon_signed_rank_rows(np.ones((2, 5)), np.zeros((2, 4)))
        # unpaired rows may differ in length
        assert mann_whitney_u_rows(np.ones((2, 5)), np.zeros((2, 4))).p_greater.shape == (2,)

    @pytest.mark.parametrize("test", [wilcoxon_signed_rank_rows, mann_whitney_u_rows])
    def test_empty_rows_raise(self, test):
        with pytest.raises(errors.EmptyInput):
            test(np.zeros((2, 0)), np.zeros((2, 0)))

    @pytest.mark.parametrize("test", [wilcoxon_signed_rank_rows, mann_whitney_u_rows])
    def test_an_unknown_method_is_a_library_error(self, test):
        with pytest.raises(errors.RegEvalError, match="method must be 'auto', 'exact' or 'normal'"):
            test(np.ones((2, 3)), np.zeros((2, 3)), method="approx")

    def test_an_exact_rank_sum_null_on_ties_is_a_library_error(self):
        with pytest.raises(errors.RegEvalError, match="only defined for tie-free data"):
            mann_whitney_u_rows([1.0, 2.0], [2.0, 3.0], method="exact")
        # callers that catch ValueError still catch it
        assert issubclass(errors.BadParams, ValueError)


# --- exact nulls: brute force, built per call ----------------------------------


def wilcoxon_brute_p_ge(d):
    """P(W+ >= w_obs) by counting all 2**n sign patterns of the doubled
    average ranks of |d|, ranked here by counting, as exact integers."""
    d = np.asarray(d, dtype=np.float64)
    nz = d[d != 0.0]
    n = nz.size
    abs_d = np.abs(nz)
    doubled = np.array([2 * np.sum(abs_d < v) + np.sum(abs_d == v) + 1 for v in abs_d])
    w2_obs = int(doubled[nz > 0].sum())
    signs = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    count = int(np.count_nonzero(signs @ doubled >= w2_obs))
    return count / (1 << n)


def mwu_brute_p_ge(x, y):
    """P(U >= u_obs) by counting all C(n+m, n) splits of tie-free ranks."""
    n, m = len(x), len(y)
    pooled = np.concatenate([x, y])
    ranks = np.argsort(np.argsort(pooled)) + 1
    u_obs = int(ranks[:n].sum()) - n * (n + 1) // 2
    count = sum(
        sum(combo) - n * (n + 1) // 2 >= u_obs
        for combo in itertools.combinations(range(1, n + m + 1), n)
    )
    return count / math.comb(n + m, n)


def field_bytes(res):
    """The dtype and bytes of every field of a RowResults."""
    return tuple((a.dtype.str, a.tobytes()) for a in map(np.asarray, row_fields(res, slice(None))))


class TestExactNullCache:
    """Exact nulls against brute-force enumeration.  A call builds each
    distinct null once and keeps none, so a second pass repeats the first."""

    def wilcoxon_cases(self, rng):
        cases = []
        for _ in range(80):
            n = int(rng.integers(1, 13))
            # narrow integer draws: tied magnitudes and zero differences
            width = int(rng.choice([2, 4, 50]))
            cases.append(rng.integers(-width, width + 1, n).astype(np.float64))
        return cases

    def test_wilcoxon_equals_sign_pattern_enumeration_cold_and_warm(self, rng):
        cases = self.wilcoxon_cases(rng)
        want = [wilcoxon_brute_p_ge(d) if np.any(d) else None for d in cases]
        passes = []
        for _ in ("cold", "warm"):
            passes.append([])
            for d, p in zip(cases, want):
                res = wilcoxon_signed_rank_rows(d, np.zeros(d.size), method="exact")
                if p is None:
                    assert res.method[0] == "degenerate"
                else:
                    assert res.method[0] == "exact"
                    assert res.p_greater[0] == p
                passes[-1].append(field_bytes(res))
        assert passes[0] == passes[1]

    def test_mann_whitney_equals_split_enumeration_cold_and_warm(self, rng):
        cases = []
        for _ in range(40):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            pooled = rng.permutation(n + m).astype(np.float64)
            cases.append((pooled[:n], pooled[n:]))
        want = [mwu_brute_p_ge(x, y) for x, y in cases]
        passes = []
        for _ in ("cold", "warm"):
            passes.append([])
            for (x, y), p in zip(cases, want):
                res = mann_whitney_u_rows(x, y, method="exact")
                assert res.method[0] == "exact"
                assert res.p_greater[0] == p
                passes[-1].append(field_bytes(res))
        assert passes[0] == passes[1]

    def test_tail_is_suffix_sums_with_a_zero_past_the_end(self):
        assert stats._upper_tail([1, 2, 3, 4]) == (10, 9, 7, 4, 0)
        assert stats._upper_tail([5]) == (5, 0)
        # ranks {1, 2} doubled: sums 0, 2, 4, 6 over four sign patterns
        tail = stats._wilcoxon_exact_tail((2, 4))
        assert stats._p_ge(tail, 0) == 1.0
        assert stats._p_ge(tail, -3) == 1.0
        assert stats._p_ge(tail, 5) == 0.25
        assert stats._p_ge(tail, 6) == 0.25
        assert stats._p_ge(tail, 7) == 0.0

    def test_key_is_the_rank_multiset(self, count_builds):
        built = count_builds("_wilcoxon_exact_tail")
        # |d| ranks 4, 1, 2.5, 2.5 in two orders: one doubled-rank multiset
        a = wilcoxon_signed_rank_rows([3.0, 1.0, 2.0, -2.0], np.zeros(4), method="exact")
        b = wilcoxon_signed_rank_rows([-2.0, 2.0, 1.0, 3.0], np.zeros(4), method="exact")
        assert row_fields(a, 0) == row_fields(b, 0)
        assert built == [((2, 5, 5, 8),)] * 2  # one build per call
        # in one call, both rows share one build; a third multiset adds one
        d = [[3.0, 1.0, 2.0, -2.0], [-2.0, 2.0, 1.0, 3.0], [1.0, -2.0, 3.0, 4.0]]
        both = wilcoxon_signed_rank_rows(d, np.zeros((3, 4)), method="exact")
        assert row_fields(both, 0) == row_fields(both, 1) == row_fields(a, 0)
        assert sorted(built[2:]) == [((2, 4, 6, 8),), ((2, 5, 5, 8),)]


# --- average ranks -------------------------------------------------------------


def rank_row(values):
    """The average ranks of one 1-D row, from the stack function."""
    return stats._rank_rows(values[None])[0][0]


def loop_average_ranks(values):
    """The scalar loop the vectorised ranks replaced, kept as the reference."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [3.5],
            [np.nan],
            [2.0, 1.0, 2.0, 2.0, 0.5],
            [0.0, -0.0, 0.0, 1.0, -0.0],
            [np.nan, 1.0, np.nan, 1.0, np.inf, -np.inf, np.nan],
            [5.0] * 9,
        ],
    )
    def test_equals_the_loop_byte_for_byte(self, values):
        v = np.array(values, dtype=np.float64)
        assert rank_row(v).tobytes() == loop_average_ranks(v).tobytes()

    def test_strided_and_fortran_views(self, rng):
        grid = np.asfortranarray(rng.integers(0, 4, (7, 9)).astype(np.float64))
        views = [grid[2], grid[:, 3], grid.ravel(order="K")[::3], grid[::-1, 0]]
        for v in views:
            assert rank_row(v).tobytes() == loop_average_ranks(v).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf]) | st.floats(),
            max_size=40,
        )
    )
    def test_equals_the_loop_on_any_floats(self, values):
        v = np.array(values, dtype=np.float64)
        assert rank_row(v).tobytes() == loop_average_ranks(v).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(0, 30)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]) | st.floats(),
    )
)
def test_tie_sums_equal_the_unique_counts(rows):
    ties = stats._rank_rows(rows)[1]
    for row, got in zip(rows, ties.tolist()):
        counts = np.unique(row, return_counts=True)[1].astype(np.int64)
        assert got == int(np.sum(counts**3 - counts))


# --- direction swap, as a property -----------------------------------------------

# small ranges make tied values and zero differences common; wide ones
# reach the tie-free exact branch of the rank-sum test
sample_values = st.integers(-3, 3) | st.integers(-60, 60)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(sample_values, sample_values), min_size=1, max_size=30))
def test_wilcoxon_less_is_swapped_greater(pairs):
    x = np.array([a for a, _ in pairs], dtype=np.float64)
    y = np.array([b for _, b in pairs], dtype=np.float64)
    less = wilcoxon_signed_rank_rows(x, y)
    swapped = wilcoxon_signed_rank_rows(y, x)
    assert less.p_less[0] == swapped.p_greater[0]
    assert (less.method[0], less.n_effective[0]) == (swapped.method[0], swapped.n_effective[0])
    # W+ of (y, x) is W- of (x, y); W+ + W- sums the ranks 1..n_effective
    n = int(less.n_effective[0])
    assert less.statistic[0] + swapped.statistic[0] == n * (n + 1) / 2


@settings(max_examples=300, deadline=None)
@given(
    st.lists(sample_values, min_size=1, max_size=14),
    st.lists(sample_values, min_size=1, max_size=14),
)
def test_mann_whitney_less_is_swapped_greater(xs, ys):
    x, y = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
    less = mann_whitney_u_rows(x, y)
    swapped = mann_whitney_u_rows(y, x)
    assert less.p_less[0] == swapped.p_greater[0]
    assert (less.method[0], less.n_effective[0]) == (swapped.method[0], swapped.n_effective[0])
    assert less.statistic[0] + swapped.statistic[0] == x.size * y.size


# --- batched rows against one-row calls, both ways ------------------------------------


@st.composite
def row_stacks(draw):
    """A stack of sample pairs with sizes around the exact-null limits
    (signed-rank n_effective 25/26, rank-sum min(n, m) 10/11), ties and
    zero differences, plus a method."""
    paired = draw(st.booleans())
    rows = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 5, 24, 25, 26, 27] if paired else [1, 3, 9, 10, 11, 12]))
    m = n if paired else draw(st.sampled_from([1, 3, 9, 10, 11, 12, 30]))
    elements = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3, allow_nan=False)
    x = draw(arrays(np.float64, (rows, n), elements=elements, fill=st.nothing()))
    y = draw(arrays(np.float64, (rows, m), elements=elements, fill=st.nothing()))
    if paired and draw(st.booleans()):
        y[:, ::3] = x[:, ::3]
    return paired, x, y, draw(st.sampled_from(["auto", "exact", "normal"]))


@settings(max_examples=300, deadline=None)
@given(row_stacks())
def test_rows_equal_the_scalar_tests_in_both_directions(case):
    paired, x, y, method = case
    rows_test = wilcoxon_signed_rank_rows if paired else mann_whitney_u_rows
    try:
        want = [(rows_test(a, b, method), rows_test(b, a, method)) for a, b in zip(x, y)]
    except errors.BadParams as exc:  # an exact rank-sum null on tied data
        with pytest.raises(errors.BadParams, match=str(exc)):
            rows_test(x, y, method)
        return
    got = rows_test(x, y, method)
    for r, (forward, reverse) in enumerate(want):
        assert row_fields(got, r) == row_fields(forward, 0)
        assert got.p_less[r] == reverse.p_greater[0]
        assert (got.method[r], got.n_effective[r]) == (reverse.method[0], reverse.n_effective[0])


# --- Pearson -----------------------------------------------------------------


class TestPearsonFit:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = pearson_fit(x, -2.0 * x + 1.0)
        assert fit.r == pytest.approx(-1.0, abs=1e-12)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_degenerate(self):
        with pytest.raises(errors.DegenerateInput):
            pearson_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_constant_x_degenerate(self):
        with pytest.raises(errors.DegenerateInput):
            pearson_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_affine_invariance_of_r(self, rng):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        base = pearson_fit(x, y)
        scaled = pearson_fit(3.0 * x + 5.0, 0.5 * y - 2.0)
        assert scaled.r == pytest.approx(base.r, abs=1e-12)
        # slope transforms as slope' = slope * sy / sx under y' = sy*y, x' = sx*x
        assert scaled.slope == pytest.approx(base.slope * 0.5 / 3.0, abs=1e-12)

    def test_against_numpy_oracle(self, rng):
        x = rng.standard_normal(100)
        y = 0.3 * x + rng.standard_normal(100)
        fit = pearson_fit(x, y)
        r_np = np.corrcoef(x, y)[0, 1]
        slope_np, intercept_np = np.polyfit(x, y, 1)
        assert fit.r == pytest.approx(r_np, abs=1e-12)
        assert fit.slope == pytest.approx(slope_np, abs=1e-10)
        assert fit.intercept == pytest.approx(intercept_np, abs=1e-10)
