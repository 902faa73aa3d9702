from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regeval import errors, metrics, warp
from regeval.metrics import dsc, evaluate_pair, hd95, lncc, ndv, tre
from regeval.synth import FoldSlab, Svf, Translation, make_field
from regeval.volio import AffineHeader, DisplacementField, LandmarkSet, Volume

from conftest import (
    expression_box_sum,
    expression_ncc,
    expression_value_and_adjoint,
    identity_grid,
    per_slab_folded_volume_cells,
    traced_peak,
)
from test_warp import constant_field, field_from


def label_volume(data) -> Volume:
    data = np.asarray(data)
    return Volume(header=AffineHeader.isotropic(data.shape), kind="label", data=data.astype(np.int16))


def scalar_volume(data) -> Volume:
    data = np.asarray(data, dtype=np.float64)
    return Volume(header=AffineHeader.isotropic(data.shape), kind="scalar", data=data)


# --- independent oracles -----------------------------------------------------


def dsc_oracle(a: np.ndarray, b: np.ndarray, label: int):
    in_a = a == label
    in_b = b == label
    na, nb = int(np.sum(in_a)), int(np.sum(in_b))
    if na == 0 and nb == 0:
        return None
    return 2.0 * int(np.sum(in_a & in_b)) / (na + nb)


def boundary_oracle(mask: np.ndarray) -> np.ndarray:
    """Boundary voxels by explicit neighbor checks on a padded array."""
    padded = np.pad(mask, 1, constant_values=False)
    inner = padded[1:-1, 1:-1, 1:-1]
    neighbors_all_set = np.ones_like(mask, dtype=bool)
    for shift in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        rolled = padded[
            1 + shift[0] : padded.shape[0] - 1 + shift[0],
            1 + shift[1] : padded.shape[1] - 1 + shift[1],
            1 + shift[2] : padded.shape[2] - 1 + shift[2],
        ]
        neighbors_all_set &= rolled
    return mask & ~(neighbors_all_set & inner)


def percentile_oracle(values, q):
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * q / 100.0
    lo = int(np.floor(h))
    if lo == len(v) - 1:
        return v[lo]
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])


def hd95_oracle(a: np.ndarray, b: np.ndarray, label: int, spacing):
    """All-pairs boundary distances, no distance transform or tree."""
    ba = np.argwhere(boundary_oracle(a == label)) * np.asarray(spacing)
    bb = np.argwhere(boundary_oracle(b == label)) * np.asarray(spacing)
    d2 = np.sum((ba[:, None, :] - bb[None, :, :]) ** 2, axis=-1)
    d_ab = np.sqrt(d2.min(axis=1))
    d_ba = np.sqrt(d2.min(axis=0))
    return max(percentile_oracle(d_ab, 95.0), percentile_oracle(d_ba, 95.0))


def kdtree_hd95(a: np.ndarray, b: np.ndarray, label: int, spacing) -> float:
    """hd95 from querying every boundary point through cKDTree, both ways."""
    from scipy.spatial import cKDTree

    from regeval.stats import percentile

    pa = np.argwhere(boundary_oracle(a == label)) * np.asarray(spacing)
    pb = np.argwhere(boundary_oracle(b == label)) * np.asarray(spacing)
    return max(percentile(cKDTree(pb).query(pa)[0], 95.0), percentile(cKDTree(pa).query(pb)[0], 95.0))


def lncc_oracle(a: np.ndarray, b: np.ndarray, window: int, eps: float = 1e-5) -> float:
    r = window // 2
    dims = a.shape
    total = 0.0
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                sl = (
                    slice(max(0, i - r), min(dims[0], i + r + 1)),
                    slice(max(0, j - r), min(dims[1], j + r + 1)),
                    slice(max(0, k - r), min(dims[2], k + r + 1)),
                )
                wa = a[sl] - a[sl].mean()
                wb = b[sl] - b[sl].mean()
                total += np.sum(wa * wb) / np.sqrt((np.sum(wa * wa) + eps) * (np.sum(wb * wb) + eps))
    return total / a.size


def folded_volume_column_oracle(u_axis_profile: np.ndarray, n_columns: int) -> float:
    """Folded volume of an x-only deformation: reversed length per column."""
    psi = np.arange(u_axis_profile.size) + u_axis_profile
    d = np.diff(psi)
    return float(np.sum(np.maximum(0.0, -d))) * n_columns


# --- DSC ---------------------------------------------------------------------


class TestDsc:
    def test_identical_cube(self):
        data = np.zeros((5, 5, 5), dtype=np.int16)
        data[1:4, 1:4, 1:4] = 1
        vol = label_volume(data)
        per_label, mean = dsc(vol, vol, [1])
        assert per_label == {1: 1.0}
        assert mean == 1.0

    def test_disjoint_blocks(self):
        a = np.zeros((6, 6, 6), dtype=np.int16)
        b = np.zeros((6, 6, 6), dtype=np.int16)
        a[:2], b[4:] = 1, 1
        per_label, _ = dsc(label_volume(a), label_volume(b), [1])
        assert per_label == {1: 0.0}

    def test_shifted_bar(self):
        a = np.zeros((8, 1, 4), dtype=np.int16)
        a[0:4, 0, 0] = 1
        b = np.zeros((8, 1, 4), dtype=np.int16)
        b[2:6, 0, 0] = 1
        per_label, _ = dsc(label_volume(a), label_volume(b), [1])
        assert per_label[1] == dsc_oracle(a, b, 1) == 0.5

    def test_missing_and_one_sided_labels(self):
        a = np.zeros((4, 4, 4), dtype=np.int16)
        b = np.zeros((4, 4, 4), dtype=np.int16)
        a[0, 0, 0] = 2
        per_label, mean = dsc(label_volume(a), label_volume(b), [1, 2])
        assert per_label[1] is None  # absent everywhere
        assert per_label[2] == 0.0  # absent on one side
        assert mean == 0.0

    def test_symmetry(self, rng):
        a = rng.integers(0, 4, size=(6, 6, 6)).astype(np.int16)
        b = rng.integers(0, 4, size=(6, 6, 6)).astype(np.int16)
        pa, _ = dsc(label_volume(a), label_volume(b), [1, 2, 3])
        pb, _ = dsc(label_volume(b), label_volume(a), [1, 2, 3])
        assert pa == pb

    def test_matches_oracle_on_random_volumes(self, rng):
        for _ in range(10):
            a = rng.integers(0, 5, size=(8, 8, 8)).astype(np.int16)
            b = rng.integers(0, 5, size=(8, 8, 8)).astype(np.int16)
            per_label, _ = dsc(label_volume(a), label_volume(b), [1, 2, 3, 4])
            for lab in (1, 2, 3, 4):
                want = dsc_oracle(a, b, lab)
                assert per_label[lab] == want

    @pytest.mark.parametrize("orders", ["CC", "FF", "CF", "FC"])
    def test_memory_order_does_not_change_counts(self, rng, orders):
        a = rng.integers(0, 5, size=(7, 8, 9)).astype(np.int16)
        b = rng.integers(0, 5, size=(7, 8, 9)).astype(np.int16)
        lay = {"C": np.ascontiguousarray, "F": np.asfortranarray}
        fa, fb = label_volume(lay[orders[0]](a)), label_volume(lay[orders[1]](b))
        assert fa.data.flags[f"{orders[0]}_CONTIGUOUS"] and fb.data.flags[f"{orders[1]}_CONTIGUOUS"]
        per_label, _ = dsc(fa, fb, [1, 2, 3, 4])
        assert per_label == {lab: dsc_oracle(a, b, lab) for lab in (1, 2, 3, 4)}

    def test_empty_label_list(self):
        vol = label_volume(np.zeros((3, 3, 3)))
        with pytest.raises(errors.EmptyLabelList):
            dsc(vol, vol, [])

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            dsc(label_volume(np.zeros((3, 3, 3))), label_volume(np.zeros((4, 3, 3))), [1])

    def test_negative_label_id_is_bad_params(self):
        # counts[-2] would read from the end of the counts: the background's Dice
        seg = label_volume(np.zeros((3, 3, 3)))
        with pytest.raises(errors.BadParams, match="label ids must be non-negative, got -2"):
            dsc(seg, seg, [1, -2])
        with pytest.raises(errors.BadParams):
            evaluate_pair(metrics.FixedSide(seg, labels=[-2]), seg, constant_field((3, 3, 3), (0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("value, dtype", [(-1, np.int16), (1.5, np.float64), (np.nan, np.float64)])
    def test_values_bincount_refuses_are_invalid_label_data(self, value, dtype):
        data = np.ones((3, 3, 3), dtype=dtype)
        data[1, 2, 0] = value
        bad, good = Volume(header=AffineHeader.isotropic((3, 3, 3)), kind="label", data=data), label_volume(data == 1)
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(errors.InvalidLabelData, match="label volumes must hold non-negative integers"):
                dsc(a, b, [1])


# --- HD95 --------------------------------------------------------------------


class TestHd95:
    @settings(max_examples=200, deadline=None)
    @given(
        seg=st.tuples(*[st.integers(1, 7)] * 3).flatmap(
            lambda shape: arrays(np.int16, shape, elements=st.integers(0, 6))
        ),
        wanted=st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True),
        layout=st.sampled_from(["C", "F", "view"]),
    )
    def test_fixed_side_boundary_sets_match_the_oracle(self, seg, wanted, layout):
        # labels may be absent from seg, axes may be a single voxel thick, the
        # labels may be C-ordered, F-ordered or a strided view, and 40,000
        # lies beyond int16
        if layout == "F":
            seg = np.asfortranarray(seg)
        elif layout == "view":
            strided = np.zeros(seg.shape[:2] + (2 * seg.shape[2],), seg.dtype)
            strided[..., ::2] = seg
            seg = strided[..., ::2]
        wanted = wanted + [40_000]
        spacing = (2.0, 1.0, 0.5)
        header = AffineHeader(dims=seg.shape, spacing=spacing, affine=np.diag(spacing + (1.0,)))
        side = metrics.FixedSide(Volume(header=header, kind="label", data=seg), wanted)
        pmap, pos = side.boundary
        expected_map = np.full(pmap.shape, -1)
        for i, l in enumerate(wanted):
            expected = boundary_oracle(seg == l)
            padded = np.pad(expected, 1)
            expected_map[padded] = i
            assert np.array_equal(np.sort(pos[i]), np.flatnonzero(padded))
            if pos[i].size:
                points = side.tree(i).data[np.argsort(pos[i])]
                assert np.array_equal(points, np.argwhere(expected) * np.asarray(spacing))
        assert pos[-1].size == 0
        assert np.array_equal(pmap, expected_map)

    def test_identical_shapes_zero(self):
        data = np.zeros((8, 8, 8), dtype=np.int16)
        data[2:6, 2:6, 2:6] = 1
        vol = label_volume(data)
        assert hd95(vol, vol, 1) == 0.0

    def test_two_voxels_three_apart(self):
        a = np.zeros((8, 8, 8), dtype=np.int16)
        b = np.zeros((8, 8, 8), dtype=np.int16)
        a[2, 4, 4] = 1
        b[5, 4, 4] = 1
        assert hd95(label_volume(a), label_volume(b), 1) == pytest.approx(3.0, abs=1e-12)

    def test_one_sided_penalty_is_diagonal(self):
        a = np.zeros((32, 32, 32), dtype=np.int16)
        a[10:20, 10:20, 10:20] = 1
        b = np.zeros((32, 32, 32), dtype=np.int16)
        got = hd95(label_volume(a), label_volume(b), 1)
        assert got == pytest.approx(np.sqrt(3 * 31.0**2), abs=1e-12)

    def test_both_empty_missing(self):
        vol = label_volume(np.zeros((4, 4, 4)))
        assert hd95(vol, vol, 1) is None

    def test_spacing_scales_distances(self):
        a = np.zeros((8, 8, 8), dtype=np.int16)
        b = np.zeros((8, 8, 8), dtype=np.int16)
        a[2, 4, 4] = 1
        b[5, 4, 4] = 1
        got = hd95(label_volume(a), label_volume(b), 1, spacing=(2.0, 1.0, 1.0))
        assert got == pytest.approx(6.0, abs=1e-12)

    def test_symmetry(self, rng):
        a = (rng.random((10, 10, 10)) < 0.2).astype(np.int16)
        b = (rng.random((10, 10, 10)) < 0.2).astype(np.int16)
        va = hd95(label_volume(a), label_volume(b), 1)
        vb = hd95(label_volume(b), label_volume(a), 1)
        assert va == vb

    def test_matches_all_pairs_oracle(self, rng):
        for trial in range(8):
            a = np.zeros((12, 12, 12), dtype=np.int16)
            b = np.zeros((12, 12, 12), dtype=np.int16)
            ca = rng.integers(3, 9, size=3)
            cb = rng.integers(3, 9, size=3)
            ra, rb = rng.integers(2, 4), rng.integers(2, 4)
            grid = np.indices((12, 12, 12))
            a[np.sum((grid - ca[:, None, None, None]) ** 2, axis=0) <= ra**2] = 1
            b[np.sum((grid - cb[:, None, None, None]) ** 2, axis=0) <= rb**2] = 1
            if not a.any() or not b.any():
                continue
            spacing = (1.0, 1.25, 0.75)
            got = hd95(label_volume(a), label_volume(b), 1, spacing=spacing)
            want = hd95_oracle(a, b, 1, spacing)
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(*[st.integers(2, 12)] * 3),
        flip=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
        spacing=st.tuples(*[st.sampled_from([1.0, 0.7, 1.3, 0.9375, 2.0])] * 3),
    )
    def test_equals_querying_every_point_bit_for_bit(self, seed, dims, flip, spacing):
        # boundary voxels on both sides are not queried; the distances and
        # percentiles must be those of querying every point both ways
        from scipy.spatial import cKDTree

        from regeval.stats import percentile

        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=dims)
        b = np.where(rng.random(dims) < flip, rng.integers(0, 3, size=dims), a)
        sp = np.asarray(spacing)
        for label in (1, 2):
            pa = np.argwhere(boundary_oracle(a == label)) * sp
            pb = np.argwhere(boundary_oracle(b == label)) * sp
            got = hd95(label_volume(a), label_volume(b), label, spacing=spacing)
            if len(pa) == 0 or len(pb) == 0:
                continue
            want = max(
                percentile(cKDTree(pb).query(pa)[0], 95.0),
                percentile(cKDTree(pa).query(pb)[0], 95.0),
            )
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(*[st.integers(3, 16)] * 3),
        shift=st.integers(0, 12),
        axis=st.integers(0, 2),
        spacing=st.sampled_from([(0.7, 1.3, 0.9375), (1.3, 0.9375, 0.7), (1.0, 1.0, 1.0)]),
    )
    def test_probe_and_fallback_equal_querying_every_point_bit_for_bit(
        self, seed, dims, shift, axis, spacing
    ):
        # balls that may cross the grid edge, one-voxel labels, label values
        # above int16, and a copy rolled by up to 12 voxels: past the 3x3x3
        # box and the probe's budget, so the KD-tree fallback runs too
        rng = np.random.default_rng(seed)
        grid = np.indices(dims)
        a = np.zeros(dims, dtype=np.int32)
        for value in (1, 40_000, 70_000):
            center = rng.uniform(-2.0, np.asarray(dims) + 1.0)
            radius = rng.uniform(0.5, 5.0)
            a[np.sum((grid - center[:, None, None, None]) ** 2, axis=0) <= radius**2] = value
        b = np.roll(a, shift, axis=axis)
        for vol, value in ((a, 5), (b, 5), (a, 33_000), (b, 33_000)):
            vol[tuple(rng.integers(0, dims))] = value
        labels = [1, 5, 33_000, 40_000, 70_000]
        header = AffineHeader(dims=dims, spacing=spacing, affine=np.diag(spacing + (1.0,)))
        fixed = metrics.FixedSide(Volume(header=header, kind="label", data=a), labels)
        got = metrics._hd95_many(fixed, Volume(header=header, kind="label", data=b))
        assert list(got) == labels
        for label in labels:
            in_a, in_b = (a == label).any(), (b == label).any()
            if not in_a and not in_b:
                assert got[label] is None
            elif in_a != in_b:
                assert got[label] == metrics._diagonal_mm(dims, spacing)
            else:
                assert got[label] == kdtree_hd95(a, b, label, spacing)

    def test_far_points_fall_back_to_the_trees(self, monkeypatch):
        # a ball rolled 6 voxels: most points lie beyond the box, and the
        # rings would cost more than the budget, so the trees answer them
        built = []
        tree = metrics.FixedSide.tree
        monkeypatch.setattr(metrics.FixedSide, "tree", lambda side, label: built.append(label) or tree(side, label))
        grid = np.indices((20, 20, 20))
        a = (np.sum((grid - 9.5) ** 2, axis=0) <= 5.0**2).astype(np.int16)
        b = np.roll(a, 6, axis=0)
        spacing = (0.7, 1.3, 0.9375)
        assert hd95(label_volume(a), label_volume(b), 1, spacing=spacing) == kdtree_hd95(a, b, 1, spacing)
        assert len(built) == 2  # one tree per direction

    def test_query_threads_one_per_pool_worker_and_same_distance(self, rng):
        # a lone process queries on every CPU; a pool worker, whose siblings
        # already use the other CPUs, on one thread; the value is the same
        a = (rng.random((16, 16, 16)) < 0.3).astype(np.int16)
        b = (rng.random((16, 16, 16)) < 0.3).astype(np.int16)
        fixed, warped = label_volume(a), label_volume(b)
        with ProcessPoolExecutor(max_workers=1) as pool:
            in_worker = pool.submit(metrics._query_workers).result()
            worker_hd95 = pool.submit(hd95, fixed, warped, 1).result()
        assert metrics._query_workers() == -1
        assert in_worker == 1
        assert worker_hd95 == hd95(fixed, warped, 1)


# --- TRE ---------------------------------------------------------------------


class TestTre:
    def test_memory_stays_small(self, rng):
        # a 64**3 field read back from NIfTI (F order) and 120 landmarks
        u = np.reshape(rng.uniform(-3.0, 3.0, 64**3 * 3), (64, 64, 64, 3), order="F")
        names = tuple(f"L{i}" for i in range(120))
        lm = LandmarkSet(names=names, points=rng.uniform(0.0, 63.0, size=(120, 3)))
        distances, peak = traced_peak(lambda: tre(lm, lm, field_from(u)))
        assert len(distances) == 120
        assert peak < 2**20

    def test_three_four_five(self):
        dims = (20, 20, 20)
        phi = DisplacementField.zero(AffineHeader.isotropic(dims))
        lm_f = LandmarkSet(names=("A",), points=np.array([[10.0, 10.0, 10.0]]))
        lm_m = LandmarkSet(names=("A",), points=np.array([[13.0, 14.0, 10.0]]))
        assert tre(lm_f, lm_m, phi)[0] == pytest.approx(5.0, abs=1e-12)

    def test_exact_constant_field_gives_zero(self):
        dims = (20, 20, 20)
        phi = constant_field(dims, (3.0, 4.0, 0.0))
        lm_f = LandmarkSet(names=("A",), points=np.array([[10.0, 10.0, 10.0]]))
        lm_m = LandmarkSet(names=("A",), points=np.array([[13.0, 14.0, 10.0]]))
        assert tre(lm_f, lm_m, phi)[0] == 0.0

    def test_fractional_point_in_linear_field(self):
        dims = (20, 20, 20)
        data = np.zeros(dims + (3,))
        data[..., 0] = 0.1 * np.arange(20, dtype=np.float64)[:, None, None]
        phi = field_from(data)
        lm_f = LandmarkSet(names=("A",), points=np.array([[10.5, 10.0, 10.0]]))
        lm_m = LandmarkSet(names=("A",), points=np.array([[10.5, 10.0, 10.0]]))
        # warped x-position is 10.5 + 1.05; the analytic offset is 1.05 mm
        got = tre(lm_f, lm_m, phi)[0]
        assert got == pytest.approx(1.05, abs=1e-12)

    def test_spacing_anisotropy(self):
        dims = (20, 20, 20)
        phi = DisplacementField.zero(AffineHeader.isotropic(dims))
        lm_f = LandmarkSet(names=("A",), points=np.array([[5.0, 5.0, 5.0]]))
        lm_m = LandmarkSet(names=("A",), points=np.array([[6.0, 5.0, 5.0]]))
        assert tre(lm_f, lm_m, phi, spacing=(2.5, 1.0, 1.0))[0] == pytest.approx(2.5)

    def test_name_invariance_and_pairing(self):
        dims = (10, 10, 10)
        phi = DisplacementField.zero(AffineHeader.isotropic(dims))
        pts_f = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        pts_m = pts_f + 1.0
        a = tre(LandmarkSet(names=("p", "q"), points=pts_f), LandmarkSet(names=("p", "q"), points=pts_m), phi)
        b = tre(LandmarkSet(names=("u", "v"), points=pts_f), LandmarkSet(names=("u", "v"), points=pts_m), phi)
        assert np.array_equal(a, b)
        with pytest.raises(errors.UnpairedLandmarks):
            tre(
                LandmarkSet(names=("p", "q"), points=pts_f),
                LandmarkSet(names=("q", "p"), points=pts_m),
                phi,
            )

    def test_out_of_bounds_landmark(self):
        dims = (10, 10, 10)
        phi = DisplacementField.zero(AffineHeader.isotropic(dims))
        lm_f = LandmarkSet(names=("A",), points=np.array([[11.0, 5.0, 5.0]]))
        lm_m = LandmarkSet(names=("A",), points=np.array([[5.0, 5.0, 5.0]]))
        with pytest.raises(errors.OutOfBoundsLandmark):
            tre(lm_f, lm_m, phi)

    def test_translation_equivariance(self, rng):
        # shifting both landmark sets under a constant field leaves TRE alone
        dims = (30, 30, 30)
        t = np.array([1.5, -0.5, 2.0])
        phi = constant_field(dims, tuple(t))
        names = ("a", "b", "c")
        pts_f = rng.uniform(8.0, 16.0, size=(3, 3))
        pts_m = rng.uniform(8.0, 16.0, size=(3, 3))
        base = tre(LandmarkSet(names=names, points=pts_f), LandmarkSet(names=names, points=pts_m), phi)
        delta = np.array([2.0, 3.0, -1.0])
        shifted = tre(
            LandmarkSet(names=names, points=pts_f + delta),
            LandmarkSet(names=names, points=pts_m + delta),
            phi,
        )
        assert np.allclose(base, shifted, atol=1e-12)


# --- NDV ---------------------------------------------------------------------


class TestNdv:
    def test_identity_zero(self):
        dims = (16, 16, 16)
        phi = DisplacementField.zero(AffineHeader.isotropic(dims))
        mask = np.ones(dims, dtype=np.int16)
        assert ndv(phi, mask) == 0.0

    def test_uniform_expansion_zero(self):
        dims = (16, 16, 16)
        data = np.zeros(dims + (3,))
        for axis in range(3):
            shape = [1, 1, 1]
            shape[axis] = dims[axis]
            data[..., axis] = (0.5 * np.arange(dims[axis], dtype=np.float64)).reshape(shape)
        phi = field_from(data)
        assert ndv(phi, np.ones(dims, dtype=np.int16)) == 0.0

    def test_fold_slab_matches_column_oracle(self):
        dims = (64, 64, 64)
        phi, facts = make_field(FoldSlab(axis=0, center=30.0, width=2.0), dims)
        mask = np.ones(dims, dtype=np.int16)
        got = ndv(phi, mask)
        want_fraction = facts["folded_volume"] / float(np.prod(dims))
        assert got == pytest.approx(want_fraction, rel=1e-9)
        # cross-check against an independent per-column signed-length oracle
        profile = phi.data[:, 0, 0, 0]
        oracle = folded_volume_column_oracle(profile, 63 * 63) / float(np.prod(dims))
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_fold_slab_off_axis(self):
        dims = (24, 32, 40)
        phi, facts = make_field(FoldSlab(axis=2, center=15.0, width=3.0), dims)
        got = ndv(phi, np.ones(dims, dtype=np.int16))
        assert got == pytest.approx(facts["folded_volume"] / float(np.prod(dims)), rel=1e-9)

    def test_brute_force_tetrahedra_on_random_field(self, rng):
        # independent slow path: loop over cells, explicit 6-tet signed volumes
        dims = (5, 5, 5)
        u = rng.uniform(-1.2, 1.2, size=dims + (3,))
        phi = field_from(u)
        got = ndv(phi, np.ones(dims, dtype=np.int16))

        grid = np.indices(dims).transpose(1, 2, 3, 0).astype(np.float64)
        psi = grid + u
        chains = [
            ((0,), (0, 1), 1.0),
            ((0,), (0, 2), -1.0),
            ((1,), (0, 1), -1.0),
            ((1,), (1, 2), 1.0),
            ((2,), (0, 2), 1.0),
            ((2,), (1, 2), -1.0),
        ]
        offset_of = {
            (0,): (1, 0, 0),
            (1,): (0, 1, 0),
            (2,): (0, 0, 1),
            (0, 1): (1, 1, 0),
            (0, 2): (1, 0, 1),
            (1, 2): (0, 1, 1),
        }
        folded = 0.0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    p0 = psi[i, j, k]
                    p7 = psi[i + 1, j + 1, k + 1]
                    for first, second, sign in chains:
                        o1, o2 = offset_of[first], offset_of[second]
                        p1 = psi[i + o1[0], j + o1[1], k + o1[2]]
                        p2 = psi[i + o2[0], j + o2[1], k + o2[2]]
                        m = np.stack([p1 - p0, p2 - p0, p7 - p0])
                        vol6 = sign * np.linalg.det(m) / 6.0
                        if vol6 < 0:
                            folded -= vol6
        assert got == pytest.approx(folded / 125.0, rel=1e-9)

    def test_svf_field_is_unfolded(self):
        dims = (48, 48, 48)
        phi, facts = make_field(Svf(seed=11, amplitude=2.0), dims)
        assert ndv(phi, np.ones(dims, dtype=np.int16)) < facts["ndv_bound"]

    def test_mask_restriction(self):
        dims = (32, 32, 32)
        phi, facts = make_field(FoldSlab(axis=0, center=4.0, width=2.0), dims)
        # mask far away from the slab sees no folding
        mask = np.zeros(dims, dtype=np.int16)
        mask[20:30, :, :] = 1
        assert ndv(phi, mask) == 0.0

    def test_empty_mask(self):
        dims = (8, 8, 8)
        phi = DisplacementField.zero(AffineHeader.isotropic(dims))
        with pytest.raises(errors.EmptyMask):
            ndv(phi, np.zeros(dims, dtype=np.int16))


# The full-grid NDV that computes every cell and masks afterwards, as
# metrics.ndv did before it computed only the cells touching the mask.
_KUHN_PAIRS_ORACLE = (((1, 1, 0), 0, 1), ((1, 0, 1), 2, 0), ((0, 1, 1), 1, 2))
_AXIS_OFFSETS_ORACLE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _folded_volume_chunk_oracle(psi_comps, cell_mask):
    sx1, ny, nz = psi_comps[0].shape

    def corner(comp, offset):
        ox, oy, oz = offset
        return psi_comps[comp][ox : sx1 - 1 + ox, oy : ny - 1 + oy, oz : nz - 1 + oz]

    c000 = [corner(c, (0, 0, 0)) for c in range(3)]
    w = [corner(c, (1, 1, 1)) - c000[c] for c in range(3)]
    axis_delta = [[corner(c, off) - c000[c] for c in range(3)] for off in _AXIS_OFFSETS_ORACLE]
    folded = np.zeros(cell_mask.shape, dtype=np.float64)
    for edge_offset, first_a, first_b in _KUHN_PAIRS_ORACLE:
        e = [corner(c, edge_offset) - c000[c] for c in range(3)]
        cx = e[1] * w[2] - e[2] * w[1]
        cy = e[2] * w[0] - e[0] * w[2]
        cz = e[0] * w[1] - e[1] * w[0]
        for sign, first in ((1.0, first_a), (-1.0, first_b)):
            d1 = axis_delta[first]
            det = d1[0] * cx + d1[1] * cy + d1[2] * cz
            signed = det if sign > 0 else -det
            np.minimum(signed, 0.0, out=signed)
            folded -= signed
    return float(np.sum(folded[cell_mask])) / 6.0


def full_grid_ndv_oracle(u: np.ndarray, mdata: np.ndarray) -> float:
    dims = mdata.shape
    axes = [np.arange(dims[c], dtype=np.float64) for c in range(3)]
    psi_comps = [
        u[..., 0] + axes[0][:, None, None],
        u[..., 1] + axes[1][None, :, None],
        u[..., 2] + axes[2][None, None, :],
    ]
    m = mdata > 0
    cm = (
        m[:-1, :-1, :-1] | m[1:, :-1, :-1] | m[:-1, 1:, :-1] | m[:-1, :-1, 1:]
        | m[1:, 1:, :-1] | m[1:, :-1, 1:] | m[:-1, 1:, 1:] | m[1:, 1:, 1:]
    )
    folded = 0.0
    slab = max(1, int(2**19 // (dims[1] * dims[2] + 1)))
    for x0 in range(0, dims[0] - 1, slab):
        x1 = min(x0 + slab, dims[0] - 1)
        folded += _folded_volume_chunk_oracle([c[x0 : x1 + 1] for c in psi_comps], cm[x0:x1])
    return folded / float(np.count_nonzero(mdata))


@st.composite
def folded_fields_and_masks(draw):
    dims = tuple(draw(st.integers(2, 7)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(-1.0, 1.0, size=dims + (3,)) * draw(st.sampled_from([0.3, 0.8, 1.5]))
    # -1 is nonzero (counted in the normalizer) but not > 0 (no cell)
    mask = np.where(rng.random(dims) < draw(st.floats(0.0, 1.0)), rng.integers(-1, 3, dims), 0)
    if draw(st.booleans()):
        for axis in range(3):
            for end in (0, dims[axis] - 1):
                face = [slice(None)] * 3
                face[axis] = end
                mask[tuple(face)] = 1
    return u, mask.astype(np.int16)


@st.composite
def fold_free_fields_and_masks(draw):
    """Fields that NDV's certificate proves fold-free plane by plane, some
    with a local fold in a few planes, offsets up to and beyond the |u|
    guard, perhaps one NaN; C- or F-ordered, on grids with an axis of 1 or 2."""
    dims = [draw(st.integers(2, 8)) for _ in range(3)]
    if draw(st.integers(0, 9)) == 0:
        dims[draw(st.integers(0, 2))] = 1
    dims = tuple(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(-1.0, 1.0, size=dims + (3,)) * draw(st.floats(0.02, 0.15))
    for x in draw(st.lists(st.integers(0, dims[0] - 1), max_size=2)):
        u[x, rng.integers(dims[1]), rng.integers(dims[2])] += rng.uniform(-2.0, 2.0, 3)
    u += draw(st.sampled_from([0.0, 1e6, 1e13, 2.0**40 + 0.3]))
    if draw(st.integers(0, 7)) == 0:
        u[tuple(rng.integers(n) for n in (*dims, 3))] = np.nan
    if draw(st.booleans()):
        u = np.asfortranarray(u)
    mask = np.where(rng.random(dims) < draw(st.floats(0.2, 1.0)), rng.integers(-1, 3, dims), 0)
    mask[tuple(rng.integers(n) for n in dims)] = 1
    return u, mask.astype(np.int16)


def same_float(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


B = warp._BLOCK


class TestNdvMaskedCells:
    @settings(max_examples=150, deadline=None)
    @given(case=folded_fields_and_masks())
    def test_equals_full_grid_oracle_bit_for_bit(self, case):
        u, mask = case
        phi = field_from(u)
        if not np.any(mask):
            with pytest.raises(errors.EmptyMask):
                ndv(phi, mask)
            return
        want = full_grid_ndv_oracle(u, mask)
        assert ndv(phi, mask) == want
        assert ndv(phi, metrics.NdvMask(mask, phi.dims)) == want

    def test_multi_slab_equals_oracle_bit_for_bit(self, rng):
        dims = (5, 400, 330)  # ny * nz > 2**17: three x cells per slab, two slabs
        assert dims[1] * dims[2] > 2**17
        u = rng.uniform(-1.2, 1.2, size=dims + (3,))
        mask = (rng.random(dims) < 0.3).astype(np.int16)
        cells = metrics.NdvMask(mask, dims)
        assert [(x0, x1) for x0, x1, _ in cells.slabs] == [(0, 3), (3, 4)]
        got = ndv(field_from(u), cells)
        assert got > 0.0
        assert got == full_grid_ndv_oracle(u, mask)
        with pytest.MonkeyPatch.context() as mp:  # each slab's cells at once
            mp.setattr(metrics, "_folded_volume_cells", per_slab_folded_volume_cells)
            assert ndv(field_from(u), cells) == got

    @pytest.mark.parametrize("n_cells", [B - 1, B, B + 1, 2 * B + 3])
    def test_chunks_equal_the_per_slab_formula(self, rng, n_cells):
        # chunks of warp._BLOCK cells: one short of a chunk, one, one and a cell, and a tail
        dims = (12, 40, 41)
        u = rng.uniform(-1.2, 1.2, size=dims + (3,))  # folds
        psi_flat = [(u[..., a] + identity_grid(dims)[..., a]).ravel() for a in range(3)]
        i, j, k = np.nonzero(np.ones((dims[0] - 1, dims[1] - 1, dims[2] - 1), dtype=bool))
        cells = np.sort(rng.choice((i * dims[1] + j) * dims[2] + k, n_cells, replace=False))
        got = metrics._folded_volume_cells(psi_flat, cells, dims[1], dims[2])
        assert got.shape == cells.shape and np.sum(got) > 0.0
        assert got.tobytes() == per_slab_folded_volume_cells(psi_flat, cells, dims[1], dims[2]).tobytes()

    def test_prepared_mask_for_another_grid_rejected(self):
        phi = DisplacementField.zero(AffineHeader.isotropic((6, 6, 6)))
        with pytest.raises(errors.DimMismatch):
            ndv(phi, metrics.NdvMask(np.ones((6, 6, 5), dtype=np.int16), (6, 6, 5)))


class TestNdvCertificate:
    @settings(max_examples=200, deadline=None)
    @given(case=fold_free_fields_and_masks())
    def test_equals_full_grid_oracle_bit_for_bit(self, case):
        u, mask = case
        assert same_float(ndv(field_from(u), mask), full_grid_ndv_oracle(u, mask))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.sampled_from([0.9, 0.9 - 1e-9]),
        kind=st.sampled_from(["compression", "linear", "alternating", "random"]),
        fortran=st.booleans(),
    )
    def test_an_edge_bound_of_q_folds_nothing(self, seed, q, kind, fortran):
        # the lemma: sum_c |du_c| <= q < 1 on every edge leaves every
        # tetrahedron positive; u = -q x is its worst case, volume (1 - q)**3
        rng = np.random.default_rng(seed)
        dims = (7, 6, 5)
        p = np.indices(dims, dtype=np.float64)
        if kind in ("compression", "linear"):
            # column a of m is du along axis a; each column's L1 norm is q
            m = -q * np.eye(3)
            if kind == "linear":
                m = rng.dirichlet(np.ones(3), 3).T * q * rng.choice([-1.0, 1.0], (3, 3))
            u = np.einsum("ca,a...->...c", m, p)
        else:
            # per component, values within w_c / 2 of 0 (alternating: exactly
            # +-w_c / 2 by the parity of x + y + z), and sum_c w_c = q
            w = rng.dirichlet(np.ones(3)) * q
            half = (-1.0) ** p.sum(axis=0) if kind == "alternating" else rng.uniform(-1.0, 1.0, dims)
            u = np.stack([w[c] / 2 * half * rng.choice([-1.0, 1.0]) for c in range(3)], axis=-1)
        u = np.asfortranarray(u) if fortran else u
        mask = np.ones(dims, dtype=np.int16)
        assert full_grid_ndv_oracle(u, mask) == 0.0
        assert ndv(field_from(u), mask) == 0.0
        if q < 0.9:
            assert metrics._fold_free_planes(u).all()

    @pytest.mark.parametrize("dims", [(1, 5, 5), (5, 1, 5), (5, 5, 1), (2, 5, 5), (5, 2, 5), (5, 5, 2), (2, 2, 2)])
    def test_degenerate_grids_equal_the_oracle(self, rng, dims):
        for scale in (0.05, 1.5):
            u = rng.uniform(-scale, scale, size=dims + (3,))
            mask = np.ones(dims, dtype=np.int16)
            assert ndv(field_from(u), mask) == full_grid_ndv_oracle(u, mask)

    def test_only_unproved_planes_reach_the_kernel(self, rng, monkeypatch):
        dims = (12, 9, 8)
        u = rng.uniform(-0.05, 0.05, size=dims + (3,))
        u[6, 4, 4] += (1.5, -1.5, 0.0)  # a fold in cell planes 5 and 6
        assert metrics._fold_free_planes(u).tolist() == [x not in (5, 6) for x in range(11)]
        seen = []
        kernel = metrics._folded_volume_cells
        monkeypatch.setattr(
            metrics, "_folded_volume_cells", lambda psi, cells, ny, nz: seen.append(cells.size) or kernel(psi, cells, ny, nz)
        )
        mask = np.ones(dims, dtype=np.int16)
        got = ndv(field_from(u), mask)
        assert seen == [2 * 8 * 7]
        assert got > 0.0 and got == full_grid_ndv_oracle(u, mask)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_y_and_z_edges_count_on_both_corner_planes(self, axis):
        # only corner plane 3 alternates +-0.6 along the axis: its x-edges
        # stay at 0.6, but its edges along the axis reach 1.2 and invert
        dims = (6, 6, 6)
        u = np.zeros(dims + (3,))
        u[3, ..., axis] = 0.6 * (-1.0) ** np.indices(dims[1:])[axis - 1]
        assert metrics._fold_free_planes(u).tolist() == [True, True, False, False, True]
        mask = np.ones(dims, dtype=np.int16)
        got = ndv(field_from(u), mask)
        assert got > 0.0 and got == full_grid_ndv_oracle(u, mask)

    def test_bound_is_taken_over_the_counted_cells_box(self, rng):
        dims = (8, 10, 9)
        u = rng.uniform(-0.05, 0.05, size=dims + (3,))
        u[:, 0] = 50.0  # folds only in cells that touch y = 0, which the mask leaves out
        mask = np.zeros(dims, dtype=np.int16)
        mask[2:6, 3:7, 2:8] = 1
        cells = metrics.NdvMask(mask, dims)
        assert cells.box == (slice(1, 7), slice(2, 8), slice(1, 9))
        assert metrics._fold_free_planes(u[cells.box]).all()
        assert ndv(field_from(u), cells) == full_grid_ndv_oracle(u, mask) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0**20, 1e13])
    def test_non_finite_or_large_values_are_not_proved(self, value):
        u = np.zeros((6, 5, 5, 3))
        u[3, 0, 0, 1] = value  # the first corner of cell planes 3 (and 2 by its edges)
        assert metrics._fold_free_planes(u).tolist() == [True, True, False, False, True]
        mask = np.ones((6, 5, 5), dtype=np.int16)
        with np.errstate(invalid="ignore"):  # inf - inf in the tetrahedra
            assert same_float(ndv(field_from(u), mask), full_grid_ndv_oracle(u, mask))

    @pytest.mark.parametrize("offset, proved", [(1e6, True), (2.0**20 - 9.0, True), (2.0**20 - 8.9, False), (2.0**20, False)])
    def test_the_guard_keeps_u_within_2_to_the_20(self, offset, proved):
        # a constant field: the guard is |u| at a plane's first corner
        # <= 2**20 - 0.9 * (5 + 5)
        u = np.full((6, 5, 5, 3), offset)
        assert metrics._fold_free_planes(u).tolist() == [proved] * 5
        assert ndv(field_from(u), np.ones((6, 5, 5), dtype=np.int16)) == 0.0


# --- LNCC --------------------------------------------------------------------


class TestLncc:
    def test_self_similarity_near_one(self, rng):
        a = scalar_volume(rng.standard_normal((12, 12, 12)))
        assert lncc(a, a, window=5) == pytest.approx(1.0, abs=1e-3)

    def test_sign_flip_near_minus_one(self, rng):
        data = rng.standard_normal((12, 12, 12))
        a = scalar_volume(data)
        b = scalar_volume(-data)
        assert lncc(a, b, window=5) == pytest.approx(-1.0, abs=1e-3)

    def test_matches_sliding_window_oracle(self, rng):
        a = rng.standard_normal((16, 16, 16))
        b = rng.standard_normal((16, 16, 16))
        got = lncc(scalar_volume(a), scalar_volume(b), window=9)
        want = lncc_oracle(a, b, 9)
        assert got == pytest.approx(want, abs=1e-9)

    def test_affine_intensity_invariance(self, rng):
        data = rng.standard_normal((10, 10, 10))
        a = scalar_volume(data)
        b = scalar_volume(3.0 * data + 7.0)
        assert lncc(a, b, window=5) == pytest.approx(1.0, abs=1e-3)

    def test_even_window_rejected(self, rng):
        a = scalar_volume(rng.standard_normal((4, 4, 4)))
        with pytest.raises(errors.BadParams, match="window must be a positive odd integer, got 4"):
            lncc(a, a, window=4)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(3, 11)] * 3),
        window=st.sampled_from([3, 5, 9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_is_the_gradient_pass_value_bit_for_bit(self, dims, window, seed):
        # the optimizer's line search (value) and its gradient pass
        # (value_and_adjoint) must see the same loss for the same image
        rng = np.random.default_rng(seed)
        terms = metrics._LnccTerms(rng.standard_normal(dims), window)
        w = rng.standard_normal(dims)
        assert terms.value(w) == terms.value_and_adjoint(w)[0]


def cumsum_take_box_sum(x: np.ndarray, r: int) -> np.ndarray:
    """The box sum by np.cumsum into a zero-led array and two np.take calls
    per axis: the order of additions metrics._box_sum must keep."""
    out = x
    for axis in range(3):
        n = out.shape[axis]
        c = np.zeros((*out.shape[:axis], n + 1, *out.shape[axis + 1 :]), dtype=np.float64)
        tail = [slice(None)] * 3
        tail[axis] = slice(1, n + 1)
        np.cumsum(out, axis=axis, out=c[tuple(tail)])
        hi = np.minimum(np.arange(n) + r, n - 1) + 1
        lo = np.maximum(np.arange(n) - r, 0)
        out = np.take(c, hi, axis=axis) - np.take(c, lo, axis=axis)
    return out


class TestBoxSum:
    @pytest.mark.parametrize(
        "shape, r",
        [((5, 7, 3), 4), ((5, 7, 3), 9), ((5, 7, 3), 0), ((1, 1, 1), 2), ((2, 9, 1), 1),
         ((16, 12, 10), 4), ((16, 12, 10), 0)],
    )
    def test_equals_cumsum_and_take_bit_for_bit(self, rng, shape, r):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        x.flat[0] = -0.0  # a leading negative zero survives, as in np.cumsum
        want = cumsum_take_box_sum(x, r)
        for data in (x, np.asfortranarray(x)):
            got = metrics._box_sum(data, r)
            assert got.shape == shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


_SMALL_DIMS = st.tuples(*[st.integers(1, 9)] * 3)
_WINDOWS = st.sampled_from([1, 3, 5, 7, 9])


class TestInPlaceLnccTerms:
    """The box sum and the LNCC terms form their arrays in place; their bytes
    must be those of the expression forms in conftest, for C and F input."""

    @settings(max_examples=150, deadline=None)
    @given(dims=_SMALL_DIMS, window=_WINDOWS, order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
    def test_box_sum_matches_its_expression_form(self, dims, window, order, seed):
        x = np.asarray(np.random.default_rng(seed).standard_normal(dims), order=order)
        before = x.copy()
        got = metrics._box_sum(x, window // 2)
        assert got.flags.c_contiguous and got.shape == dims
        assert got.tobytes() == expression_box_sum(x, window // 2).tobytes()
        assert x.tobytes() == before.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(dims=_SMALL_DIMS, window=_WINDOWS, order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
    def test_ncc_and_adjoint_match_their_expression_forms(self, dims, window, order, seed):
        rng = np.random.default_rng(seed)
        fdata = np.asarray(rng.standard_normal(dims) * 3.0 + 1.0, order=order)
        w = np.asarray(rng.standard_normal(dims), order=order)
        before = w.copy()
        terms = metrics._LnccTerms(fdata, window)
        for got, want in zip(terms._ncc(w), expression_ncc(terms, w), strict=True):
            assert got.tobytes() == want.tobytes()
        value, dw = terms.value_and_adjoint(w)
        want_value, want_dw = expression_value_and_adjoint(terms, w)
        assert value == want_value and dw.tobytes() == want_dw.tobytes()
        assert w.tobytes() == before.tobytes()


# --- evaluate_pair -----------------------------------------------------------


class TestEvaluatePair:
    def test_identity_on_identical_segmentation(self):
        data = np.zeros((10, 10, 10), dtype=np.int16)
        data[2:8, 2:8, 2:8] = 1
        data[4:6, 4:6, 4:6] = 2
        seg = label_volume(data)
        report = evaluate_pair(seg, seg, DisplacementField.zero(seg.header))
        assert report.dsc_mean == 1.0
        assert report.hd95_mean == 0.0
        assert report.ndv == 0.0
        assert report.tre_mean is None

    def test_translation_pair_recovers_truth(self):
        dims = (24, 24, 24)
        data = np.zeros(dims, dtype=np.int16)
        data[8:16, 8:16, 8:16] = 1
        fixed = label_volume(data)
        shift = np.roll(data, -2, axis=0)  # moving = fixed shifted by -2 in x
        moving = label_volume(shift)
        phi, _ = make_field(Translation((-2.0, 0.0, 0.0)), dims)
        lm_f = LandmarkSet(names=("c",), points=np.array([[12.0, 12.0, 12.0]]))
        lm_m = LandmarkSet(names=("c",), points=np.array([[10.0, 12.0, 12.0]]))
        report = evaluate_pair(fixed, moving, phi, landmarks=(lm_f, lm_m))
        assert report.dsc_mean == 1.0
        assert report.tre_mean == 0.0

    def test_zero_displacement_equals_direct_overlap(self, rng):
        dims = (16, 16, 16)
        a = rng.integers(0, 4, size=dims).astype(np.int16)
        b = rng.integers(0, 4, size=dims).astype(np.int16)
        fixed, moving = label_volume(a), label_volume(b)
        labels = [1, 2, 3]
        side = metrics.FixedSide(fixed, labels)
        report = evaluate_pair(side, moving, DisplacementField.zero(fixed.header))
        for lab in labels:
            assert report.dsc_per_label[lab] == dsc_oracle(a, b, lab)
            assert report.hd95_per_label[lab] == pytest.approx(
                hd95_oracle(a, b, lab, (1.0, 1.0, 1.0)), abs=1e-9
            )
        assert report.ndv == 0.0

    def test_fixed_side_serves_many_fields(self, rng):
        dims = (16, 16, 16)
        fixed = label_volume(rng.integers(0, 4, size=dims))
        moving = label_volume(rng.integers(0, 4, size=dims))
        mask = label_volume(rng.integers(0, 2, size=dims))
        side = metrics.FixedSide(fixed, mask=mask)
        for amplitude in (0.0, 0.7, 1.5):
            phi = field_from(rng.uniform(-amplitude, amplitude, size=dims + (3,)))
            alone = evaluate_pair(metrics.FixedSide(fixed, mask=mask), moving, phi)
            assert evaluate_pair(side, moving, phi) == alone

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_field_raises_before_any_metric(self, value, monkeypatch):
        data = np.zeros((6, 6, 6), dtype=np.int16)
        data[2:4, 2:4, 2:4] = 1
        seg = label_volume(data)
        u = np.zeros((6, 6, 6, 3))
        u[1, 2, 3, 0] = value

        def no_kernel(*args):
            raise AssertionError("a kernel ran on a non-finite field")

        monkeypatch.setattr(metrics, "warp_labels", no_kernel)
        monkeypatch.setattr(metrics, "ndv", no_kernel)
        with pytest.raises(errors.NonFiniteData):
            evaluate_pair(seg, seg, field_from(u))

    def test_report_json_round_trip(self):
        data = np.zeros((8, 8, 8), dtype=np.int16)
        data[2:6, 2:6, 2:6] = 1
        seg = label_volume(data)
        report = evaluate_pair(seg, seg, DisplacementField.zero(seg.header), method_id="m", pair_id="p")
        back = metrics.PairReport.from_dict(report.to_dict())
        assert back == report
