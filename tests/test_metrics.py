from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from regeval import errors, metrics
from regeval.metrics import dsc, evaluate_pair, hd95, lncc, ndv, tre
from regeval.synth import FoldSlab, Svf, Translation, make_field
from regeval.volio import AffineHeader, DisplacementField, LandmarkSet, Volume

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

    def test_empty_label_list(self):
        vol = label_volume(np.zeros((3, 3, 3)))
        with pytest.raises(errors.EmptyLabelList):
            dsc(vol, vol, [])

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            dsc(label_volume(np.zeros((3, 3, 3))), label_volume(np.zeros((4, 3, 3))), [1])


# --- HD95 --------------------------------------------------------------------


class TestHd95:
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
        with pytest.raises(ValueError):
            lncc(a, a, window=4)


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
        report = evaluate_pair(fixed, moving, DisplacementField.zero(fixed.header), labels=labels)
        for lab in labels:
            assert report.dsc_per_label[lab] == dsc_oracle(a, b, lab)
            assert report.hd95_per_label[lab] == pytest.approx(
                hd95_oracle(a, b, lab, (1.0, 1.0, 1.0)), abs=1e-9
            )
        assert report.ndv == 0.0

    def test_report_json_round_trip(self):
        data = np.zeros((8, 8, 8), dtype=np.int16)
        data[2:6, 2:6, 2:6] = 1
        seg = label_volume(data)
        report = evaluate_pair(seg, seg, DisplacementField.zero(seg.header), method_id="m", pair_id="p")
        back = metrics.PairReport.from_dict(report.to_dict())
        assert back == report
