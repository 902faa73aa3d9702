import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import gaussian_filter

from regeval import errors, warp
from regeval.volio import AffineHeader, DisplacementField, Volume
from regeval.warp import VelocityField, compose, exp_svf, ic_residual, sample_trilinear, warp_image, warp_labels

from conftest import brute_force_trilinear, identity_grid, traced_peak, whole_array_warp_labels


def field_from(data) -> DisplacementField:
    data = np.asarray(data, dtype=np.float64)
    return DisplacementField(header=AffineHeader.isotropic(data.shape[:3]), data=data)


def constant_field(dims, vec) -> DisplacementField:
    data = np.broadcast_to(np.asarray(vec, dtype=np.float64), tuple(dims) + (3,)).copy()
    return field_from(data)


def smooth_velocity(dims, seed, amplitude, sigma=4.0, window="smoothstep") -> VelocityField:
    """Random smooth velocity, tapered to zero at the faces.

    The sine window spreads taper curvature across the grid, which the
    Euler-oracle comparison needs; the smoothstep window confines it to a
    6-voxel band, a harsher but more localized variant.
    """
    rng = np.random.default_rng(seed)
    v = np.stack([gaussian_filter(rng.standard_normal(dims), sigma) for _ in range(3)], axis=-1)
    win = np.ones(dims)
    for axis, n in enumerate(dims):
        x = np.arange(n, dtype=np.float64)
        if window == "sine":
            w = np.sin(np.pi * x / (n - 1))
        else:
            t = np.clip(np.minimum(x, n - 1 - x) / 6.0, 0.0, 1.0)
            w = t * t * (3 - 2 * t)
        shape = [1, 1, 1]
        shape[axis] = n
        win = win * w.reshape(shape)
    v *= win[..., None]
    peak = np.max(np.sqrt(np.sum(v * v, axis=-1)))
    v *= amplitude / peak
    return VelocityField(header=AffineHeader.isotropic(dims), data=v)


class TestSampleTrilinear:
    def test_constant_field_anywhere(self, rng):
        # lerps return a constant exactly, inside the grid and beyond it;
        # this keeps TRE of the truth and of pure translations at exactly 0
        vec = np.array([0.1, -2.7, 1.0 / 3.0])
        fld = constant_field((8, 8, 8), vec)
        assert np.array_equal(sample_trilinear(fld, (0.3, 5.7, 2.2)), vec)
        pts = rng.uniform(-3.0, 10.0, size=(2000, 3))
        assert np.all(sample_trilinear(fld, pts) == vec)

    def test_linear_field_reproduced(self):
        dims = (8, 8, 8)
        data = np.zeros(dims + (3,))
        data[..., 0] = np.arange(8, dtype=np.float64)[:, None, None]
        fld = field_from(data)
        assert np.allclose(sample_trilinear(fld, (2.5, 0.0, 0.0)), (2.5, 0.0, 0.0))

    def test_exact_at_integer_coordinates(self, rng):
        data = rng.standard_normal((5, 5, 5))
        vol = Volume(header=AffineHeader.isotropic((5, 5, 5)), kind="scalar", data=data)
        for p in [(0, 0, 0), (4, 4, 4), (2, 3, 1)]:
            assert sample_trilinear(vol, p) == data[p]

    def test_matches_brute_force_oracle(self, rng):
        data = rng.standard_normal((4, 4, 4, 3))
        fld = field_from(data)
        pts = rng.uniform(-1.0, 4.5, size=(100, 3))  # includes out-of-grid points
        got = sample_trilinear(fld, pts)
        want = np.array([brute_force_trilinear(data, p) for p in pts])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_clamps_to_edge(self):
        dims = (4, 4, 4)
        data = np.zeros(dims + (3,))
        data[3, :, :, 0] = 7.0
        fld = field_from(data)
        assert np.allclose(sample_trilinear(fld, (99.0, 2.0, 2.0)), (7.0, 0.0, 0.0))


B = warp._BLOCK


def one_block(data, pts):
    """The kernel with every point in a single inline block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(warp, "_BLOCK", len(pts) + 1)
        return warp._trilinear(data, pts)


def whole_array_lerps(data, pts):
    """Trilinear lerps along x, then y, then z over all points at once, with
    fancy indexing: the arithmetic the blocked kernel must keep bit for bit."""
    top = np.array(data.shape[:3]) - 1
    p = np.clip(pts, 0, top)
    i0 = np.floor(p).astype(np.intp)
    i1 = np.minimum(i0 + 1, top)
    f = p - i0
    fx, fy, fz = (f[:, a].reshape((-1,) + (1,) * (data.ndim - 3)) for a in range(3))

    def at(cx, cy, cz):
        return data[(i1 if cx else i0)[:, 0], (i1 if cy else i0)[:, 1], (i1 if cz else i0)[:, 2]]

    def lerp(a, b, t):
        return a + (b - a) * t

    c0 = lerp(lerp(at(0, 0, 0), at(1, 0, 0), fx), lerp(at(0, 1, 0), at(1, 1, 0), fx), fy)
    c1 = lerp(lerp(at(0, 0, 1), at(1, 0, 1), fx), lerp(at(0, 1, 1), at(1, 1, 1), fx), fy)
    return lerp(c0, c1, fz)


class TestBlockedKernel:
    """The kernel runs in blocks of points; no output bit may depend on the
    block split."""

    # edges of the first block and of the fourth, and tails past two and eight
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 7, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 7])
    @pytest.mark.parametrize("channels", [(), (3,)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocked_equals_one_block(self, n, channels, order):
        rng = np.random.default_rng(n)
        data = np.asarray(rng.standard_normal((9, 10, 11) + channels), order=order)
        pts = rng.uniform(-2.0, 12.0, size=(n, 3))
        got = warp._trilinear(data, pts)
        assert got.shape == (n,) + channels
        assert np.array_equal(got, one_block(data, pts))

    @pytest.mark.parametrize("channels", [(), (3,)])
    def test_matches_whole_array_lerps(self, rng, channels):
        data = rng.standard_normal((9, 10, 11) + channels)
        pts = rng.uniform(-2.0, 12.0, size=(2 * B + 7, 3))
        assert np.array_equal(warp._trilinear(data, pts), whole_array_lerps(data, pts))

    def test_warp_with_grad_value_matches_whole_array_lerps(self, rng):
        u = rng.standard_normal((40, 41, 42, 3)) * 3.0
        img = rng.standard_normal((40, 41, 42))
        pts = (identity_grid(img.shape) + u).reshape(-1, 3)
        warped, _ = warp._warp_with_grad(img, u)
        assert np.array_equal(warped.ravel(), whole_array_lerps(img, pts))

    def test_warp_and_grad_equal_one_block_bytewise(self, monkeypatch, rng):
        u = rng.standard_normal((40, 41, 42, 3)) * 3.0  # two full blocks and a tail
        img = rng.standard_normal((40, 41, 42))
        runs = []
        for block in (B, u[..., 0].size + 1):
            monkeypatch.setattr(warp, "_BLOCK", block)
            runs.append([a.tobytes() for a in (warp._warp(u, u), *warp._warp_with_grad(img, u))])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", [0, 1, 2 * B, 2 * B + 7, 8 * B, 8 * B + 7])
    def test_blocks_tile_the_range_once(self, n):
        spans = []
        warp._blocks(n, lambda lo, hi: spans.append((lo, hi)))
        assert [lo for lo, _ in spans] == list(range(0, n, B))
        assert all(hi == min(lo + B, n) for lo, hi in spans)

    @settings(max_examples=60, deadline=None)
    @given(
        pts=arrays(
            np.float64,
            st.tuples(st.integers(1, 50), st.just(3)),
            elements=st.floats(-4.0, 12.0, allow_nan=False),
        ),
        block=st.integers(1, 9),
    )
    def test_any_split_is_bitwise_equal(self, pts, block):
        # in-grid and out-of-grid points of a 6x7x8 grid, split into tiny blocks
        data = np.random.default_rng(3).standard_normal((6, 7, 8, 3))
        want = one_block(data, pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(warp, "_BLOCK", block)
            got = warp._trilinear(data, pts)
        assert got.tobytes() == want.tobytes()


def whole_array_grad(data, pts):
    """``_warp_with_grad``'s slope at pts over all points at once, with fancy
    indexing and ``_axis_grad``'s order of operations; 0 along clamped axes."""
    top = np.array(data.shape) - 1
    inside = (pts >= 0.0) & (pts <= top)
    p = np.clip(pts, 0, top)
    i0 = np.floor(p).astype(np.intp)
    i1 = np.minimum(i0 + 1, top)
    f = p - i0
    g = 1 - f

    def at(c):  # corner bits: 1 for x, 2 for y, 4 for z
        return data[tuple((i1 if c >> a & 1 else i0)[:, a] for a in range(3))]

    grad = np.empty(pts.shape)
    for axis in range(3):
        j, l = (a for a in range(3) if a != axis)
        d = [[at(c | 1 << axis) - at(c) for c in (bl << l, 1 << j | bl << l)] for bl in (0, 1)]
        near, far = (d0 * g[:, j] + d1 * f[:, j] for d0, d1 in d)
        grad[:, axis] = (near * g[:, l] + far * f[:, l]) * inside[:, axis]
    return grad


class TestGridCoordinates:
    """Grid warps take x + u(x) from u's rows and the coordinates of the
    grid's first planes; ``_exp`` adds each block into u.  Any dims, block
    size and layout must give the bytes of the materialized-grid forms:
    lerps at grid + u, and u + lerps(u at grid + u) per squaring."""

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 3, 9, 12]), st.sampled_from([1, 2, 11, 12])),
        block=st.sampled_from([7, 64, 100]),  # planes of 1 to 144 voxels fall on both sides
        order=st.sampled_from("CF"),
        scale=st.sampled_from([0.5, 4.0, 1e300]),  # 1e300 lands far outside the grid
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_paths_equal_the_materialized_grid(self, dims, block, order, scale, seed):
        rng = np.random.default_rng(seed)
        u = np.asarray(rng.standard_normal(dims + (3,)) * scale, order=order)
        img = rng.standard_normal(dims)
        pts = (identity_grid(dims) + u).reshape(-1, 3)
        want_exp = u / 8.0
        for _ in range(3):
            at = (identity_grid(dims) + want_exp).reshape(-1, 3)
            want_exp = want_exp + whole_array_lerps(want_exp, at).reshape(dims + (3,))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(warp, "_BLOCK", block)
            warped_u, (warped, grad) = warp._warp(u, u), warp._warp_with_grad(img, u)
            got_exp = warp._exp(u, 3)
        assert warped_u.tobytes() == whole_array_lerps(u, pts).tobytes()
        assert warped.tobytes() == whole_array_lerps(img, pts).tobytes()
        assert grad.reshape(-1, 3).tobytes() == whole_array_grad(img, pts).tobytes()
        assert got_exp.tobytes() == want_exp.tobytes()


class TestKernelEdges:
    """The padded planes stand in for clamping: thin axes, points on and past
    the upper edge, and any memory layout of ``data`` keep the reference
    lerps bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 5, 6), (2, 5, 6), (5, 1, 6), (5, 6, 2), (1, 1, 1), (2, 2, 2), (1, 2, 1)])
    @pytest.mark.parametrize("channels", [(), (3,)])
    def test_axes_of_length_one_and_two(self, rng, shape, channels):
        data = rng.standard_normal(shape + channels)
        pts = rng.uniform(-2.0, 8.0, size=(500, 3))
        assert np.array_equal(warp._trilinear(data, pts), whole_array_lerps(data, pts))

    def test_points_on_and_beyond_the_upper_edge(self, rng):
        data = rng.standard_normal((5, 6, 7, 3))
        top = np.array(data.shape[:3], dtype=np.float64) - 1.0
        grid = np.stack(np.meshgrid(*[np.arange(n, dtype=np.float64) for n in data.shape[:3]],
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        pts = np.concatenate([
            np.tile(top, (1, 1)),  # the last voxel itself
            np.where(rng.random((400, 3)) < 0.5, top, grid[rng.integers(0, len(grid), 400)]),
            top + rng.uniform(0.0, 3.0, size=(200, 3)),  # beyond, on all axes
            np.where(rng.random((200, 3)) < 0.5, top + 1.5, rng.uniform(0, 4, (200, 3))),
            np.nextafter(top, 0.0) + np.zeros((1, 3)),  # just below the edge
        ])
        got = warp._trilinear(data, pts)
        assert np.array_equal(got, whole_array_lerps(data, pts))
        on_edge = np.all(pts == top, axis=1)
        assert np.array_equal(got[on_edge], np.broadcast_to(data[-1, -1, -1], (on_edge.sum(), 3)))

    @pytest.mark.parametrize("layout", ["F", "slice", "transposed"])
    @pytest.mark.parametrize("channels", [(), (3,)])
    def test_fortran_and_non_contiguous_data(self, rng, layout, channels):
        base = rng.standard_normal((14, 11, 12) + channels)
        if layout == "F":
            data = np.asfortranarray(base[:7, :9, :10])
        elif layout == "slice":
            data = base[1::2, ::-1, 2:]
        else:
            data = np.swapaxes(base, 0, 2)
        assert not data.flags.c_contiguous
        pts = rng.uniform(-2.0, 15.0, size=(B + 9, 3))
        want = whole_array_lerps(np.ascontiguousarray(data), pts)
        assert np.array_equal(warp._trilinear(data, pts), want)
        assert np.array_equal(whole_array_lerps(data, pts), want)

    def test_warp_with_grad_on_thin_and_fortran_images(self, rng):
        for img in (rng.standard_normal((1, 9, 2)), np.asfortranarray(rng.standard_normal((6, 7, 8)))):
            u = rng.standard_normal(img.shape + (3,)) * 2.0
            pts = (identity_grid(img.shape) + u).reshape(-1, 3)
            warped, grad = warp._warp_with_grad(img, u)
            assert np.array_equal(warped.ravel(), whole_array_lerps(img, pts))
            assert np.all(grad[..., np.array(img.shape) == 1] == 0.0)  # a single voxel has no slope

    @pytest.mark.parametrize("shape", [(6, 7, 8), (1, 5, 2), (2, 1, 3)])
    def test_grad_at_voxels_is_the_forward_difference(self, rng, shape):
        # at f == 0 the slope is v[i + 1] - v[i], and 0 on the upper face,
        # where the padding repeats the edge voxel
        img = rng.standard_normal(shape)
        _, grad = warp._warp_with_grad(img, np.zeros(shape + (3,)))
        for axis in range(3):
            want = np.diff(img, axis=axis, append=np.take(img, [-1], axis=axis))
            assert np.array_equal(grad[..., axis], want)


class TestCompose:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 0.5, 3.0, 1e4]),
    )
    def test_zero_field_on_either_side_is_identity(self, shape, seed, scale):
        # +0.0 turns negative zeros positive, which 0 + u does too
        data = np.random.default_rng(seed).standard_normal(shape + (3,)) * scale + 0.0
        phi = field_from(data)
        zero = DisplacementField.zero(phi.header)
        assert compose(zero, phi).data.tobytes() == data.tobytes()
        assert compose(phi, zero).data.tobytes() == data.tobytes()

    def test_identity_outer_and_inner(self, rng):
        phi = field_from(rng.standard_normal((6, 6, 6, 3)) * 0.5)
        ident = DisplacementField.zero(phi.header)
        assert np.array_equal(compose(ident, phi).data, phi.data)  # residual term is 0
        assert np.array_equal(compose(phi, ident).data, phi.data)  # exact at voxels

    def test_translations_add_in_interior(self):
        dims = (10, 10, 10)
        t1 = constant_field(dims, (1.0, 0.0, 2.0))
        t2 = constant_field(dims, (0.5, 1.0, -1.0))
        out = compose(t1, t2)
        interior = out.data[2:-4, 2:-4, 4:-2]
        assert np.allclose(interior, (1.5, 1.0, 1.0))

    def test_matches_pointwise_oracle(self, rng):
        dims = (16, 16, 16)
        a = field_from(gaussian_filter(rng.standard_normal(dims + (3,)), (2, 2, 2, 0)) * 4)
        b = field_from(gaussian_filter(rng.standard_normal(dims + (3,)), (2, 2, 2, 0)) * 4)
        got = compose(a, b).data
        for p in rng.integers(0, 16, size=(40, 3)):
            x = p.astype(np.float64)
            u_in = b.data[tuple(p)]
            want = u_in + brute_force_trilinear(a.data, x + u_in)
            assert np.max(np.abs(got[tuple(p)] - want)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatch):
            compose(constant_field((4, 4, 4), (0, 0, 0)), constant_field((5, 4, 4), (0, 0, 0)))


class TestWarpImage:
    def test_identity_returns_moving(self, rng):
        dims = (6, 6, 6)
        vol = Volume(header=AffineHeader.isotropic(dims), kind="scalar", data=rng.standard_normal(dims))
        out = warp_image(vol, DisplacementField.zero(vol.header))
        assert np.array_equal(out.data, vol.data)

    def test_integer_translation_shifts_interior(self, rng):
        dims = (8, 8, 8)
        vol = Volume(header=AffineHeader.isotropic(dims), kind="scalar", data=rng.standard_normal(dims))
        out = warp_image(vol, constant_field(dims, (1.0, 0.0, 0.0)))
        assert np.allclose(out.data[:-1], vol.data[1:])

    def test_ramp_oracle(self, rng):
        dims = (12, 12, 12)
        ramp = np.broadcast_to(
            np.arange(12, dtype=np.float64)[:, None, None], dims
        ).copy()
        vol = Volume(header=AffineHeader.isotropic(dims), kind="scalar", data=ramp)
        u = rng.uniform(-3, 3, size=dims + (3,))
        out = warp_image(vol, field_from(u))
        x0 = np.arange(12, dtype=np.float64)[:, None, None]
        want = np.clip(x0 + u[..., 0], 0.0, 11.0)
        assert np.max(np.abs(out.data - want)) < 1e-12


class TestWarpLabels:
    def test_identity(self, rng):
        dims = (6, 6, 6)
        lab = Volume(
            header=AffineHeader.isotropic(dims),
            kind="label",
            data=rng.integers(0, 5, size=dims).astype(np.int16),
        )
        out = warp_labels(lab, DisplacementField.zero(lab.header))
        assert np.array_equal(out.data, lab.data)
        assert out.data.dtype == lab.data.dtype

    def test_translation_shifts_block(self):
        dims = (8, 8, 8)
        lab_data = np.zeros(dims, dtype=np.int16)
        lab_data[:, :, 4:6] = 1
        lab = Volume(header=AffineHeader.isotropic(dims), kind="label", data=lab_data)
        out = warp_labels(lab, constant_field(dims, (0.0, 0.0, 2.0)))
        assert np.array_equal(out.data[:, :, 2:4], np.ones((8, 8, 2), dtype=np.int16))
        assert out.data[:, :, 6:].sum() == 0

    def test_rounding_tie_break(self):
        # u = 0.49 keeps the voxel, u = 0.5 rounds up to the next one
        dims = (8, 4, 4)
        lab_data = np.zeros(dims, dtype=np.int16)
        lab_data[4, :, :] = 1
        lab = Volume(header=AffineHeader.isotropic(dims), kind="label", data=lab_data)
        out49 = warp_labels(lab, constant_field(dims, (0.49, 0.0, 0.0)))
        assert np.array_equal(out49.data, lab.data)
        out50 = warp_labels(lab, constant_field(dims, (0.5, 0.0, 0.0)))
        want = np.zeros(dims, dtype=np.int16)
        want[3, :, :] = 1
        assert np.array_equal(out50.data, want)


class TestBlockedLabelWarp:
    """warp_labels works in slabs along the slowest axis of the field's
    component planes; every output byte must equal the whole-array warp."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_whole_array_warp(self, data):
        axes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
        dims, lab_dims = data.draw(axes), data.draw(axes)  # the moving grid may differ
        shift = st.one_of(
            st.integers(-4, 3).map(lambda k: k + 0.5),  # exact ties, which round up
            st.floats(-1e9, 1e9),  # far outside the grid
            st.floats(-3.0, 3.0),
        )
        u = data.draw(arrays(np.float64, dims + (3,), elements=shift))
        # read_nifti keeps float32 payloads, in F order
        u = u.astype(data.draw(st.sampled_from([np.float64, np.float32])), order=data.draw(st.sampled_from("CF")))
        dtype = data.draw(st.sampled_from([np.uint8, np.int16, np.int32]))
        lab = np.arange(np.prod(lab_dims), dtype=dtype).reshape(lab_dims)  # every voxel distinct
        lab = np.asarray(lab, order=data.draw(st.sampled_from("CF")))
        moving = Volume(header=AffineHeader.isotropic(lab_dims), kind="label", data=lab)
        phi = DisplacementField(header=AffineHeader.isotropic(dims), data=u)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(warp, "_SLAB", data.draw(st.integers(1, 30)))
            got = warp_labels(moving, phi).data
        want = whole_array_warp_labels(moving, phi).data
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_default_slabs_on_a_larger_grid(self, rng, order):
        dims = (40, 41, 42)  # three slabs either way
        u = np.asarray(rng.uniform(-4.0, 4.0, dims + (3,)), order=order)
        lab = Volume(header=AffineHeader.isotropic(dims), kind="label",
                     data=np.asfortranarray(rng.integers(0, 9, dims).astype(np.int16)))
        got = warp_labels(lab, field_from(u)).data
        assert got.tobytes() == whole_array_warp_labels(lab, field_from(u)).data.tobytes()

    @pytest.mark.parametrize("shift, want", [(1e19, 3), (1e300, 3), (-1e19, 0), (-1e300, 0)])
    def test_displacement_beyond_the_index_range_clamps(self, shift, want):
        # floor(p + 0.5) past 2**63 does not fit an index: clamped before the cast
        lab = Volume(header=AffineHeader.isotropic((4, 1, 1)), kind="label",
                     data=np.arange(4, dtype=np.int16).reshape(4, 1, 1))
        u = np.zeros((4, 1, 1, 3))
        u[..., 0] = shift
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = warp_labels(lab, field_from(u)).data
        assert got.ravel().tolist() == [want] * 4

    def test_memory_is_the_output_and_a_slab(self, rng):
        # a field read back from NIfTI: F-ordered, 64**3
        dims = (64, 64, 64)
        u = np.reshape(rng.uniform(-3.0, 3.0, 64**3 * 3), dims + (3,), order="F")
        lab = Volume(header=AffineHeader.isotropic(dims), kind="label",
                     data=np.asfortranarray(rng.integers(0, 7, dims).astype(np.int16)))
        out, peak = traced_peak(lambda: warp_labels(lab, field_from(u)))
        assert peak < out.data.nbytes + 2 * 2**20


class TestCornerSampling:
    """sample_trilinear reads only each point's 8 corners; it must equal the
    padded bulk kernel bit for bit."""

    @pytest.mark.parametrize("shape", [(9, 10, 11), (1, 5, 2), (2, 1, 1), (1, 1, 1)])
    @pytest.mark.parametrize("channels", [(), (3,)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_the_padded_kernel(self, rng, shape, channels, order):
        data = np.asarray(rng.standard_normal(shape + channels), order=order)
        top = np.array(shape, dtype=np.float64) - 1.0
        pts = np.concatenate([
            rng.uniform(-3.0, top + 3.0, size=(300, 3)),  # inside and outside the grid
            np.where(rng.random((100, 3)) < 0.5, top, rng.uniform(0.0, top, (100, 3))),  # upper faces
            top[None], np.zeros((1, 3)), np.nextafter(top, 0.0)[None],
        ])
        want = warp._trilinear(data, pts)
        got = sample_trilinear(data, pts)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.asarray(sample_trilinear(data, pts[0])).tobytes() == want[0].tobytes()


class TestExpSvf:
    def test_squarings_must_keep_the_scale_a_float(self):
        # 2**1024 overflows a float; 1023 squarings of zero stay zero
        dims = (2, 2, 2)
        v = VelocityField(header=AffineHeader.isotropic(dims), data=np.zeros(dims + (3,)))
        for squarings in (-1, 1024):
            with pytest.raises(errors.BadParams, match=rf"squarings {squarings} is outside \[0, 1023\]"):
                exp_svf(v, squarings=squarings)
        assert not np.any(exp_svf(v, squarings=1023).data)

    def test_zero_velocity_is_identity(self):
        dims = (6, 6, 6)
        v = VelocityField(header=AffineHeader.isotropic(dims), data=np.zeros(dims + (3,)))
        assert np.array_equal(exp_svf(v, squarings=6).data, np.zeros(dims + (3,)))

    def test_constant_velocity_is_translation_interior(self):
        dims = (12, 12, 12)
        v = VelocityField(
            header=AffineHeader.isotropic(dims),
            data=np.broadcast_to([1.0, 0.0, 0.0], dims + (3,)).copy(),
        )
        u = exp_svf(v, squarings=6).data
        interior = u[2:-4, 1:-1, 1:-1]
        assert np.max(np.abs(interior - np.array([1.0, 0.0, 0.0]))) < 1e-9

    def test_equals_repeated_self_composition(self):
        dims = (12, 12, 12)
        v = smooth_velocity(dims, seed=5, amplitude=3.0)
        squarings = 5
        u = DisplacementField(header=v.header, data=v.data / 2**squarings)
        for _ in range(squarings):
            u = compose(u, u)
        assert np.array_equal(exp_svf(v, squarings=squarings).data, u.data)

    def test_against_euler_flow_oracle(self):
        dims = (32, 32, 32)
        v = smooth_velocity(dims, seed=7, amplitude=2.0, sigma=14.0, window="sine")
        u = exp_svf(v, squarings=7).data

        # independent oracle: 256-step explicit Euler integration of the flow
        steps = 256
        pos = identity_grid(dims).reshape(-1, 3).copy()
        vdata = v.data
        n = np.asarray(dims, dtype=np.float64) - 1.0
        for _ in range(steps):
            p = np.clip(pos, 0.0, n)
            i0 = np.floor(p).astype(np.intp)
            f = p - i0
            i1 = np.minimum(i0 + 1, (np.asarray(dims) - 1))
            x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
            x1, y1, z1 = i1[:, 0], i1[:, 1], i1[:, 2]
            fx, fy, fz = f[:, 0:1], f[:, 1:2], f[:, 2:3]
            c00 = vdata[x0, y0, z0] * (1 - fx) + vdata[x1, y0, z0] * fx
            c10 = vdata[x0, y1, z0] * (1 - fx) + vdata[x1, y1, z0] * fx
            c01 = vdata[x0, y0, z1] * (1 - fx) + vdata[x1, y0, z1] * fx
            c11 = vdata[x0, y1, z1] * (1 - fx) + vdata[x1, y1, z1] * fx
            vel = (c00 * (1 - fy) + c10 * fy) * (1 - fz) + (c01 * (1 - fy) + c11 * fy) * fz
            pos = pos + vel / steps
        u_euler = (pos - identity_grid(dims).reshape(-1, 3)).reshape(dims + (3,))

        deviation = np.max(np.sqrt(np.sum((u - u_euler) ** 2, axis=-1)))
        assert deviation < 0.01

    def test_squarings_hold_u_the_padded_planes_and_one_block(self, rng):
        # u (3 volumes), its padded copy (3.14) and one block's buffers
        # (6.60 measured; 9.60 with an (n, 3) output and a coordinate grid)
        dims = (64, 64, 64)
        v = rng.uniform(-2.0, 2.0, size=dims + (3,))
        _, peak = traced_peak(lambda: warp._exp(v, 7))
        assert peak / (np.prod(dims) * 8) < 7.0

    def test_non_finite_velocity_rejected(self):
        dims = (4, 4, 4)
        data = np.zeros(dims + (3,))
        data[0, 0, 0, 0] = np.nan
        v = VelocityField(header=AffineHeader.isotropic(dims), data=data)
        with pytest.raises(errors.NonFiniteVelocity):
            exp_svf(v)


class TestIcResidual:
    def test_identity_pair_is_zero(self):
        dims = (8, 8, 8)
        ident = DisplacementField.zero(AffineHeader.isotropic(dims))
        mae, residual = ic_residual(ident, ident)
        assert mae == 0.0
        assert np.all(residual.data == 0.0)

    def test_opposite_translations_cancel(self):
        dims = (12, 12, 12)
        mae, _ = ic_residual(
            constant_field(dims, (2.0, 0.0, 0.0)),
            constant_field(dims, (-2.0, 0.0, 0.0)),
        )
        # out-of-grid lookups are excluded, the rest cancels exactly
        assert mae < 1e-12

    def test_svf_inverse_pair_small_residual(self):
        dims = (48, 48, 48)
        v = smooth_velocity(dims, seed=3, amplitude=3.0, sigma=6.0)
        neg = VelocityField(header=v.header, data=-v.data)
        phi_ab = exp_svf(v, squarings=7)
        phi_ba = exp_svf(neg, squarings=7)
        interior = np.zeros(dims, dtype=np.int16)
        interior[6:-6, 6:-6, 6:-6] = 1
        mask = Volume(header=v.header, kind="label", data=interior)
        mae, _ = ic_residual(phi_ab, phi_ba, mask=mask)
        assert mae < 0.05

    def test_componentwise_variant(self):
        dims = (6, 6, 6)
        a = constant_field(dims, (0.3, 0.0, 0.0))
        b = DisplacementField.zero(a.header)
        mae_norm, _ = ic_residual(a, b)
        mae_comp, _ = ic_residual(a, b, norm="component")
        assert np.isclose(mae_norm, 0.3)
        assert np.isclose(mae_comp, 0.1)  # |0.3| averaged over three components

    @pytest.mark.parametrize("norm", ["euclidean", "component"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_grid_mask_is_the_full_grid_test(self, rng, norm, order):
        # whole-voxel lookups land exactly on the first and last voxels
        dims = (7, 5, 6)
        b = rng.integers(-3, 4, size=dims + (3,)).astype(np.float64)
        b[::2] += rng.uniform(-0.5, 0.5, size=b[::2].shape)
        mae, residual = ic_residual(field_from(rng.standard_normal(dims + (3,))), field_from(np.asarray(b, order=order)),
                                    norm=norm)
        pos = identity_grid(dims) + b
        r = residual.data[np.all((pos >= 0.0) & (pos <= np.array(dims) - 1.0), axis=-1)]
        assert mae == float(np.mean(np.sqrt(np.sum(r * r, axis=-1))) if norm == "euclidean" else np.mean(np.abs(r)))

    def test_mask_and_empty_evaluation(self):
        dims = (6, 6, 6)
        ident = DisplacementField.zero(AffineHeader.isotropic(dims))
        empty = Volume(header=ident.header, kind="label", data=np.zeros(dims, dtype=np.int16))
        with pytest.raises(errors.EmptyEvaluationSet):
            ic_residual(ident, ident, mask=empty)


class TestPurity:
    def test_bit_identical_reruns(self, rng):
        dims = (10, 10, 10)
        a = field_from(rng.standard_normal(dims + (3,)))
        b = field_from(rng.standard_normal(dims + (3,)))
        first = compose(a, b).data
        second = compose(a, b).data
        assert np.array_equal(first, second)
        v = smooth_velocity(dims, seed=5, amplitude=1.0)
        assert np.array_equal(exp_svf(v).data, exp_svf(v).data)
