"""Displacement-field algebra on voxel grids.

All operations are pure functions over immutable inputs and use float64
internally.  Every sampling operation is total: out-of-grid coordinates are
clamped to the nearest edge voxel (border replicate), so no boundary case can
raise.  Displacements are in voxel units of the grid they live on, with the
backward-warping convention phi(x) = x + u(x).  No grid-sized array holds
voxel coordinates (``_coords``); the exponential adds each block into u.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    DimMismatch,
    EmptyEvaluationSet,
    NonFiniteCoordinate,
    NonFiniteVelocity,
    UnsupportedLayout,
)
from .volio import AffineHeader, DisplacementField, Volume


@dataclass(frozen=True)
class VelocityField:
    """Stationary velocity v (voxel units per unit time); exp(v) is a
    diffeomorphic displacement field with exact inverse exp(-v)."""

    header: AffineHeader
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if tuple(self.data.shape) != self.header.dims + (3,):
            raise UnsupportedLayout(
                f"velocity shape {self.data.shape} does not match header dims {self.header.dims} + (3,)"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims


# Points per kernel block: one block's workspace (about 0.8 MiB) stays in L2.
_BLOCK = 1 << 13
# Voxels per slab of ``warp_labels`` and of the diffusion gradient: their
# slab buffers (0.8 MiB) stay in L2.
_SLAB = 1 << 15


def _axis_coords(n: int, axis: int) -> np.ndarray:
    """0, 1, ..., n - 1 as float64, shaped to run along ``axis`` of a 3-D
    grid: one axis of the voxel coordinates, broadcast instead of stored."""
    return np.arange(n, dtype=np.float64).reshape([-1 if a == axis else 1 for a in range(3)])


# Lerps of the blend, in order: (corner a, corner b, axis) for a + (b - a) * f.
# Corners are numbered x-major, v000 = 0 to v111 = 7; the last lerp is (0, 4, z).
_LERPS = ((0, 1, 0), (2, 3, 0), (4, 5, 0), (6, 7, 0), (0, 2, 1), (4, 6, 1))


def _blocks(n: int, fn) -> None:
    """Run ``fn(lo, hi)`` over [0, n) in blocks of _BLOCK points, in order."""
    for lo in range(0, n, _BLOCK):
        fn(lo, min(lo + _BLOCK, n))


class _Workspace:
    """Buffers of the kernel for n points sampled from dims + (channels,)
    data: the channel planes, each padded by one replicated edge voxel at the
    top of every axis, and one block's coordinates, corner index and corner
    values, which every block reuses.  With ``grid``, the dims of the n
    points' voxel grid, also the voxel coordinates of as many of its first
    planes as one block reaches (``_coords``).  ``_exp`` keeps one
    workspace for all its squarings."""

    def __init__(self, dims, channels: int, n: int, grid=None):
        self.padded = np.empty((channels,) + tuple(d + 1 for d in dims))
        sx, sy = (dims[1] + 1) * (dims[2] + 1), dims[2] + 1
        self.offsets = [(c & 1) * sx + (c >> 1 & 1) * sy + (c >> 2 & 1) for c in range(8)]
        m = min(n, _BLOCK)
        self.p = np.empty((3, m))
        self.idx = np.empty(m, dtype=np.intp)
        self.floor = np.empty(m, dtype=np.intp)
        self.v = np.empty((8, m))
        self.grid = grid
        if grid is not None:
            plane = grid[1] * grid[2]
            # a block that starts on plane 0's last row ends on this plane
            last = (plane - 1 + m - 1) // plane
            t = np.empty((3, min(grid[0], last + 1)) + tuple(grid[1:]))
            for axis, k in enumerate(t.shape[1:]):
                t[axis] = _axis_coords(k, axis)
            self.rows = t.reshape(3, -1)


def _pad(data: np.ndarray, padded: np.ndarray) -> None:
    """Copy ``data`` (dims or dims + (c,)) into the (c,) + (dims + 1) planes
    of ``padded``, repeating the last voxel of every axis once more."""
    nx, ny, nz = data.shape[:3]
    padded[:, :nx, :ny, :nz] = np.moveaxis(data.reshape((nx, ny, nz, -1)), 3, 0)
    padded[:, :nx, :ny, nz] = padded[:, :nx, :ny, nz - 1]
    padded[:, :nx, ny] = padded[:, :nx, ny - 1]
    padded[:, nx] = padded[:, nx - 1]


def _coords(ws: _Workspace, points, lo: int, hi: int) -> np.ndarray:
    """The (3, m) coordinates of block [lo, hi), in ws.p: its rows of
    ``points`` or, with a grid, each row's voxel plus the row.  A block that
    starts in x-plane x0 reads ``ws.rows`` from the same offset in plane 0
    and adds x0 to x: exact integers, so the sums have a full grid's bits."""
    p = ws.p[:, : hi - lo]
    if ws.grid is None:
        for axis in range(3):
            np.copyto(p[axis], points[lo:hi, axis])
        return p
    plane = ws.grid[1] * ws.grid[2]
    x0 = lo // plane
    t = ws.rows[:, lo - x0 * plane : hi - x0 * plane]
    np.add(t[0], float(x0), out=p[0])
    np.add(p[0], points[lo:hi, 0], out=p[0])
    np.add(t[1], points[lo:hi, 1], out=p[1])
    np.add(t[2], points[lo:hi, 2], out=p[2])
    return p


def _corners(ws: _Workspace, p: np.ndarray, dims) -> np.ndarray:
    """Clamp the coordinates ``p`` (from ``_coords``) to the grid and return
    the flat index of each point's v000 corner in the padded planes; ``p``
    is left holding the fractional weight per axis.  With the padding, the
    other corners sit at the fixed ``ws.offsets`` from v000, also at the
    upper edge, where the weight is 0.  Works one axis at a time: numpy
    loops slowly over a trailing axis of 3."""
    m = p.shape[1]
    idx, floor = ws.idx[:m], ws.floor[:m]
    for axis in range(3):
        np.clip(p[axis], 0, dims[axis] - 1, out=p[axis])
        np.copyto(floor, p[axis], casting="unsafe")  # p >= 0, so truncation is floor
        np.subtract(p[axis], floor, out=p[axis])
        if axis == 0:
            np.copyto(idx, floor)
        else:  # idx = (x * (ny + 1) + y) * (nz + 1) + z
            np.multiply(idx, dims[axis] + 1, out=idx)
            np.add(idx, floor, out=idx)
    return idx


def _gather(ws: _Workspace, plane: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The 8 corner values of one flat padded plane around each point."""
    v = ws.v[:, : len(idx)]
    for c, off in enumerate(ws.offsets):
        plane[off:].take(idx, out=v[c], mode="clip")  # always in range
    return v


def _lerp(a, b, t, out) -> None:
    """out = a + (b - a) * t, using ``b`` as scratch."""
    np.subtract(b, a, out=b)
    np.multiply(b, t, out=b)
    np.add(a, b, out=out)


def _blend(v: np.ndarray, f: np.ndarray, out: np.ndarray) -> None:
    """Trilinear blend of the corners from ``_gather`` by lerps along x, then
    y, then z (exact at f == 0 and on constant data) into ``out``; consumes
    ``v``."""
    for a, b, axis in _LERPS:
        _lerp(v[a], v[b], f[axis], v[a])
    _lerp(v[0], v[4], f[2], out)


def _trilinear(data: np.ndarray, points: np.ndarray, grid=None, ws=None, add_to=None) -> np.ndarray:
    """Trilinear interpolation of ``data`` (dims or dims + (c,)) at (n, 3)
    points or, with ``grid`` (the dims of n voxels), at each voxel plus its
    row of ``points``.  Returns the (n,) or (n, c) samples; with ``add_to``
    ((n, c)) each block's samples are added into its rows instead.  Every
    output element sees the same float operations for any block split
    (``_blocks``).  ``ws``, made for these points and grid, is a fresh
    workspace unless one is passed."""
    dims = data.shape[:3]
    if ws is None:
        ws = _Workspace(dims, int(np.prod(data.shape[3:], dtype=np.int64)), len(points), grid)
    _pad(data, ws.padded)
    planes = ws.padded.reshape(len(ws.padded), -1)
    out = np.empty((len(points), len(planes))) if add_to is None else add_to

    def block(lo, hi):
        p = _coords(ws, points, lo, hi)
        idx = _corners(ws, p, dims)
        for c, plane in enumerate(planes):
            v = _gather(ws, plane, idx)
            if add_to is None:
                _blend(v, p, out[lo:hi, c])
            else:
                _blend(v, p, v[0])
                np.add(out[lo:hi, c], v[0], out=out[lo:hi, c])

    _blocks(len(points), block)
    return out[:, 0] if data.ndim == 3 else out


def _axis_grad(v, axis: int, f, g, t, out) -> None:
    """Derivative of the trilinear interpolant along ``axis``: the 4 corner
    differences along it, lerp-weighted over the other two axes j < l as
    ((d00 * g_j + d10 * f_j) * g_l + (d01 * g_j + d11 * f_j) * f_l), with
    g = 1 - f.  ``t`` holds 3 scratch rows."""
    j, l = (a for a in range(3) if a != axis)
    bit = 1 << axis
    for bl, acc in ((0, t[0]), (1, t[1])):
        c0, c1 = bl << l, 1 << j | bl << l
        np.subtract(v[c0 | bit], v[c0], out=acc)
        np.multiply(acc, g[j], out=acc)
        np.subtract(v[c1 | bit], v[c1], out=t[2])
        np.multiply(t[2], f[j], out=t[2])
        np.add(acc, t[2], out=acc)
    np.multiply(t[0], g[l], out=t[0])
    np.multiply(t[1], f[l], out=t[1])
    np.add(t[0], t[1], out=out)


def _warp_with_grad(mdata: np.ndarray, u: np.ndarray):
    """Warped image w(x) = M(x + u(x)) and the trilinear spatial gradient
    dM/dp at the sample positions (zero along axes that were clamped)."""
    dims = u.shape[:3]
    shift = u.reshape(-1, 3)
    n = len(shift)
    ws = _Workspace(mdata.shape, 1, n, dims)
    _pad(mdata, ws.padded)
    plane = ws.padded.reshape(-1)
    top = np.asarray(mdata.shape, dtype=np.float64)[:, None] - 1.0
    m = ws.p.shape[1]
    g, t, scratch = np.empty((3, m)), np.empty((3, m)), np.empty(m)
    inside, upper = np.empty((3, m), dtype=bool), np.empty((3, m), dtype=bool)
    warped, grad = np.empty(n), np.empty((n, 3))

    def block(lo, hi):
        k = hi - lo
        p = _coords(ws, shift, lo, hi)
        np.greater_equal(p, 0.0, out=inside[:, :k])
        np.less_equal(p, top, out=upper[:, :k])
        np.logical_and(inside[:, :k], upper[:, :k], out=inside[:, :k])
        idx = _corners(ws, p, mdata.shape)
        v = _gather(ws, plane, idx)
        np.subtract(1, p, out=g[:, :k])
        for axis in range(3):
            _axis_grad(v, axis, p, g[:, :k], t[:, :k], scratch[:k])
            np.multiply(scratch[:k], inside[axis, :k], out=grad[lo:hi, axis])
        _blend(v, p, warped[lo:hi])

    _blocks(n, block)
    return warped.reshape(dims), grad.reshape(dims + (3,))


def sample_trilinear(obj, points):
    """Sample a scalar Volume or DisplacementField at continuous coordinates.

    ``points`` is a single (3,) coordinate or an (n, 3) array.  Out-of-bounds
    points are clamped to the edge; integer coordinates reproduce the stored
    values exactly.  Returns a scalar / 3-vector for a single point, else an
    (n,) or (n, 3) array.
    """
    if isinstance(obj, Volume):
        if obj.kind != "scalar":
            raise UnsupportedLayout("trilinear sampling is defined for scalar volumes")
        data = obj.data
    elif isinstance(obj, DisplacementField):
        data = obj.data
    else:
        data = np.asarray(obj)
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if not np.all(np.isfinite(pts)):
        raise NonFiniteCoordinate("sample coordinates must be finite")
    # only each point's 8 corners are read: the lower one and the fraction as in
    # ``_corners``, the upper one min(i + 1, n - 1), which ``_pad`` repeats there
    data = np.asarray(data)
    top = np.array(data.shape[:3])[:, None] - 1
    f = np.clip(pts.T, 0, top)
    lo = f.astype(np.intp)  # f >= 0, so truncation is floor
    f -= lo
    hi = np.minimum(lo + 1, top)
    grid = data.reshape(data.shape[:3] + (-1,))
    v = np.stack([grid[tuple((hi if c >> a & 1 else lo)[a] for a in range(3))] for c in range(8)])
    out = np.empty(v.shape[1:])
    _blend(v.astype(np.float64), f[..., None], out)
    out = out[:, 0] if data.ndim == 3 else out
    return out[0] if single else out


def _warp(data: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample ``data`` (dims or dims + (c,)) at x + u(x) over u's grid."""
    dims = u.shape[:3]
    return _trilinear(data, u.reshape(-1, 3), dims).reshape(dims + data.shape[3:])


def _check_squarings(squarings: int) -> None:
    if not 0 <= squarings <= 1023:
        raise BadParams(f"squarings {squarings} is outside [0, 1023]; 2**1024 overflows a float")


def _exp(v: np.ndarray, squarings: int) -> np.ndarray:
    """Scaling and squaring on arrays: u = v / 2**squarings (C-ordered),
    then ``squarings`` times u = u + u(x + u(x)), i.e. u composed with
    itself.  A squaring adds each kernel block's samples into u's rows at
    once: later blocks read u only at their own rows, and sample the padded
    copy taken before the squaring.  All squarings share one workspace."""
    u = np.divide(v, float(2**squarings), order="C")
    rows = u.reshape(-1, 3)
    ws = _Workspace(u.shape[:3], 3, len(rows), u.shape[:3])
    for _ in range(squarings):
        _trilinear(u, rows, ws=ws, add_to=rows)
    return u


def _check_same_dims(a, b) -> None:
    if a.header.dims != b.header.dims:
        raise DimMismatch(f"grid dims differ: {a.header.dims} vs {b.header.dims}")


def _mask_data(mask: Volume | np.ndarray, dims) -> np.ndarray:
    """A mask's voxel array, checked against the grid ``dims``."""
    mdata = mask.data if isinstance(mask, Volume) else np.asarray(mask)
    if tuple(mdata.shape) != tuple(dims):
        raise DimMismatch(f"mask dims {mdata.shape} do not match field dims {dims}")
    return mdata


def compose(phi_outer: DisplacementField, phi_inner: DisplacementField) -> DisplacementField:
    """(phi_outer o phi_inner)(x) = phi_outer(phi_inner(x)).

    In displacement form: u(x) = u_in(x) + u_out evaluated at x + u_in(x),
    with the outer field sampled trilinearly (clamped at the border).
    """
    _check_same_dims(phi_outer, phi_inner)
    u_in = np.asarray(phi_inner.data, dtype=np.float64)
    u_out_at = _warp(np.asarray(phi_outer.data, dtype=np.float64), u_in)
    return DisplacementField(header=phi_inner.header, data=u_in + u_out_at)


def warp_image(moving: Volume, phi: DisplacementField) -> Volume:
    """Backward-warp a scalar volume: out(x) = moving(x + u(x)) trilinearly."""
    if moving.kind != "scalar":
        raise UnsupportedLayout("warp_image expects a scalar volume; use warp_labels for labels")
    out = _warp(np.asarray(moving.data, dtype=np.float64), np.asarray(phi.data, dtype=np.float64))
    return Volume(header=phi.header, kind="scalar", data=out)


def warp_labels(moving_labels: Volume, phi: DisplacementField) -> Volume:
    """Backward-warp a label volume with nearest-neighbor sampling.

    Rounding is floor(p + 0.5) per component (half rounds up), then clamped
    to the grid, however far a finite displacement points.  Runs in slabs of about _SLAB voxels along the slowest axis
    of the field's component planes: z for the F-ordered fields ``read_nifti``
    returns, x for C-ordered ones; the output has the field's order.
    """
    if moving_labels.kind != "label":
        raise UnsupportedLayout("warp_labels expects a label volume")
    lab = moving_labels.data
    lab = lab if lab.flags.f_contiguous else np.ascontiguousarray(lab)
    source, strides = lab.ravel(order="K"), [s // lab.itemsize for s in lab.strides]
    dims, u = phi.header.dims, phi.data
    order, perm = ("F", (2, 1, 0)) if u.flags.f_contiguous else ("C", (0, 1, 2))
    out = np.empty(dims, dtype=lab.dtype, order=order)
    slabs = out.transpose(perm)  # C-contiguous, like the planes' slabs
    planes = [u[..., axis].transpose(perm) for axis in range(3)]  # slab axis first
    coords = [_axis_coords(n, perm.index(axis)) for axis, n in enumerate(dims)]
    step = max(1, _SLAB // planes[0][0].size)
    pos = np.empty((step,) + planes[0].shape[1:])
    k, idx = np.empty(pos.shape, dtype=np.intp), np.empty(pos.shape, dtype=np.intp)
    for s0 in range(0, len(planes[0]), step):
        s1 = min(s0 + step, len(planes[0]))
        p, ki, ix = pos[: s1 - s0], k[: s1 - s0], idx[: s1 - s0]
        ix[...] = 0
        for axis in range(3):
            coord = coords[axis][s0:s1] if axis == perm[0] else coords[axis]
            # (u + x) + 0.5, floor, clip, cast: clipped first, so no position overflows intp
            np.add(planes[axis][s0:s1], coord, out=p)
            np.add(p, 0.5, out=p)
            np.floor(p, out=p)
            np.clip(p, 0, lab.shape[axis] - 1, out=p)
            np.copyto(ki, p, casting="unsafe")
            np.multiply(ki, strides[axis], out=ki)
            np.add(ix, ki, out=ix)
        source.take(ix, out=slabs[s0:s1], mode="clip")
    return Volume(header=phi.header, kind="label", data=out)


def exp_svf(v: VelocityField, squarings: int = 7) -> DisplacementField:
    """Exponentiate a stationary velocity field by scaling and squaring.

    u_0 = v / 2**squarings, followed by ``squarings`` self-compositions.
    exp(0) is the identity; a constant v exponentiates to the matching
    translation on interior voxels.
    """
    _check_squarings(squarings)
    vdata = np.asarray(v.data, dtype=np.float64)
    if not np.all(np.isfinite(vdata)):
        raise NonFiniteVelocity("velocity field contains non-finite components")
    return DisplacementField(header=v.header, data=_exp(vdata, squarings))


def ic_residual(
    phi_ab: DisplacementField,
    phi_ba: DisplacementField,
    mask: Volume | np.ndarray | None = None,
    norm: str = "euclidean",
) -> tuple[float, DisplacementField]:
    """Residual of phi_ab o phi_ba from the identity, and its mean magnitude.

    The composed displacement r(x) is exactly (phi_ab o phi_ba)(x) - x.  The
    mean is taken over voxels whose composed lookup x + u_ba(x) stayed inside
    the grid, intersected with ``mask`` when given.  ``norm`` selects the
    per-voxel Euclidean norm (default) or the mean absolute value over the
    three components.
    """
    _check_same_dims(phi_ab, phi_ba)
    if norm not in ("euclidean", "component"):
        raise BadParams(f"norm must be 'euclidean' or 'component', got {norm!r}")
    dims = phi_ab.header.dims
    residual = compose(phi_ab, phi_ba)

    u = np.asarray(phi_ba.data, dtype=np.float64)
    valid = np.ones(dims, dtype=bool)
    for axis, n in enumerate(dims):
        pos = _axis_coords(n, axis) + u[..., axis]
        valid &= (pos >= 0.0) & (pos <= n - 1.0)
    if mask is not None:
        valid &= _mask_data(mask, dims) > 0
    if not np.any(valid):
        raise EmptyEvaluationSet("every voxel was excluded from the residual mean")

    r = residual.data[valid]
    if norm == "euclidean":
        mae = float(np.mean(np.sqrt(np.sum(r * r, axis=-1))))
    else:
        mae = float(np.mean(np.abs(r)))
    return mae, residual
