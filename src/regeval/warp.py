"""Displacement-field algebra on voxel grids.

All operations are pure functions over immutable inputs and use float64
internally.  Every sampling operation is total: out-of-grid coordinates are
clamped to the nearest edge voxel (border replicate), so no boundary case can
raise.  Displacements are in voxel units of the grid they live on, with the
backward-warping convention phi(x) = x + u(x).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DimMismatch,
    EmptyEvaluationSet,
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


@lru_cache(maxsize=8)
def _cached_grid(dims: tuple[int, int, int]) -> np.ndarray:
    """Identity coordinate grid of shape dims + (3,), read-only."""
    g = np.empty(dims + (3,), dtype=np.float64)
    g[..., 0] = np.arange(dims[0], dtype=np.float64)[:, None, None]
    g[..., 1] = np.arange(dims[1], dtype=np.float64)[None, :, None]
    g[..., 2] = np.arange(dims[2], dtype=np.float64)[None, None, :]
    g.setflags(write=False)
    return g


def identity_grid(dims) -> np.ndarray:
    """Voxel coordinates x as an array of shape dims + (3,)."""
    return _cached_grid(tuple(int(d) for d in dims))


# Points per kernel block: its float64 temporaries (256 KiB each) stay near L2 size.
_BLOCK = 1 << 15


def _blocks(n: int, fn) -> None:
    """Run ``fn(lo, hi)`` over [0, n) in blocks of _BLOCK points, in order."""
    for lo in range(0, n, _BLOCK):
        fn(lo, min(lo + _BLOCK, n))


def _corners(points: np.ndarray, dims) -> tuple:
    """Flat indices of the 8 cell corners around (n, 3) points, clamped to the
    grid and x-major from v000 to v111, and the fractional weight per axis.
    Works one axis at a time: numpy loops slowly over a trailing axis of 3."""
    strides = (dims[1] * dims[2], dims[2], 1)
    base, steps, f = 0, [], []
    for axis in range(3):
        p = np.clip(points[:, axis], 0, dims[axis] - 1)
        i0 = p.astype(np.int32)  # p >= 0, so truncation is floor
        f.append(p - i0)
        steps.append((i0 < dims[axis] - 1) * strides[axis])
        base = base + i0 * strides[axis]
    dx, dy, dz = steps
    return [base + d for d in (0, dx, dy, dx + dy, dz, dx + dz, dy + dz, dx + dy + dz)], f


def _blend(v: list, fx, fy, fz) -> np.ndarray:
    """Trilinear blend of the corners from ``_corners``, by lerps in place
    (which stay exact at f == 0 and on constant data); consumes ``v``."""
    for c in (0, 2, 4, 6):
        v[c] += (v[c + 1] - v[c]) * fx
    v[0] += (v[2] - v[0]) * fy
    v[4] += (v[6] - v[4]) * fy
    v[0] += (v[4] - v[0]) * fz
    return v[0]


def _trilinear(data: np.ndarray, points: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """Trilinear interpolation of ``data`` (dims or dims + (c,)) at (n, 3)
    points, plus ``shift`` (n, 3) when given.  Every output element sees the
    same float operations for any block split (``_blocks``)."""
    dims = data.shape[:3]
    planes = np.moveaxis(data.reshape(dims + (-1,)), 3, 0)
    planes = np.ascontiguousarray(planes).reshape(len(planes), -1)
    out = np.empty((len(points), len(planes)), dtype=planes.dtype)

    def block(lo, hi):
        pts = points[lo:hi] if shift is None else points[lo:hi] + shift[lo:hi]
        idx, (fx, fy, fz) = _corners(pts, dims)
        for c, plane in enumerate(planes):
            out[lo:hi, c] = _blend([np.take(plane, i) for i in idx], fx, fy, fz)

    _blocks(len(points), block)
    return out[:, 0] if data.ndim == 3 else out


def _warp_with_grad(mdata: np.ndarray, u: np.ndarray):
    """Warped image w(x) = M(x + u(x)) and the trilinear spatial gradient
    dM/dp at the sample positions (zero along axes that were clamped)."""
    dims = u.shape[:3]
    grid, shift = identity_grid(dims).reshape(-1, 3), u.reshape(-1, 3)
    flat = np.ascontiguousarray(mdata).ravel()
    n = np.asarray(mdata.shape, dtype=np.float64) - 1.0
    warped, grad = np.empty(len(grid)), np.empty((len(grid), 3))

    def block(lo, hi):
        pts = grid[lo:hi] + shift[lo:hi]
        idx, (fx, fy, fz) = _corners(pts, mdata.shape)
        v = [np.take(flat, i) for i in idx]
        v000, v100, v010, v110, v001, v101, v011, v111 = v
        gx = ((v100 - v000) * (1 - fy) + (v110 - v010) * fy) * (1 - fz) + (
            (v101 - v001) * (1 - fy) + (v111 - v011) * fy
        ) * fz
        gy = ((v010 - v000) * (1 - fx) + (v110 - v100) * fx) * (1 - fz) + (
            (v011 - v001) * (1 - fx) + (v111 - v101) * fx
        ) * fz
        gz = ((v001 - v000) * (1 - fx) + (v101 - v100) * fx) * (1 - fy) + (
            (v011 - v010) * (1 - fx) + (v111 - v110) * fx
        ) * fy
        for axis, g in enumerate((gx, gy, gz)):
            grad[lo:hi, axis] = g * ((pts[:, axis] >= 0.0) & (pts[:, axis] <= n[axis]))
        warped[lo:hi] = _blend(v, fx, fy, fz)

    _blocks(len(grid), block)
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
        raise ValueError("sample coordinates must be finite")
    out = _trilinear(np.asarray(data, dtype=np.float64), pts)
    return out[0] if single else out


def _warp(data: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample ``data`` (dims or dims + (c,)) at x + u(x) over u's grid."""
    dims = u.shape[:3]
    grid = identity_grid(dims).reshape(-1, 3)
    return _trilinear(data, grid, u.reshape(-1, 3)).reshape(dims + data.shape[3:])


def _exp(v: np.ndarray, squarings: int) -> np.ndarray:
    """Scaling and squaring on arrays: u = v / 2**squarings, then
    ``squarings`` times u = u + u(x + u(x)), i.e. u composed with itself."""
    u = v / float(2**squarings)
    for _ in range(squarings):
        u = u + _warp(u, u)
    return u


def _check_same_dims(a, b) -> None:
    if a.header.dims != b.header.dims:
        raise DimMismatch(f"grid dims differ: {a.header.dims} vs {b.header.dims}")


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
    to the grid.
    """
    if moving_labels.kind != "label":
        raise UnsupportedLayout("warp_labels expects a label volume")
    dims = phi.header.dims
    pos = identity_grid(dims) + np.asarray(phi.data, dtype=np.float64)
    idx = np.floor(pos + 0.5).astype(np.intp)
    for axis in range(3):
        np.clip(idx[..., axis], 0, moving_labels.data.shape[axis] - 1, out=idx[..., axis])
    out = moving_labels.data[idx[..., 0], idx[..., 1], idx[..., 2]]
    return Volume(header=phi.header, kind="label", data=out)


def exp_svf(v: VelocityField, squarings: int = 7) -> DisplacementField:
    """Exponentiate a stationary velocity field by scaling and squaring.

    u_0 = v / 2**squarings, followed by ``squarings`` self-compositions.
    exp(0) is the identity; a constant v exponentiates to the matching
    translation on interior voxels.
    """
    if squarings < 0:
        raise ValueError(f"squarings must be >= 0, got {squarings}")
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
        raise ValueError(f"norm must be 'euclidean' or 'component', got {norm!r}")
    dims = phi_ab.header.dims
    residual = compose(phi_ab, phi_ba)

    pos = identity_grid(dims) + np.asarray(phi_ba.data, dtype=np.float64)
    n = np.asarray(dims, dtype=np.float64) - 1.0
    valid = np.all((pos >= 0.0) & (pos <= n), axis=-1)
    if mask is not None:
        mdata = mask.data if isinstance(mask, Volume) else np.asarray(mask)
        if tuple(mdata.shape) != dims:
            raise DimMismatch(f"mask dims {mdata.shape} do not match field dims {dims}")
        valid &= mdata > 0
    if not np.any(valid):
        raise EmptyEvaluationSet("every voxel was excluded from the residual mean")

    r = residual.data[valid]
    if norm == "euclidean":
        mae = float(np.mean(np.sqrt(np.sum(r * r, axis=-1))))
    else:
        mae = float(np.mean(np.abs(r)))
    return mae, residual
