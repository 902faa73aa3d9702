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


def _corner_flat_indices(points: np.ndarray, dims) -> tuple:
    """Flat base index, per-axis flat strides toward the upper corner, and
    fractional weights; everything clamped to the grid."""
    n = np.asarray(dims, dtype=points.dtype) - 1
    p = np.clip(points, 0, n)
    i0 = p.astype(np.int32)  # p >= 0, so truncation is floor
    f = p - i0
    i1 = np.minimum(i0 + 1, np.asarray(dims, dtype=np.int32) - 1)
    sx = dims[1] * dims[2]
    sy = dims[2]
    base = (i0[:, 0] * sx + i0[:, 1] * sy) + i0[:, 2]
    dx = (i1[:, 0] - i0[:, 0]) * sx
    dy = (i1[:, 1] - i0[:, 1]) * sy
    dz = i1[:, 2] - i0[:, 2]
    return base, dx, dy, dz, f


def _trilinear(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of ``data`` (dims or dims + (c,)) at (n, 3) points.

    Gathers the 8 cell corners through flat indices with ``np.take`` (cheaper
    than fancy indexing, same values) and blends with lerps, which stay exact
    at f == 0 and on constant data.
    """
    dims = data.shape[:3]
    base, dx, dy, dz, f = _corner_flat_indices(points, dims)
    flat = np.ascontiguousarray(data).reshape((dims[0] * dims[1] * dims[2], -1))
    fx, fy, fz = f[:, 0, None], f[:, 1, None], f[:, 2, None]

    def corner(idx):
        return np.take(flat, idx, axis=0)

    bxy = base + dx + dy
    c00 = corner(base)
    c00 += (corner(base + dx) - c00) * fx
    c10 = corner(base + dy)
    c10 += (corner(bxy) - c10) * fx
    c01 = corner(base + dz)
    c01 += (corner(base + dx + dz) - c01) * fx
    c11 = corner(base + dy + dz)
    c11 += (corner(bxy + dz) - c11) * fx
    c00 += (c10 - c00) * fy
    c01 += (c11 - c01) * fy
    c00 += (c01 - c00) * fz
    out = c00
    return out[:, 0] if data.ndim == 3 else out


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
    pos = (identity_grid(dims) + u).reshape(-1, 3)
    return _trilinear(data, pos).reshape(dims + data.shape[3:])


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
