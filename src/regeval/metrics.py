"""Per-pair evaluation metrics: overlap, surface distance, landmark error,
folding volume, and windowed image correlation.

Conventions fixed here (the evaluation protocol leaves them open):

* HD95 combines directions as max(p95(A to B), p95(B to A)); boundaries use
  6-connectivity with the grid edge counting as a differing neighbor;
  distances run between voxel centers, scaled by spacing.  Nearest
  distances come from probing the voxels around each point, and from
  KD-trees for the points left far; both give a KD-tree query's bits.
* Empty-structure policy: both sets empty -> Missing (None, excluded from
  means); exactly one empty -> DSC 0 and HD95 penalty equal to the image
  diagonal in mm.
* NDV decomposes every grid cell into the fixed six-tetrahedron Kuhn
  split of the deformed lattice and accumulates negative signed volume.
  A tetrahedron's edge chain c000 -> c_a -> c_ab -> c111 deforms to P + D
  (P a permutation matrix, each column of D u's difference along a cube
  edge).  If sum_c |du_c| <= q < 1 on every edge, ||P^T D||_1 <= q, so
  det(I + P^T D) >= (1 - q)^3 > 0.  With q = 0.9 that margin, 1e-3, dwarfs
  the rounding of the determinant and of psi = x + u for |u| <= 2**20, so
  cell planes the bound proves skip the tetrahedra and keep the kernel's 0.0.
* LNCC windows are cubic and cropped at the volume border; variance sums
  carry an epsilon guard of 1e-5.
"""
from __future__ import annotations

import itertools
import multiprocessing
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DimMismatch,
    EmptyLabelList,
    EmptyMask,
    NonFiniteData,
    OutOfBoundsLandmark,
    UnpairedLandmarks,
)
from .stats import percentile
from .volio import DisplacementField, LandmarkSet, Volume
from .warp import _BLOCK, _check_same_dims, sample_trilinear, warp_labels

LNCC_EPS = 1e-5


@dataclass
class PairReport:
    """All metrics for one (method, image pair) evaluation.

    ``None`` marks missing values: labels absent from both segmentations,
    or metrics that were not computed (no landmarks).
    """

    method_id: str = ""
    pair_id: str = ""
    dsc_per_label: dict = field(default_factory=dict)
    dsc_mean: float | None = None
    hd95_per_label: dict = field(default_factory=dict)
    hd95_mean: float | None = None
    tre_per_landmark: list = field(default_factory=list)
    tre_mean: float | None = None
    ndv: float | None = None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in ("dsc_per_label", "hd95_per_label"):
            d[key] = {str(k): v for k, v in d[key].items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PairReport":
        """Inverse of ``to_dict``; KeyError for a missing field, TypeError
        for a value of the wrong type.  Other keys are ignored."""
        for key in ("method_id", "pair_id"):
            if not isinstance(d[key], str):
                raise TypeError(f"{key} {d[key]!r} is not a string")
        return cls(
            method_id=d["method_id"],
            pair_id=d["pair_id"],
            dsc_per_label={int(k): _metric_value(v) for k, v in d["dsc_per_label"].items()},
            dsc_mean=_metric_value(d["dsc_mean"]),
            hd95_per_label={int(k): _metric_value(v) for k, v in d["hd95_per_label"].items()},
            hd95_mean=_metric_value(d["hd95_mean"]),
            tre_per_landmark=[_metric_value(v) for v in d["tre_per_landmark"]],
            tre_mean=_metric_value(d["tre_mean"]),
            ndv=_metric_value(d["ndv"]),
        )


def _metric_value(v):
    """A stored metric value as it is: a finite number or None (JSON null).
    NaN, an infinity and an integer beyond the float range are rejected."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if v is None or (number and abs(v) <= sys.float_info.max):  # NaN fails too
        return v
    raise TypeError(f"metric value {v!r} is not a finite number or null")


# ---------------------------------------------------------------------------
# Dice


def dsc(fixed_labels: Volume, warped_labels: Volume, labels: Sequence[int]):
    """Dice overlap 2|A & B| / (|A| + |B|) per requested label, plus the mean.

    A label present in neither volume is Missing (None) and excluded from the
    mean; a label present in exactly one is 0.
    """
    _check_same_dims(fixed_labels, warped_labels)
    labels = list(labels)
    if not labels:
        raise EmptyLabelList("dsc needs at least one label")
    # the counts do not depend on the order: no copy when both are F-ordered
    order = "F" if fixed_labels.data.flags.f_contiguous and warped_labels.data.flags.f_contiguous else "C"
    fl = fixed_labels.data.ravel(order)
    wl = warped_labels.data.ravel(order)
    top = max(int(fl.max()), int(wl.max()), max(int(l) for l in labels))
    n_fixed = np.bincount(fl, minlength=top + 1)
    n_warped = np.bincount(wl, minlength=top + 1)
    eq = fl == wl
    n_both = np.bincount(fl[eq], minlength=top + 1)

    per_label: dict[int, float | None] = {}
    present: list[float] = []
    for lab in labels:
        lab = int(lab)
        a, b, inter = int(n_fixed[lab]), int(n_warped[lab]), int(n_both[lab])
        if a == 0 and b == 0:
            per_label[lab] = None
            continue
        value = 2.0 * inter / (a + b)
        per_label[lab] = value
        present.append(value)
    mean = float(np.mean(present)) if present else None
    return per_label, mean


# ---------------------------------------------------------------------------
# HD95


def _boundary_by_label(lab: np.ndarray, labels: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """HD95's boundary form, from one pass over ``lab`` in its own memory
    order: the grid padded by one voxel on each side, where each boundary
    voxel holds its label's index in ``labels`` and every other voxel -1,
    and per index, that label's boundary voxels as flat indices into it (a
    repeated label's sit at its last index; its other indices are empty).

    A voxel belongs to its label's boundary when any of its six neighbors
    carries a different label or lies beyond the grid edge.
    """
    bnd = np.zeros_like(lab, dtype=bool)  # in lab's memory order
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        diff = lab[tuple(lo)] != lab[tuple(hi)]
        bnd[tuple(lo)] |= diff
        bnd[tuple(hi)] |= diff
        edge = [slice(None)] * 3
        edge[axis] = 0
        bnd[tuple(edge)] = True
        edge[axis] = lab.shape[axis] - 1
        bnd[tuple(edge)] = True

    order = "F" if lab.flags.f_contiguous else "C"  # other views are copied in C order
    flat = np.flatnonzero(bnd.ravel(order))
    at = lab.ravel(order)[flat].astype(np.int64)
    n = lab.shape
    pmap = np.full(tuple(k + 2 for k in n), -1, np.min_scalar_type(-1 - len(labels)))
    # lab's axes from slowest to fastest in its order, and the padded grid's
    # strides in elements (by hand: unravel_index and ravel_multi_index took twice as long)
    a0, a1, a2 = (0, 1, 2) if order == "C" else (2, 1, 0)
    step = [s // pmap.itemsize for s in pmap.strides]
    pos = [np.zeros(0, np.intp)] * len(labels)
    for label, i in {l: i for i, l in enumerate(labels)}.items():
        f = flat[at == label]
        q = f // n[a2]
        s = q // n[a1]
        pos[i] = s * step[a0] + (q - s * n[a1]) * step[a1] + (f - q * n[a2]) * step[a2] + sum(step)
        pmap.ravel()[pos[i]] = i
    return pmap, pos


def _diagonal_mm(dims, spacing) -> float:
    d = (np.asarray(dims, dtype=np.float64) - 1.0) * np.asarray(spacing, dtype=np.float64)
    return float(np.sqrt(np.sum(d * d)))


# unbalanced, uncompacted KD-trees build faster; exact distances do not depend on the shape
_TREE = dict(balanced_tree=False, compact_nodes=False)


def _query_workers() -> int:
    """Query threads of the KD-trees that take the points HD95's probe
    leaves: one inside a worker of a pool (eval's pool already runs one
    worker per CPU, so more threads only contend), every CPU in a lone
    process (``eval --jobs 1``, ``bench``).  Distances do not depend on it."""
    return 1 if multiprocessing.parent_process() is not None else -1


def _stages(spacing: tuple):
    """(offsets, bound) per probe stage: the 3x3x3 box's offsets by length,
    then the rings at Chebyshev radius 2, 3, ...; ``bound`` is the least
    length of an offset not probed by the end of the stage."""
    g = np.arange(-1, 2)
    box = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    length = np.sqrt(np.sum((box * np.asarray(spacing)) ** 2, axis=1))
    order = np.argsort(length, kind="stable")[1:]  # the center is checked first, apart
    box, length = box[order], length[order]
    cuts = np.flatnonzero(np.diff(length) > 1e-6 * length[1:]) + 1
    for offsets, beyond in zip(np.split(box, cuts), [*length[cuts], np.inf]):
        yield offsets, min(beyond, 2 * min(spacing))
    for r in itertools.count(2):
        full, inner, ends = np.arange(-r, r + 1), np.arange(1 - r, r), [-r, r]
        faces = ((ends, full, full), (inner, ends, full), (inner, inner, ends))
        ring = [np.stack(np.meshgrid(*f, indexing="ij"), axis=-1).reshape(-1, 3) for f in faces]
        yield np.concatenate(ring), (r + 1) * min(spacing)


def _probe(best, ijk, lab, pmap, mm, offsets) -> None:
    """Lower ``best`` to the distance from each point (padded voxel indices
    ``ijk``, label index ``lab``) to each voxel of its label at ``offsets``,
    formed as cKDTree forms it: differences, squared, summed, square root."""
    step = max(1, (1 << 18) // len(offsets))  # (point, offset) pairs gathered at once
    for lo in range(0, len(lab), step):
        p = [c[lo : lo + step, None] for c in ijk]
        q = [c + o for c, o in zip(p, offsets.T)]
        # a neighbour off the grid is clipped into the padding, which holds -1
        hit = pmap.ravel()[np.ravel_multi_index(q, pmap.shape, mode="clip")] == lab[lo : lo + step, None]
        rows, cols = hit.nonzero()
        sq = 0.0
        for ax in range(3):
            d = mm[ax][p[ax][rows, 0]] - mm[ax][q[ax][rows, cols]]
            sq = sq + d * d
        np.minimum.at(best, lo + rows, np.sqrt(sq))


def _directed(side: FixedSide, other: FixedSide, indices: list[int]) -> list[np.ndarray]:
    """Per label index, the distance in mm from each of ``side``'s boundary
    voxels to the nearest of ``other``'s with that label, with a cKDTree
    query's bits.

    A voxel on both boundaries is at 0.  The others probe the box, then the
    rings, while the gathers so far stay within 27 per voxel resolved.  A
    voxel is resolved once its best distance is below the stage's bound
    less a margin far above any rounding; ``other``'s KD-trees take the rest."""
    side_pos = side.boundary[1]
    sizes = [side_pos[i].size for i in indices]
    pos = np.concatenate([side_pos[i] for i in indices])
    idx = np.repeat(indices, sizes)
    pmap, sp = other.boundary[0], np.asarray(other.seg.spacing)
    out = np.zeros(len(pos))
    todo = np.flatnonzero(pmap.ravel()[pos] != idx)
    lab, best = idx[todo], np.full(todo.size, np.inf)
    ijk = np.unravel_index(pos[todo], pmap.shape)
    mm = [np.arange(-1, n + 1) * sp[ax : ax + 1] for ax, n in enumerate(other.seg.dims)]  # as the trees' points
    spent = len(pos)
    for offsets, bound in _stages(other.seg.spacing):
        spent += todo.size * len(offsets)
        if not todo.size or spent > 27 * (len(pos) - todo.size):
            break
        _probe(best, ijk, lab, pmap, mm, offsets)
        done = best < bound * (1.0 - 1e-9)
        out[todo[done]] = best[done]
        todo, lab, best, *ijk = (x[~done] for x in (todo, lab, best, *ijk))
    far_mm = (np.stack(ijk, axis=1) - 1) * sp
    for li in np.unique(lab):
        far = lab == li
        out[todo[far]] = other.tree(li).query(far_mm[far], workers=_query_workers())[0]
    return np.split(out, np.cumsum(sizes)[:-1])


def hd95(fixed_labels: Volume, warped_labels: Volume, label: int, spacing=None):
    """95th-percentile symmetric surface distance in mm for one label.

    Returns None (Missing) when the label is absent from both volumes and
    the image-diagonal penalty when absent from exactly one.
    """
    _check_same_dims(fixed_labels, warped_labels)
    if spacing is not None:
        fixed_labels = replace(fixed_labels, header=replace(fixed_labels.header, spacing=spacing))
    return _hd95_many(FixedSide(fixed_labels, [label]), warped_labels)[int(label)]


def _hd95_many(fixed: FixedSide, warped_labels: Volume):
    """hd95 for each of the FixedSide's labels; the warped labels get a
    FixedSide of their own, and each direction probes all labels at once."""
    warped = FixedSide(replace(warped_labels, header=fixed.seg.header), fixed.labels)
    out: dict[int, float | None] = {}
    both = []
    # a repeated label's last index holds its voxels, and sets its value last
    for i, (lab, f, w) in enumerate(zip(fixed.labels, fixed.boundary[1], warped.boundary[1])):
        out[lab] = _diagonal_mm(fixed.seg.dims, fixed.seg.spacing) if bool(f.size) != bool(w.size) else None
        if f.size and w.size:
            both.append(i)
    if both:
        for i, a, b in zip(both, _directed(fixed, warped, both), _directed(warped, fixed, both)):
            out[fixed.labels[i]] = max(percentile(a, 95.0), percentile(b, 95.0))
    return out


# ---------------------------------------------------------------------------
# TRE


def tre(
    lm_fixed: LandmarkSet,
    lm_moving: LandmarkSet,
    phi: DisplacementField,
    spacing=None,
) -> np.ndarray:
    """Per-landmark target registration error in mm.

    Each fixed landmark is pushed through the field (q = p + u(p), trilinear)
    and compared against its named counterpart in the moving set.
    """
    if len(lm_fixed) != len(lm_moving) or lm_fixed.names != lm_moving.names:
        raise UnpairedLandmarks("fixed and moving landmark sets must share names and order")
    if spacing is None:
        spacing = phi.spacing
    dims = np.asarray(phi.dims, dtype=np.float64)
    for ls, tag in ((lm_fixed, "fixed"), (lm_moving, "moving")):
        if len(ls) and (np.any(ls.points < 0.0) or np.any(ls.points > dims - 1.0)):
            raise OutOfBoundsLandmark(f"{tag} landmarks fall outside the {phi.dims} grid")
    if len(lm_fixed) == 0:
        return np.zeros(0, dtype=np.float64)
    u = sample_trilinear(phi, lm_fixed.points)
    q = lm_fixed.points + np.atleast_2d(u)
    delta = (q - lm_moving.points) * np.asarray(spacing, dtype=np.float64)
    return np.sqrt(np.sum(delta * delta, axis=1))


# ---------------------------------------------------------------------------
# NDV

# Kuhn split of the unit cube: six tetrahedra (c000, c_first, c_edge, c111)
# along the vertex chains from (0,0,0) to (1,1,1).  Each face diagonal
# (edge corner) is shared by two chains with opposite permutation parity;
# signs below make the identity map yield +1/6 per tetrahedron.
_KUHN_PAIRS = (
    # (edge corner offset, first axis of chain a, first axis of chain b)
    ((1, 1, 0), 0, 1),  # diagonal of the xy face: chains x,y (+) and y,x (-)
    ((1, 0, 1), 2, 0),  # xz face: chains z,x (+) and x,z (-)
    ((0, 1, 1), 1, 2),  # yz face: chains y,z (+) and z,y (-)
)

_AXIS_OFFSETS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class NdvMask:
    """The cells an NDV sum covers, found once per mask and grid.

    A cell counts when any of its 8 corner voxels is masked (> 0); the
    normalizer is the mask's nonzero voxel count.  The cells are split
    into slabs along x, and each slab keeps the flat index, in its
    (sx + 1, ny, nz) lattice, of every counted cell's first corner, in C
    order.  ``box`` slices the counted cells' corners' bounding box (None
    without cells).  Raises DimMismatch or EmptyMask as ``ndv`` does.
    """

    def __init__(self, mask: Volume | np.ndarray, dims):
        mdata = mask.data if isinstance(mask, Volume) else np.asarray(mask)
        if tuple(mdata.shape) != tuple(dims):
            raise DimMismatch(f"mask dims {mdata.shape} do not match field dims {dims}")
        self.dims = tuple(dims)
        self.voxels = int(np.count_nonzero(mdata))
        if self.voxels == 0:
            raise EmptyMask("ndv mask selects no voxels")
        in_mask = mdata > 0
        cm = (
            in_mask[:-1, :-1, :-1]
            | in_mask[1:, :-1, :-1]
            | in_mask[:-1, 1:, :-1]
            | in_mask[:-1, :-1, 1:]
            | in_mask[1:, 1:, :-1]
            | in_mask[1:, :-1, 1:]
            | in_mask[:-1, 1:, 1:]
            | in_mask[1:, 1:, 1:]
        )
        nx, ny, nz = self.dims
        # slabs of about 2**19 cells; their sums set the bits of the result
        slab = max(1, int(2**19 // (ny * nz + 1)))
        self.slabs: list[tuple[int, int, np.ndarray]] = []
        for x0 in range(0, nx - 1, slab):
            x1 = min(x0 + slab, nx - 1)
            i, j, k = np.nonzero(cm[x0:x1])
            if i.size:
                self.slabs.append((x0, x1, (i * ny + j) * nz + k))
        spans = [np.flatnonzero(cm.any(axis=tuple({0, 1, 2} - {a}))) for a in range(3)]
        self.box = tuple(slice(s[0], s[-1] + 2) for s in spans) if self.slabs else None


# ndv's certificate: the edge bound q and the |u| guard (module docstring)
_FOLD_FREE = 0.9
_U_GUARD = 2.0**20


def _fold_free_planes(u: np.ndarray) -> np.ndarray:
    """Per cell plane along x of ``u`` (the field on a box of corners),
    whether ``ndv``'s certificate proves it fold-free: on each axis, the
    components' largest |du_c| along it on the plane sum to at most
    _FOLD_FREE, and |u| at the plane's first corner is _FOLD_FREE * (ny +
    nz) below _U_GUARD (so |u| <= _U_GUARD on the plane).  NaN and infinity
    fail it.  Each component is read in flat copies of blocks of planes
    along its slowest axis (z for an F-ordered field, else x)."""
    by_z = u.strides[2] > u.strides[0]
    order = "F" if by_z else "C"
    nx, ny, nz = u.shape[:3]
    plane, flat_step = (nx * ny, (1, nx, nx * ny)) if by_z else (ny * nz, (ny * nz, nz, 1))
    step = max(1, 8 * _BLOCK // plane)
    block, diff = np.empty((2, (step + 1) * plane))
    edge = np.zeros((3, 3, nx))  # component, axis, corner plane (x: cell plane)
    for c in range(3):
        v = u[..., c]
        for lo in range(0, (nz if by_z else nx) - 1, step):
            b = v[:, :, lo : lo + step + 1] if by_z else v[lo : lo + step + 1]
            flat, d = block[: b.size], diff[: b.size]
            np.copyto(flat.reshape(b.shape, order=order), b)
            at = edge[c, :, 0 if by_z else lo :]
            for a, k in enumerate(flat_step):
                np.abs(np.subtract(flat[k:], flat[:-k], out=d[:-k]), out=d[:-k])
                d3 = d.reshape(b.shape, order=order)
                d3[(slice(None),) * a + (-1,)] = 0.0  # no edges: pairs across a row's end or past the block
                m = d3.max(axis=2).max(axis=1) if by_z else d3.max(axis=(1, 2))
                np.maximum(at[a, : m.size], m, out=at[a, : m.size])
    per_axis = [edge[:, 0, :-1]] + [np.maximum(edge[:, a, :-1], edge[:, a, 1:]) for a in (1, 2)]
    bound = np.max([e.sum(axis=0) for e in per_axis], axis=0)
    first = np.abs(u[:-1, 0, 0]).max(axis=1)
    return (bound <= _FOLD_FREE) & (first <= _U_GUARD - _FOLD_FREE * (ny + nz))


def _folded_volume_cells(psi_flat, cells: np.ndarray, ny: int, nz: int) -> np.ndarray:
    """Per cell, six times its Kuhn tetrahedra's negative signed volume.

    ``psi_flat`` holds the three deformed coordinate components of a
    lattice of x-planes, raveled; ``cells`` the flat index of each cell's
    first corner.  The cells run in chunks of ``warp._BLOCK``, so the
    temporaries stay in cache.  Every value goes through the same float
    operations as on the full grid.
    """

    def corner(comp: int, offset) -> np.ndarray:
        ox, oy, oz = offset
        return psi_flat[comp][(ox * ny + oy) * nz + oz :].take(at)

    folded = np.zeros(cells.shape, dtype=np.float64)
    for lo in range(0, cells.size, _BLOCK):
        at, acc = cells[lo : lo + _BLOCK], folded[lo : lo + _BLOCK]
        c000 = [corner(c, (0, 0, 0)) for c in range(3)]
        w = [corner(c, (1, 1, 1)) - c000[c] for c in range(3)]
        axis_delta = [[corner(c, off) - c000[c] for c in range(3)] for off in _AXIS_OFFSETS]
        for edge_offset, first_a, first_b in _KUHN_PAIRS:
            e = [corner(c, edge_offset) - c000[c] for c in range(3)]
            # cross = e x d111
            cx = e[1] * w[2] - e[2] * w[1]
            cy = e[2] * w[0] - e[0] * w[2]
            cz = e[0] * w[1] - e[1] * w[0]
            for sign, first in ((1.0, first_a), (-1.0, first_b)):
                d1 = axis_delta[first]
                det = d1[0] * cx + d1[1] * cy + d1[2] * cz
                signed = det if sign > 0 else -det
                np.minimum(signed, 0.0, out=signed)
                acc -= signed
    return folded


def ndv(phi: DisplacementField, mask: Volume | np.ndarray | NdvMask) -> float:
    """Non-diffeomorphic volume fraction of the deformed grid inside a mask.

    The deformed lattice psi(x) = x + u(x) is cut into six tetrahedra per
    cell; folded volume is the accumulated magnitude of negative signed
    tetrahedron volumes over cells touching the mask, normalized by the
    mask's voxel count.  Orientation-preserving fields give exactly 0.
    Only the cells touching the mask are computed; an ``NdvMask`` built
    for ``phi``'s grid skips finding them again.  Cells in planes along x
    that ``_fold_free_planes`` proves fold-free keep 0.0, and runs of the
    other planes go through the tetrahedra; each slab sums in C order.
    """
    cells = mask if isinstance(mask, NdvMask) else NdvMask(mask, phi.dims)
    if cells.dims != phi.dims:
        raise DimMismatch(f"mask dims {cells.dims} do not match field dims {phi.dims}")
    nx, ny, nz = phi.dims
    u = np.asarray(phi.data, dtype=np.float64)
    axes = [np.arange(n, dtype=np.float64) for n in phi.dims]
    free = np.ones(max(nx - 1, 0), dtype=bool)  # planes beyond the box hold no counted cell
    if cells.box is not None:
        free[cells.box[0].start : cells.box[0].stop - 1] = _fold_free_planes(u[cells.box])
    folded = 0.0
    for x0, x1, first_corners in cells.slabs:
        todo = np.flatnonzero(~free[x0:x1])
        if not todo.size:
            continue  # each cell's value is 0.0, and so is their sum
        starts = np.searchsorted(first_corners, np.arange(x1 - x0 + 1) * (ny * nz))
        per_cell = np.zeros(first_corners.shape)
        for run in np.split(todo, np.flatnonzero(np.diff(todo) > 1) + 1):
            a, b = run[0], run[-1] + 1
            lattice = u[x0 + a : x0 + b + 1]
            psi = np.empty((3,) + lattice.shape[:3])  # C order: each component ravels as a view
            for c, ax in enumerate((axes[0][x0 + a : x0 + b + 1, None, None], axes[1][:, None], axes[2])):
                np.add(lattice[..., c], ax, out=psi[c])
            at = slice(starts[a], starts[b])
            per_cell[at] = _folded_volume_cells(psi.reshape(3, -1), first_corners[at] - a * ny * nz, ny, nz)
        folded += float(np.sum(per_cell)) / 6.0
    return folded / float(cells.voxels)


# ---------------------------------------------------------------------------
# LNCC


def _box_sum(x: np.ndarray, r: int) -> np.ndarray:
    """Sum of x over the cubic window of radius r around each voxel,
    cropped at the volume border.  Exact via cumulative sums, one axis at a
    time: slab by slab, c[k + 1] = c[k] + x[k] (np.cumsum's order), then
    out[i] = c[hi] - c[lo] for the cropped window [lo, hi) of each i.

    One buffer holds every axis's running sums.  Axis 0 writes a fresh
    C-ordered output; axes 1 and 2 write over it, as their differences
    read only the running sums."""
    size = x.size
    sums = np.empty(max(size + size // n for n in x.shape))
    out = np.empty(x.shape)
    for axis in range(3):
        src = np.moveaxis(x if axis == 0 else out, axis, 0)
        n = src.shape[0]
        c = sums[: size + size // n].reshape((n + 1,) + src.shape[1:])
        c[0] = 0.0
        c[1] = src[0]
        for k in range(1, n):
            np.add(c[k], src[k], out=c[k + 1])
        dst = np.moveaxis(out, axis, 0)
        # lo = max(i - r, 0) is 0 below a; hi = min(i + r, n - 1) + 1 is n from b on
        a, b = min(r, n), max(n - r, 0)
        np.subtract(c[r + 1 : r + 1 + min(a, b)], c[0], out=dst[: min(a, b)])
        if a < b:
            np.subtract(c[a + r + 1 : b + r + 1], c[a - r : b - r], out=dst[a:b])
        else:
            np.subtract(c[n], c[0], out=dst[b:a])
        if max(a, b) < n:
            np.subtract(c[n], c[max(a, b) - r : n - r], out=dst[max(a, b) :])
    return out


def _box_count(dims, r: int) -> np.ndarray:
    """Number of in-grid voxels in each cropped window (analytic)."""
    per_axis = []
    for n in dims:
        i = np.arange(n, dtype=np.float64)
        per_axis.append(np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1.0)
    return per_axis[0][:, None, None] * per_axis[1][None, :, None] * per_axis[2][None, None, :]


class _LnccTerms:
    """Window sums of a fixed image, reused for every image compared with it
    (``metrics.lncc`` and the optimizer's iterations)."""

    def __init__(self, fdata: np.ndarray, window: int):
        self.fdata = fdata
        self.r = window // 2
        self.n = _box_count(fdata.shape, self.r)
        self.sa = _box_sum(fdata, self.r)
        self.abar = self.sa / self.n
        self.va = _box_sum(fdata * fdata, self.r) - self.sa * self.abar + LNCC_EPS

    def _ncc(self, w: np.ndarray):
        """The per-voxel NCC map of ``w`` and the terms its adjoint reuses:
        (ncc, window mean of w, variance sum of w, 1 / sqrt(va * vb)).
        Each term is formed in place, by the ufuncs, operands and order of
        ``cross * inv_sqrt`` with vb = box(w * w) - sb * bbar + eps,
        cross = box(f * w) - sa * bbar and inv_sqrt = 1 / sqrt(va * vb)."""
        sb = _box_sum(w, self.r)
        bbar = sb / self.n
        vb = _box_sum(w * w, self.r)
        vb -= np.multiply(sb, bbar, out=sb)
        vb += LNCC_EPS
        cross = _box_sum(np.multiply(self.fdata, w, out=sb), self.r)
        cross -= np.multiply(self.sa, bbar, out=sb)
        inv_sqrt = np.multiply(self.va, vb, out=sb)
        np.sqrt(inv_sqrt, out=inv_sqrt)
        np.divide(1.0, inv_sqrt, out=inv_sqrt)
        cross *= inv_sqrt
        return cross, bbar, vb, inv_sqrt

    def value(self, w: np.ndarray) -> float:
        return float(np.mean(self._ncc(w)[0]))

    def value_and_adjoint(self, w: np.ndarray):
        """LNCC mean and its exact derivative with respect to ``w``:

            (f * box(inv_sqrt) - box(inv_sqrt * abar) - w * box(beta)
             + box(beta * bbar)) / size,   beta = ncc / vb,

        summed in that order, each term formed in place."""
        ncc, bbar, vb, inv_sqrt = self._ncc(w)
        value = float(np.mean(ncc))
        beta = np.divide(ncc, vb, out=vb)
        del ncc
        dw = _box_sum(inv_sqrt, self.r)
        dw *= self.fdata
        dw -= _box_sum(np.multiply(inv_sqrt, self.abar, out=inv_sqrt), self.r)
        del inv_sqrt
        t = _box_sum(beta, self.r)
        dw -= np.multiply(t, w, out=t)
        del t
        dw += _box_sum(np.multiply(beta, bbar, out=beta), self.r)
        dw /= self.fdata.size
        return value, dw


def lncc(a: Volume, b: Volume, window: int = 9) -> float:
    """Mean local normalized cross-correlation over all voxels.

    Windows are cubes of the given odd side length, cropped at the border;
    each window's means are removed and both variance sums carry the epsilon
    guard, so constant windows contribute 0 rather than dividing by zero.
    """
    _check_same_dims(a, b)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    ad = np.asarray(a.data, dtype=np.float64)
    return _LnccTerms(ad, window).value(np.asarray(b.data, dtype=np.float64))


# ---------------------------------------------------------------------------
# Pair orchestration


class FixedSide:
    """What evaluating a pair derives from the fixed segmentation and the
    NDV mask alone: the label list, HD95's boundary map and KD-trees (HD95
    builds these for the warped labels too), and the NDV cells.

    ``labels`` defaults to the sorted nonzero labels of ``seg``; ``mask``
    (for NDV) defaults to the union of those labels.  The boundary, trees
    and NDV cells are built on first use and then kept, so one
    FixedSide serves every field evaluated against the same pair.
    """

    def __init__(
        self,
        seg: Volume,
        labels: Sequence[int] | None = None,
        mask: Volume | np.ndarray | None = None,
    ):
        self.seg = seg
        if labels is None:
            labels = [int(l) for l in np.unique(seg.data) if l != 0]
        self.labels = [int(l) for l in labels]
        self._mask = mask
        self._trees: dict = {}

    @cached_property
    def boundary(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The padded boundary map and, per index into ``labels``, that
        label's padded boundary positions (see ``_boundary_by_label``)."""
        return _boundary_by_label(self.seg.data, self.labels)

    def tree(self, index: int):
        """The KD-tree of ``labels[index]``'s boundary points in mm, built
        when the probe first leaves one."""
        if index not in self._trees:
            # imported here: an eval whose points all resolve never loads scipy
            from scipy.spatial import cKDTree

            pmap, pos = self.boundary
            ijk = np.stack(np.unravel_index(pos[index], pmap.shape), axis=1) - 1
            self._trees[index] = cKDTree(ijk * np.asarray(self.seg.spacing), **_TREE)
        return self._trees[index]

    @cached_property
    def ndv_mask(self) -> NdvMask:
        if self._mask is not None:
            return NdvMask(self._mask, self.seg.dims)
        labels = self.labels
        data = self.seg.data
        return NdvMask(np.isin(data, np.asarray(labels)) if labels else data > 0, self.seg.dims)


def evaluate_pair(
    fixed_seg: Volume | FixedSide,
    moving_seg: Volume,
    phi: DisplacementField,
    labels: Sequence[int] | None = None,
    landmarks: tuple[LandmarkSet, LandmarkSet] | None = None,
    mask: Volume | np.ndarray | None = None,
    method_id: str = "",
    pair_id: str = "",
) -> PairReport:
    """Warp the moving segmentation and fill a PairReport.

    ``fixed_seg`` is the fixed segmentation, or a ``FixedSide`` already
    built from it (which then holds ``labels`` and ``mask``); see
    ``FixedSide`` for their defaults.  The ZeroDisplacement baseline is
    this function applied to the zero field.  A field holding NaN or
    infinity raises NonFiniteData before any metric runs.
    """
    if isinstance(fixed_seg, FixedSide):
        if labels is not None or mask is not None:
            raise ValueError("labels and mask come from the FixedSide")
        fixed = fixed_seg
    else:
        fixed = FixedSide(fixed_seg, labels, mask)
    seg = fixed.seg
    _check_same_dims(seg, moving_seg)
    if seg.header.dims != phi.header.dims:
        raise DimMismatch(f"field dims {phi.header.dims} do not match segmentation {seg.header.dims}")
    if not np.all(np.isfinite(phi.data)):  # e.g. overflow in a unit conversion
        raise NonFiniteData("displacement field contains non-finite values")
    labels = fixed.labels

    warped = warp_labels(moving_seg, phi)
    dsc_per_label, dsc_mean = dsc(seg, warped, labels)
    hd95_per_label = _hd95_many(fixed, warped)
    hd95_present = [v for v in hd95_per_label.values() if v is not None]
    hd95_mean = float(np.mean(hd95_present)) if hd95_present else None

    ndv_value = ndv(phi, fixed.ndv_mask)

    tre_list: list[float] = []
    tre_mean = None
    if landmarks is not None:
        lm_fixed, lm_moving = landmarks
        distances = tre(lm_fixed, lm_moving, phi, seg.spacing)
        tre_list = [float(d) for d in distances]
        tre_mean = float(np.mean(distances)) if len(tre_list) else None

    return PairReport(
        method_id=method_id,
        pair_id=pair_id,
        dsc_per_label=dsc_per_label,
        dsc_mean=dsc_mean,
        hd95_per_label=hd95_per_label,
        hd95_mean=hd95_mean,
        tre_per_landmark=tre_list,
        tre_mean=tre_mean,
        ndv=ndv_value,
    )
