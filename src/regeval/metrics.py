"""Per-pair evaluation metrics: overlap, surface distance, landmark error,
folding volume, and windowed image correlation.

Conventions fixed here (the evaluation protocol leaves them open):

* HD95 combines directions as max(p95(A to B), p95(B to A)); boundaries use
  6-connectivity with the grid edge counting as a differing neighbor;
  distances run between voxel centers, scaled by spacing.
* Empty-structure policy: both sets empty -> Missing (None, excluded from
  means); exactly one empty -> DSC 0 and HD95 penalty equal to the image
  diagonal in mm.
* NDV decomposes every grid cell into the fixed six-tetrahedron Kuhn
  split of the deformed lattice and accumulates negative signed volume.
* LNCC windows are cubic and cropped at the volume border; variance sums
  carry an epsilon guard of 1e-5.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimMismatch,
    EmptyLabelList,
    EmptyMask,
    OutOfBoundsLandmark,
    UnpairedLandmarks,
)
from .stats import percentile
from .volio import DisplacementField, LandmarkSet, Volume
from .warp import _check_same_dims, sample_trilinear, warp_labels

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
        return {
            "method_id": self.method_id,
            "pair_id": self.pair_id,
            "dsc_per_label": {str(k): v for k, v in self.dsc_per_label.items()},
            "dsc_mean": self.dsc_mean,
            "hd95_per_label": {str(k): v for k, v in self.hd95_per_label.items()},
            "hd95_mean": self.hd95_mean,
            "tre_per_landmark": list(self.tre_per_landmark),
            "tre_mean": self.tre_mean,
            "ndv": self.ndv,
        }

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
    """A stored metric value as it is: a number or None (JSON null)."""
    if v is None or (isinstance(v, (int, float)) and not isinstance(v, bool)):
        return v
    raise TypeError(f"metric value {v!r} is not a number or null")


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
    fl = fixed_labels.data.ravel()
    wl = warped_labels.data.ravel()
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


def _boundary_coords_by_label(lab: np.ndarray, wanted: set[int]) -> dict[int, np.ndarray]:
    """Boundary voxel coordinates per label in one pass over the volume.

    A voxel belongs to its label's boundary when any of its six neighbors
    carries a different label or lies beyond the grid edge.
    """
    bnd = np.zeros(lab.shape, dtype=bool)
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

    flat_idx = np.flatnonzero(bnd.ravel())
    labs_at = lab.ravel()[flat_idx].astype(np.int64)
    keep = np.isin(labs_at, np.fromiter(wanted, dtype=np.int64, count=len(wanted)))
    flat_idx = flat_idx[keep]
    labs_at = labs_at[keep]
    order = np.argsort(labs_at, kind="stable")
    flat_idx = flat_idx[order]
    labs_at = labs_at[order]
    out: dict[int, np.ndarray] = {}
    uniq, starts = np.unique(labs_at, return_index=True)
    bounds = list(starts) + [labs_at.size]
    for i, lab_val in enumerate(uniq):
        idx = flat_idx[bounds[i] : bounds[i + 1]]
        out[int(lab_val)] = np.stack(np.unravel_index(idx, lab.shape), axis=1)
    return out


def _diagonal_mm(dims, spacing) -> float:
    d = (np.asarray(dims, dtype=np.float64) - 1.0) * np.asarray(spacing, dtype=np.float64)
    return float(np.sqrt(np.sum(d * d)))


def _hd95_from_coords(coords_a: np.ndarray, coords_b: np.ndarray, spacing) -> float:
    # imported here so that commands without HD95 (rank, correlate, ic)
    # never load scipy; eval loads it once before its workers fork
    from scipy.spatial import cKDTree

    sp = np.asarray(spacing, dtype=np.float64)
    pa = coords_a * sp
    pb = coords_b * sp
    workers = _query_workers()
    d_ab, _ = cKDTree(pb).query(pa, workers=workers)
    d_ba, _ = cKDTree(pa).query(pb, workers=workers)
    return max(percentile(d_ab, 95.0), percentile(d_ba, 95.0))


def _query_workers() -> int:
    """KD-tree query threads: one inside a worker process of a pool (eval's
    pool already runs one worker per CPU, so more threads only contend),
    every CPU in a lone process (``eval --jobs 1``, ``bench``).  The
    distances do not depend on it."""
    return 1 if multiprocessing.parent_process() is not None else -1


def hd95(fixed_labels: Volume, warped_labels: Volume, label: int, spacing=None):
    """95th-percentile symmetric surface distance in mm for one label.

    Returns None (Missing) when the label is absent from both volumes and
    the image-diagonal penalty when absent from exactly one.
    """
    _check_same_dims(fixed_labels, warped_labels)
    if spacing is None:
        spacing = fixed_labels.spacing
    return _hd95_many(fixed_labels, warped_labels, [label], spacing)[int(label)]


def _hd95_many(fixed_labels: Volume, warped_labels: Volume, labels, spacing):
    """hd95 for many labels with boundary extraction shared across labels."""
    wanted = {int(l) for l in labels}
    fb = _boundary_coords_by_label(fixed_labels.data, wanted)
    wb = _boundary_coords_by_label(warped_labels.data, wanted)
    diag = _diagonal_mm(fixed_labels.dims, spacing)
    out: dict[int, float | None] = {}
    for lab in labels:
        lab = int(lab)
        in_f, in_w = lab in fb, lab in wb
        if not in_f and not in_w:
            out[lab] = None
        elif in_f != in_w:
            out[lab] = diag
        else:
            out[lab] = _hd95_from_coords(fb[lab], wb[lab], spacing)
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


def _folded_volume_chunk(psi_comps, cell_mask: np.ndarray) -> float:
    """Negative signed volume summed over the Kuhn tetrahedra of a cell slab.

    ``psi_comps`` holds the three deformed coordinate components, each of
    shape (sx+1, ny, nz); ``cell_mask`` selects cells (sx, ny-1, nz-1).
    Working per component keeps every array contiguous in z.
    """
    sx1, ny, nz = psi_comps[0].shape

    def corner(comp: int, offset) -> np.ndarray:
        ox, oy, oz = offset
        return psi_comps[comp][ox : sx1 - 1 + ox, oy : ny - 1 + oy, oz : nz - 1 + oz]

    c000 = [corner(c, (0, 0, 0)) for c in range(3)]
    w = [corner(c, (1, 1, 1)) - c000[c] for c in range(3)]
    axis_delta = [[corner(c, off) - c000[c] for c in range(3)] for off in _AXIS_OFFSETS]

    folded = np.zeros(cell_mask.shape, dtype=np.float64)
    for edge_offset, first_a, first_b in _KUHN_PAIRS:
        e = [corner(c, edge_offset) - c000[c] for c in range(3)]
        # cross = e x d111, one contiguous array per component
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


def ndv(phi: DisplacementField, mask: Volume | np.ndarray) -> float:
    """Non-diffeomorphic volume fraction of the deformed grid inside a mask.

    The deformed lattice psi(x) = x + u(x) is cut into six tetrahedra per
    cell; folded volume is the accumulated magnitude of negative signed
    tetrahedron volumes over cells touching the mask, normalized by the
    mask's voxel count.  Orientation-preserving fields give exactly 0.
    """
    mdata = mask.data if isinstance(mask, Volume) else np.asarray(mask)
    if tuple(mdata.shape) != phi.dims:
        raise DimMismatch(f"mask dims {mdata.shape} do not match field dims {phi.dims}")
    voxels_in_mask = int(np.count_nonzero(mdata))
    if voxels_in_mask == 0:
        raise EmptyMask("ndv mask selects no voxels")

    dims = phi.dims
    u = np.asarray(phi.data, dtype=np.float64)
    axes = [np.arange(dims[c], dtype=np.float64) for c in range(3)]
    psi_comps = [
        u[..., 0] + axes[0][:, None, None],
        u[..., 1] + axes[1][None, :, None],
        u[..., 2] + axes[2][None, None, :],
    ]
    in_mask = mdata > 0
    # a cell intersects the mask when any of its 8 corner voxels is masked
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

    folded = 0.0
    # keep per-slab temporaries a few MB so the kernel stays in cache
    slab = max(1, int(2**19 // (dims[1] * dims[2] + 1)))
    for x0 in range(0, dims[0] - 1, slab):
        x1 = min(x0 + slab, dims[0] - 1)
        folded += _folded_volume_chunk(
            [comp[x0 : x1 + 1] for comp in psi_comps], cm[x0:x1]
        )
    return folded / float(voxels_in_mask)


# ---------------------------------------------------------------------------
# LNCC


def _box_sum(x: np.ndarray, r: int) -> np.ndarray:
    """Sum of x over the cubic window of radius r around each voxel,
    cropped at the volume border.  Exact via cumulative sums, one axis at a
    time: slab by slab, c[k + 1] = c[k] + x[k] (np.cumsum's order), then
    out[i] = c[hi] - c[lo] for the cropped window [lo, hi) of each i."""
    out = x
    for axis in range(3):
        src = np.moveaxis(out, axis, 0)
        n = src.shape[0]
        c = np.empty((n + 1,) + src.shape[1:])
        c[0] = 0.0
        c[1] = src[0]
        for k in range(1, n):
            np.add(c[k], src[k], out=c[k + 1])
        out = np.empty(x.shape)
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

    def value(self, w: np.ndarray) -> float:
        sb = _box_sum(w, self.r)
        vb = _box_sum(w * w, self.r) - sb * sb / self.n + LNCC_EPS
        cross = _box_sum(self.fdata * w, self.r) - self.abar * sb
        return float(np.mean(cross / np.sqrt(self.va * vb)))

    def value_and_adjoint(self, w: np.ndarray):
        """LNCC mean and its exact derivative with respect to ``w``."""
        sb = _box_sum(w, self.r)
        bbar = sb / self.n
        vb = _box_sum(w * w, self.r) - sb * bbar + LNCC_EPS
        cross = _box_sum(self.fdata * w, self.r) - self.sa * bbar
        inv_sqrt = 1.0 / np.sqrt(self.va * vb)
        ncc = cross * inv_sqrt
        value = float(np.mean(ncc))

        beta = ncc / vb
        dw = (
            self.fdata * _box_sum(inv_sqrt, self.r)
            - _box_sum(inv_sqrt * self.abar, self.r)
            - w * _box_sum(beta, self.r)
            + _box_sum(beta * bbar, self.r)
        ) / self.fdata.size
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


def evaluate_pair(
    fixed_seg: Volume,
    moving_seg: Volume,
    phi: DisplacementField,
    labels: Sequence[int] | None = None,
    landmarks: tuple[LandmarkSet, LandmarkSet] | None = None,
    mask: Volume | np.ndarray | None = None,
    method_id: str = "",
    pair_id: str = "",
) -> PairReport:
    """Warp the moving segmentation and fill a PairReport.

    ``labels`` defaults to the sorted nonzero labels of the fixed
    segmentation; ``mask`` (for NDV) defaults to the union of those labels.
    The ZeroDisplacement baseline is this function applied to the zero field.
    """
    _check_same_dims(fixed_seg, moving_seg)
    if fixed_seg.header.dims != phi.header.dims:
        raise DimMismatch(f"field dims {phi.header.dims} do not match segmentation {fixed_seg.header.dims}")
    if labels is None:
        labels = [int(l) for l in np.unique(fixed_seg.data) if l != 0]
    labels = [int(l) for l in labels]
    spacing = fixed_seg.spacing

    warped = warp_labels(moving_seg, phi)
    dsc_per_label, dsc_mean = dsc(fixed_seg, warped, labels)
    hd95_per_label = _hd95_many(fixed_seg, warped, labels, spacing)
    hd95_present = [v for v in hd95_per_label.values() if v is not None]
    hd95_mean = float(np.mean(hd95_present)) if hd95_present else None

    if mask is None:
        mask_arr = np.isin(fixed_seg.data, np.asarray(labels)) if labels else fixed_seg.data > 0
    else:
        mask_arr = mask.data if isinstance(mask, Volume) else np.asarray(mask)
    ndv_value = ndv(phi, mask_arr)

    tre_list: list[float] = []
    tre_mean = None
    if landmarks is not None:
        lm_fixed, lm_moving = landmarks
        distances = tre(lm_fixed, lm_moving, phi, spacing)
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
