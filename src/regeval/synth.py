"""Synthetic phantoms, fields, and registration pairs with analytic facts.

Everything here is a pure function of its seed, so cohorts are replayable,
and every generated truth comes with machine-checkable facts (analytic
folded volume, guaranteed-zero NDV, exact landmark correspondences) that
the test suites consume directly.

Ground-truth pairs are built from stationary velocity fields only: the
moving image needs the exact inverse exp(-v), which general displacement
fields do not provide.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import BadParams, SpecInvalid
from .manifest import ZERO_FIELD, Job, write_manifest
from .volio import (
    AffineHeader,
    DisplacementField,
    LandmarkSet,
    Volume,
    atomic_open,
    write_landmarks,
    write_nifti,
)
from .warp import VelocityField, exp_svf, sample_trilinear, warp_image, warp_labels


@dataclass(frozen=True)
class PhantomSpec:
    """Nested-ellipsoid phantom: label_count concentric shells around a center.

    ``semi_axes[k]`` holds the three semi-axes of shell k, strictly
    decreasing so shells nest; defaults fill roughly 80 percent of the grid.
    """

    dims: tuple[int, int, int]
    label_count: int = 4
    seed: int = 0
    noise_sigma: float = 0.02
    center: tuple[float, float, float] | None = None
    semi_axes: tuple[tuple[float, float, float], ...] | None = None

    def resolved(self) -> tuple[np.ndarray, np.ndarray]:
        """Validated (center, semi_axes array of shape (K, 3))."""
        dims = np.asarray(self.dims, dtype=np.float64)
        if self.label_count < 2:
            raise SpecInvalid(f"label_count must be >= 2, got {self.label_count}")
        center = (
            (dims - 1.0) / 2.0
            if self.center is None
            else np.asarray(self.center, dtype=np.float64)
        )
        if self.semi_axes is None:
            outer = 0.40 * (dims - 1.0)
            ks = np.arange(self.label_count, 0, -1, dtype=np.float64) / self.label_count
            axes = outer[None, :] * ks[:, None]
        else:
            axes = np.asarray(self.semi_axes, dtype=np.float64)
        if axes.shape != (self.label_count, 3):
            raise SpecInvalid(f"semi_axes shape {axes.shape} != ({self.label_count}, 3)")
        if np.any(axes <= 0) or np.any(np.diff(axes, axis=0) >= 0):
            raise SpecInvalid("shells must have positive, strictly decreasing semi-axes")
        if np.any(center - axes[0] < 0) or np.any(center + axes[0] > dims - 1.0):
            raise SpecInvalid("outer shell does not fit inside the grid")
        return center, axes


def make_phantom(spec: PhantomSpec) -> tuple[Volume, Volume, LandmarkSet]:
    """Scalar image, label map, and landmarks for a nested-ellipsoid phantom.

    Labels 1..K from the outermost to the innermost shell (0 = background).
    The scalar image is per-shell constant intensities plus smoothed noise;
    landmarks sit where each shell boundary crosses the center axes (6 per
    shell), named s<k>±<axis>.
    """
    center, axes = spec.resolved()
    dims = tuple(int(d) for d in spec.dims)
    header = AffineHeader.isotropic(dims)
    grid = [np.arange(n, dtype=np.float64) for n in dims]
    dx = (grid[0] - center[0])[:, None, None]
    dy = (grid[1] - center[1])[None, :, None]
    dz = (grid[2] - center[2])[None, None, :]

    labels = np.zeros(dims, dtype=np.int16)
    for k in range(spec.label_count):
        a = axes[k]
        inside = (dx / a[0]) ** 2 + (dy / a[1]) ** 2 + (dz / a[2]) ** 2 <= 1.0
        labels[inside] = k + 1

    rng = np.random.default_rng(spec.seed)
    intensities = rng.permutation(np.linspace(0.25, 1.0, spec.label_count))
    image = np.zeros(dims, dtype=np.float64)
    for k in range(spec.label_count):
        image[labels == k + 1] = intensities[k]
    if spec.noise_sigma > 0:
        from scipy.ndimage import gaussian_filter  # loaded only when smoothing

        noise = gaussian_filter(rng.standard_normal(dims), sigma=1.0)
        image = image + spec.noise_sigma * noise

    names: list[str] = []
    points: list[np.ndarray] = []
    for k in range(spec.label_count):
        for axis, tag in enumerate("xyz"):
            for sign, mark in ((1.0, "+"), (-1.0, "-")):
                p = center.copy()
                p[axis] += sign * axes[k][axis]
                names.append(f"s{k + 1}{mark}{tag}")
                points.append(p)
    landmarks = LandmarkSet(names=tuple(names), points=np.array(points))

    scalar = Volume(header=header, kind="scalar", data=image)
    label_vol = Volume(header=header, kind="label", data=labels)
    return scalar, label_vol, landmarks


# ---------------------------------------------------------------------------
# Field constructions


@dataclass(frozen=True)
class Translation:
    vector: tuple[float, float, float]


@dataclass(frozen=True)
class Svf:
    """Smoothed random velocity, tapered to zero at the faces and scaled so
    the largest displacement magnitude equals ``amplitude`` voxels."""

    seed: int
    amplitude: float
    smoothness: float = 6.0
    squarings: int = 7


@dataclass(frozen=True)
class FoldSlab:
    """Reflection slab: u_axis = -2 (x_axis - center) for x_axis in
    [center, center + width], producing a known folded volume."""

    axis: int
    center: float
    width: float


def _face_taper(dims, margin: float) -> np.ndarray:
    """Smooth window equal to 1 in the interior, falling to 0 at each face."""
    parts = []
    for n in dims:
        x = np.arange(n, dtype=np.float64)
        t = np.minimum(x, n - 1 - x) / max(margin, 1.0)
        t = np.clip(t, 0.0, 1.0)
        parts.append(t * t * (3.0 - 2.0 * t))  # smoothstep
    return parts[0][:, None, None] * parts[1][None, :, None] * parts[2][None, None, :]


def make_velocity(kind: Svf, dims) -> VelocityField:
    """The stationary velocity that backs an Svf field request."""
    dims = tuple(int(d) for d in dims)
    if kind.amplitude < 0 or kind.smoothness <= 0:
        raise BadParams(f"bad Svf parameters {kind}")
    from scipy.ndimage import gaussian_filter  # loaded only when smoothing

    header = AffineHeader.isotropic(dims)
    rng = np.random.default_rng(kind.seed)
    v = np.stack(
        [gaussian_filter(rng.standard_normal(dims), sigma=kind.smoothness) for _ in range(3)],
        axis=-1,
    )
    v *= _face_taper(dims, margin=3.0 * kind.smoothness)[..., None]
    peak = float(np.max(np.sqrt(np.sum(v * v, axis=-1))))
    if peak > 0:
        v *= kind.amplitude / peak
    return VelocityField(header=header, data=v)


def make_field(kind, dims) -> tuple[DisplacementField, dict]:
    """Build a displacement field of the requested kind plus analytic facts.

    Facts by kind:

    * Translation: {"translation", "ndv": 0.0}
    * Svf: {"velocity", "squarings", "ndv_bound": 1e-6}
    * FoldSlab: {"folded_volume"} counted over grid cells, i.e. width times
      the product of (n - 1) over the two cross axes.
    """
    dims = tuple(int(d) for d in dims)
    header = AffineHeader.isotropic(dims)
    if isinstance(kind, Translation):
        vec = np.asarray(kind.vector, dtype=np.float64)
        if vec.shape != (3,) or not np.all(np.isfinite(vec)):
            raise BadParams(f"bad translation vector {kind.vector}")
        data = np.broadcast_to(vec, dims + (3,)).copy()
        return DisplacementField(header=header, data=data), {
            "kind": "translation",
            "translation": tuple(float(t) for t in vec),
            "ndv": 0.0,
        }
    if isinstance(kind, Svf):
        v = make_velocity(kind, dims)
        fld = exp_svf(v, squarings=kind.squarings)
        return fld, {
            "kind": "svf",
            "velocity": v,
            "squarings": kind.squarings,
            "amplitude": kind.amplitude,
            "ndv_bound": 1e-6,
        }
    if isinstance(kind, FoldSlab):
        axis = int(kind.axis)
        if axis not in (0, 1, 2):
            raise BadParams(f"axis must be 0, 1, or 2, got {kind.axis}")
        c, w = float(kind.center), float(kind.width)
        if w <= 0 or c < 0 or c + w > dims[axis] - 1:
            raise BadParams(f"slab [{c}, {c + w}] does not fit axis of size {dims[axis]}")
        x = np.arange(dims[axis], dtype=np.float64)
        u_axis = np.where((x >= c) & (x <= c + w), -2.0 * (x - c), 0.0)
        data = np.zeros(dims + (3,), dtype=np.float64)
        shape = [1, 1, 1]
        shape[axis] = dims[axis]
        data[..., axis] = u_axis.reshape(shape)
        cross = [dims[a] - 1 for a in range(3) if a != axis]
        return DisplacementField(header=header, data=data), {
            "kind": "fold_slab",
            "axis": axis,
            "folded_volume": w * cross[0] * cross[1],
        }
    raise BadParams(f"unknown field kind {type(kind).__name__}")


# ---------------------------------------------------------------------------
# Ground-truth pairs


@dataclass(frozen=True)
class PhantomPair:
    """A fixed/moving pair whose true correspondence is exp(velocity)."""

    fixed_image: Volume
    fixed_labels: Volume
    fixed_landmarks: LandmarkSet
    moving_image: Volume
    moving_labels: Volume
    moving_landmarks: LandmarkSet
    truth: DisplacementField
    inverse: DisplacementField
    velocity: VelocityField = dc_field(repr=False, default=None)


def make_pair(
    phantom: tuple[Volume, Volume, LandmarkSet],
    velocity: VelocityField,
) -> PhantomPair:
    """Deform a phantom into a registration pair with known truth.

    The moving image and labels are the fixed ones pulled back through
    exp(-v), so evaluating with truth = exp(v) recovers near-perfect scores;
    moving landmarks are mapped exactly, p_m = p_f + u(p_f), making the true
    TRE zero.
    """
    fixed_image, fixed_labels, fixed_lm = phantom
    if fixed_image.dims != velocity.dims:
        raise BadParams(f"velocity dims {velocity.dims} do not match phantom {fixed_image.dims}")
    truth = exp_svf(velocity, squarings=7)
    inverse = exp_svf(
        VelocityField(header=velocity.header, data=-np.asarray(velocity.data)), squarings=7
    )
    moving_image = warp_image(fixed_image, inverse)
    moving_labels = warp_labels(fixed_labels, inverse)
    u_at = sample_trilinear(truth, fixed_lm.points)
    moving_lm = LandmarkSet(names=fixed_lm.names, points=fixed_lm.points + np.atleast_2d(u_at))
    return PhantomPair(
        fixed_image=fixed_image,
        fixed_labels=fixed_labels,
        fixed_landmarks=fixed_lm,
        moving_image=moving_image,
        moving_labels=moving_labels,
        moving_landmarks=moving_lm,
        truth=truth,
        inverse=inverse,
        velocity=velocity,
    )


# ---------------------------------------------------------------------------
# Cohort generation


def make_cohort(
    out_dir,
    cases: int,
    dims=(32, 32, 32),
    seed: int = 0,
    label_count: int = 4,
    amplitude: float = 2.0,
    smoothness: float = 6.0,
    gzip_files: bool = False,
) -> dict:
    """Write a replayable synthetic cohort to disk and return its manifest.

    Layout: images/, labels/, landmarks/, fields/ plus manifest.json with
    per-case seeds and analytic facts, and manifest.csv listing evaluation
    jobs for the truth fields and the ZeroDisplacement baseline.
    """
    out = Path(out_dir)
    for sub in ("images", "labels", "landmarks", "fields"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    suffix = ".nii.gz" if gzip_files else ".nii"

    manifest: dict = {
        "dims": [int(d) for d in dims],
        "seed": int(seed),
        "label_count": int(label_count),
        "amplitude": float(amplitude),
        "smoothness": float(smoothness),
        "cases": [],
    }
    jobs = []
    for i in range(cases):
        case_id = f"case{i:03d}"
        phantom_seed = seed * 100003 + 2 * i
        field_seed = seed * 100003 + 2 * i + 1
        spec = PhantomSpec(
            dims=tuple(int(d) for d in dims),
            label_count=label_count,
            seed=phantom_seed,
        )
        pair = make_pair(
            make_phantom(spec),
            make_velocity(Svf(seed=field_seed, amplitude=amplitude, smoothness=smoothness), dims),
        )
        paths = {
            "fixed_image": f"images/{case_id}_fixed{suffix}",
            "moving_image": f"images/{case_id}_moving{suffix}",
            "fixed_labels": f"labels/{case_id}_fixed{suffix}",
            "moving_labels": f"labels/{case_id}_moving{suffix}",
            "fixed_landmarks": f"landmarks/{case_id}_fixed.csv",
            "moving_landmarks": f"landmarks/{case_id}_moving.csv",
            "truth_field": f"fields/{case_id}_truth{suffix}",
        }
        write_nifti(pair.fixed_image, out / paths["fixed_image"], use_gzip=gzip_files)
        write_nifti(pair.moving_image, out / paths["moving_image"], use_gzip=gzip_files)
        write_nifti(pair.fixed_labels, out / paths["fixed_labels"], use_gzip=gzip_files)
        write_nifti(pair.moving_labels, out / paths["moving_labels"], use_gzip=gzip_files)
        write_landmarks(pair.fixed_landmarks, out / paths["fixed_landmarks"])
        write_landmarks(pair.moving_landmarks, out / paths["moving_landmarks"])
        write_nifti(pair.truth, out / paths["truth_field"], use_gzip=gzip_files)
        manifest["cases"].append(
            {
                "case_id": case_id,
                "phantom_seed": phantom_seed,
                "field_seed": field_seed,
                "facts": {"true_tre": 0.0, "ndv_bound": 1e-6, "amplitude": float(amplitude)},
                "paths": paths,
            }
        )
        for method, field_path in (("truth", paths["truth_field"]), ("zero", ZERO_FIELD)):
            jobs.append(
                Job(
                    method=method,
                    pair_id=case_id,
                    fixed_seg=paths["fixed_labels"],
                    moving_seg=paths["moving_labels"],
                    field=field_path,
                    landmarks_fixed=paths["fixed_landmarks"],
                    landmarks_moving=paths["moving_landmarks"],
                )
            )

    with atomic_open(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    write_manifest(out / "manifest.csv", jobs)
    return manifest
