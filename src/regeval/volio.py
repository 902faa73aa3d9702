"""NIfTI-1 subset I/O for volumes and displacement fields, plus landmark CSV.

The reader understands exactly the slice of NIfTI-1 used for challenge-style
evaluation: single-file ``.nii`` / ``.nii.gz``, datatype codes 2 (uint8),
4 (int16), 8 (int32), 16 (float32), 64 (float64), and the following dim
layouts:

* ``dim[0] == 3``                                   scalar or label volume
* ``dim[0] == 4, dim[4] == 1``                      volume (degenerate 4D)
* ``dim[0] == 4, dim[4] == 3``  float payload       displacement field
* ``dim[0] == 5, dim[4] == 1, dim[5] == 3`` float   displacement field

Displacement components are stored in voxel units of the grid (see the
``--units`` CLI flag for converting mm-valued files on load).  Integer
datatypes load as label volumes, float datatypes as scalar volumes.  The
voxel-to-world matrix is read from the sform rows and preserved for output;
only ``pixdim`` spacing enters metric computations downstream.
"""
from __future__ import annotations

import csv
import gzip
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DuplicateName,
    InvalidLabelData,
    IoFailure,
    MalformedRow,
    NonFiniteCoordinate,
    NonFiniteData,
    TruncatedPayload,
    UnsupportedDatatype,
    UnsupportedLayout,
)

HEADER_SIZE = 348
MAGIC = b"n+1\x00"

# NIfTI datatype code <-> numpy dtype (little endian on disk for writes)
_CODE_TO_DTYPE = {
    2: np.dtype("<u1"),
    4: np.dtype("<i2"),
    8: np.dtype("<i4"),
    16: np.dtype("<f4"),
    64: np.dtype("<f8"),
}
_DTYPE_TO_CODE = {
    np.dtype(np.uint8): 2,
    np.dtype(np.int16): 4,
    np.dtype(np.int32): 8,
    np.dtype(np.float32): 16,
    np.dtype(np.float64): 64,
}

GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True)
class AffineHeader:
    """Grid geometry: dimensions, spacing, voxel-to-world matrix, scaling.

    ``scl_slope`` / ``scl_inter`` describe the payload scaling of a file on
    disk; objects in memory always hold already-scaled data, so the loader
    normalizes them to (1, 0).
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    affine: np.ndarray = field(repr=False)
    scl_slope: float = 1.0
    scl_inter: float = 0.0

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise UnsupportedLayout(f"dims must be 3 positive integers, got {self.dims}")
        sp = np.asarray(self.spacing, dtype=float)
        if sp.shape != (3,) or not np.all(np.isfinite(sp)) or np.any(sp <= 0):
            raise UnsupportedLayout(f"spacing must be 3 positive finite reals, got {self.spacing}")
        aff = np.asarray(self.affine, dtype=float)
        if (
            aff.shape != (4, 4)
            or not np.all(np.isfinite(aff))
            or abs(np.linalg.det(aff[:3, :3])) == 0.0
        ):
            raise UnsupportedLayout(
                "voxel-to-world matrix must be 4x4 and finite with nonzero 3x3 determinant"
            )
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "affine", aff)

    @classmethod
    def isotropic(cls, dims, spacing: float = 1.0) -> "AffineHeader":
        """Header with diagonal world matrix, the common test-grid case."""
        sp = (float(spacing),) * 3
        aff = np.diag([sp[0], sp[1], sp[2], 1.0])
        return cls(dims=tuple(int(d) for d in dims), spacing=sp, affine=aff)


@dataclass(frozen=True)
class Volume:
    """A 3D scalar or integer-label grid.

    ``data`` is indexed ``[x, y, z]`` and matches ``header.dims``.
    """

    header: AffineHeader
    kind: str  # "scalar" | "label"
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in ("scalar", "label"):
            raise ValueError(f"kind must be 'scalar' or 'label', got {self.kind!r}")
        if tuple(self.data.shape) != self.header.dims:
            raise UnsupportedLayout(
                f"data shape {self.data.shape} does not match header dims {self.header.dims}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.header.spacing


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel displacement u(x) in voxel units; phi(x) = x + u(x).

    Maps fixed-grid voxel coordinates to moving-image voxel coordinates
    (backward warping convention).  ``data`` has shape ``dims + (3,)``.
    """

    header: AffineHeader
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if tuple(self.data.shape) != self.header.dims + (3,):
            raise UnsupportedLayout(
                f"field shape {self.data.shape} does not match header dims {self.header.dims} + (3,)"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.header.spacing

    @classmethod
    def zero(cls, header: AffineHeader) -> "DisplacementField":
        """The identity transform (u == 0) on the given grid."""
        return cls(header=header, data=np.zeros(header.dims + (3,), dtype=np.float64))


@dataclass(frozen=True)
class LandmarkSet:
    """Named continuous voxel coordinates, order preserved from file."""

    names: tuple[str, ...]
    points: np.ndarray = field(repr=False)  # (n, 3) float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] != len(self.names):
            raise MalformedRow(f"points shape {pts.shape} does not match {len(self.names)} names")
        if len(set(self.names)) != len(self.names):
            raise DuplicateName("landmark names must be unique")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteCoordinate("landmark coordinates must be finite")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.names)


# ---------------------------------------------------------------------------
# NIfTI reading


def _read_file_bytes(path) -> bytes:
    try:
        raw = Path(path).read_bytes()
        return gzip.decompress(raw) if raw[:2] == GZIP_MAGIC else raw
    except (OSError, EOFError, zlib.error) as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc


def _parse_header(raw: bytes):
    """Return (byte order, dim, datatype, pixdim, vox_offset, scl, srows)."""
    if len(raw) < HEADER_SIZE:
        raise BadMagic(f"file shorter than the {HEADER_SIZE}-byte header")
    order = "<"
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != HEADER_SIZE:
        (sizeof_hdr,) = struct.unpack_from(">i", raw, 0)
        if sizeof_hdr != HEADER_SIZE:
            raise BadMagic("sizeof_hdr is not 348 in either byte order")
        order = ">"
    magic = raw[344:348]
    if magic != MAGIC:
        raise BadMagic(f"magic {magic!r} is not 'n+1\\0'")
    dim = struct.unpack_from(order + "8h", raw, 40)
    (datatype,) = struct.unpack_from(order + "h", raw, 70)
    pixdim = struct.unpack_from(order + "8f", raw, 76)
    (vox_offset,) = struct.unpack_from(order + "f", raw, 108)
    scl = struct.unpack_from(order + "2f", raw, 112)
    srows = np.array(
        [
            struct.unpack_from(order + "4f", raw, 280),
            struct.unpack_from(order + "4f", raw, 296),
            struct.unpack_from(order + "4f", raw, 312),
        ],
        dtype=np.float64,
    )
    return order, dim, datatype, pixdim, float(vox_offset), scl, srows


def _classify_layout(dim) -> tuple[tuple[int, int, int], bool]:
    """Map the dim[] array onto (spatial dims, is_vector_field)."""
    nd = dim[0]
    spatial = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in spatial):
        raise UnsupportedLayout(f"spatial dims must be positive, got dim={tuple(dim)}")
    if nd == 3:
        return spatial, False
    if nd == 4 and dim[4] == 1:
        return spatial, False
    if nd == 4 and dim[4] == 3:
        return spatial, True
    if nd == 5 and dim[4] == 1 and dim[5] == 3:
        return spatial, True
    raise UnsupportedLayout(f"unsupported dim layout {tuple(dim[: nd + 1])}")


def read_nifti(path):
    """Parse a ``.nii`` / ``.nii.gz`` file into a Volume or DisplacementField.

    Classification is purely structural: the dim layouts above decide between
    volume and field; the datatype decides between label (integer) and scalar
    (float) volumes.  ``scl_slope`` / ``scl_inter`` are applied when the slope
    is nonzero.  Non-finite values anywhere in the payload are a hard error,
    never silently zeroed: one poisoned voxel would corrupt every downstream
    metric.
    """
    raw = _read_file_bytes(path)
    order, dim, datatype, pixdim, vox_offset, scl, srows = _parse_header(raw)
    spatial, is_field = _classify_layout(dim)
    if datatype not in _CODE_TO_DTYPE:
        raise UnsupportedDatatype(f"datatype code {datatype} not in (2, 4, 8, 16, 64)")
    dtype = _CODE_TO_DTYPE[datatype].newbyteorder(order)
    is_float = datatype in (16, 64)
    if is_field and not is_float:
        raise UnsupportedLayout("vector payload must be float32 or float64")

    n_values = int(np.prod(spatial)) * (3 if is_field else 1)
    if not (np.isfinite(vox_offset) and vox_offset >= HEADER_SIZE):
        raise BadMagic(f"vox_offset {vox_offset} is not a finite offset past the header")
    offset = int(vox_offset)
    payload = raw[offset : offset + n_values * dtype.itemsize]
    if len(payload) < n_values * dtype.itemsize:
        raise TruncatedPayload(
            f"payload holds {len(payload) // dtype.itemsize} values, header implies {n_values}"
        )
    data = np.frombuffer(payload, dtype=dtype).astype(dtype.newbyteorder("="))

    slope, inter = float(scl[0]), float(scl[1])
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        # a float32 payload can overflow to inf; the checks below reject it
        with np.errstate(over="ignore", invalid="ignore"):
            data = data * slope + inter

    spacing = tuple(float(abs(p)) for p in pixdim[1:4])
    if any(s <= 0 or not np.isfinite(s) for s in spacing):
        raise BadMagic(f"pixdim spacing {spacing} is not positive and finite")
    affine = np.eye(4)
    if np.any(srows != 0.0):
        affine[:3, :] = srows
    else:
        affine[0, 0], affine[1, 1], affine[2, 2] = spacing
    header = AffineHeader(dims=spatial, spacing=spacing, affine=affine)

    if is_field:
        shaped = np.reshape(data, spatial + (3,), order="F")
        if not np.all(np.isfinite(shaped)):
            raise NonFiniteData(f"{path}: displacement field contains non-finite values")
        return DisplacementField(header=header, data=shaped)

    shaped = np.reshape(data, spatial, order="F")
    if is_float:
        if not np.all(np.isfinite(shaped)):
            raise NonFiniteData(f"{path}: scalar volume contains non-finite values")
        return Volume(header=header, kind="scalar", data=shaped)
    if shaped.dtype.kind == "f":  # integer file with nontrivial scaling
        shaped = np.rint(shaped)
        if not np.all(np.abs(shaped) <= np.iinfo(np.int32).max):  # NaN fails too
            raise InvalidLabelData(f"{path}: scaled label values do not fit int32")
        shaped = shaped.astype(np.int32)
    if shaped.min() < 0:
        raise InvalidLabelData(f"{path}: label volume contains negative values")
    return Volume(header=header, kind="label", data=shaped)


def read_volume(path, kind: str | None = None) -> Volume:
    """read_nifti restricted to volumes, optionally of one kind."""
    obj = read_nifti(path)
    if not isinstance(obj, Volume):
        raise UnsupportedLayout(f"{path}: expected a volume, found a displacement field")
    if kind is not None and obj.kind != kind:
        raise UnsupportedLayout(f"{path}: expected a {kind} volume, found {obj.kind}")
    return obj


def read_field(path) -> DisplacementField:
    """read_nifti restricted to displacement fields."""
    obj = read_nifti(path)
    if not isinstance(obj, DisplacementField):
        raise UnsupportedLayout(f"{path}: expected a displacement field, found a volume")
    return obj


# ---------------------------------------------------------------------------
# NIfTI writing


def _payload_dtype(obj) -> np.dtype:
    dt = obj.data.dtype
    if isinstance(obj, DisplacementField):
        if dt == np.float32:
            return np.dtype(np.float32)
        return np.dtype(np.float64)
    if obj.kind == "scalar":
        return np.dtype(np.float32) if dt == np.float32 else np.dtype(np.float64)
    if dt in _DTYPE_TO_CODE and dt.kind in "ui":
        return dt
    # any other integer width is widened to int32
    return np.dtype(np.int32)


def _build_header(obj, dtype: np.dtype) -> bytes:
    hdr = bytearray(HEADER_SIZE)
    is_field = isinstance(obj, DisplacementField)
    nx, ny, nz = obj.header.dims
    if is_field:
        dim = (5, nx, ny, nz, 1, 3, 1, 1)
    else:
        dim = (3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    if is_field:
        struct.pack_into("<h", hdr, 68, 1007)  # NIFTI_INTENT_VECTOR
    struct.pack_into("<h", hdr, 70, _DTYPE_TO_CODE[dtype])
    struct.pack_into("<h", hdr, 72, dtype.itemsize * 8)
    pixdim = (1.0, *obj.header.spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(HEADER_SIZE + 4))
    struct.pack_into("<2f", hdr, 112, float(obj.header.scl_slope), float(obj.header.scl_inter))
    struct.pack_into("<h", hdr, 254, 1)  # sform_code
    aff = obj.header.affine
    struct.pack_into("<4f", hdr, 280, *aff[0])
    struct.pack_into("<4f", hdr, 296, *aff[1])
    struct.pack_into("<4f", hdr, 312, *aff[2])
    hdr[344:348] = MAGIC
    return bytes(hdr)


@contextmanager
def atomic_open(path, binary: bool = False):
    """A file that appears at ``path`` only when the block completes.

    It is written under a temporary name in the same directory and moved
    onto ``path`` with ``os.replace``; if the block raises, the temporary
    file is deleted and ``path`` keeps whatever it held before.  A target
    that exists but is not a regular file (a pipe, or a device such as
    /dev/stdout) cannot be replaced and is written in place.  A symbolic
    link is followed, so the file it names is replaced and the link stays.
    The new file has the default permissions, not those of the old one.
    Text files are UTF-8 with no newline translation.
    """
    path = Path(path)
    mode, text = ("wb", {}) if binary else ("w", {"newline": "", "encoding": "utf-8"})
    if path.exists() and not path.is_file():
        with open(path, mode, **text) as fh:
            yield fh
        return
    if path.is_symlink():
        path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_nifti(obj, path, use_gzip: bool = False) -> None:
    """Write a Volume or DisplacementField as single-file NIfTI-1.

    Payload dtype follows the in-memory dtype (float32/float64 for scalars
    and fields, the native integer type for labels), so write followed by
    read reproduces the object bit-exactly.  Fields are emitted in the
    5D ``dim[4] == 1, dim[5] == 3`` layout.  The file is written through
    ``atomic_open``, so a failed write keeps any earlier file at ``path``.
    """
    dtype = _payload_dtype(obj)
    header = _build_header(obj, dtype)
    payload = np.ascontiguousarray(obj.data.ravel(order="F"), dtype=dtype).tobytes()
    blob = header + b"\x00\x00\x00\x00" + payload
    if use_gzip:
        # mtime pinned so identical objects produce identical bytes
        blob = gzip.compress(blob, mtime=0)
    try:
        with atomic_open(path, binary=True) as fh:
            fh.write(blob)
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Landmark CSV


def read_landmarks(path) -> LandmarkSet:
    """Read a ``name,x,y,z`` or ``x,y,z`` CSV of continuous voxel coordinates.

    Rows keep file order; absent names are auto-numbered "0", "1", ...
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    if not rows:
        raise MalformedRow(f"{path}: empty landmark file")
    head = [c.strip().lower() for c in rows[0]]
    if head == ["name", "x", "y", "z"]:
        named = True
    elif head == ["x", "y", "z"]:
        named = False
    else:
        raise MalformedRow(f"{path}: header must be 'name,x,y,z' or 'x,y,z', got {rows[0]!r}")

    names: list[str] = []
    points: list[tuple[float, float, float]] = []
    for i, row in enumerate(rows[1:]):
        cells = [c.strip() for c in row]
        if len(cells) != (4 if named else 3):
            raise MalformedRow(f"{path}: row {i + 2} has {len(cells)} fields")
        name = cells[0] if named else str(i)
        try:
            x, y, z = (float(c) for c in cells[-3:])
        except ValueError as exc:
            raise MalformedRow(f"{path}: row {i + 2}: {exc}") from exc
        if not all(np.isfinite(v) for v in (x, y, z)):
            raise NonFiniteCoordinate(f"{path}: row {i + 2} has a non-finite coordinate")
        if name in names:
            raise DuplicateName(f"{path}: duplicate landmark name {name!r}")
        names.append(name)
        points.append((x, y, z))
    return LandmarkSet(names=tuple(names), points=np.array(points, dtype=np.float64).reshape(-1, 3))


def write_landmarks(landmarks: LandmarkSet, path) -> None:
    """Write a LandmarkSet as a ``name,x,y,z`` CSV (inverse of read_landmarks)."""
    try:
        with atomic_open(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "x", "y", "z"])
            for name, p in zip(landmarks.names, landmarks.points):
                writer.writerow([name, repr(float(p[0])), repr(float(p[1])), repr(float(p[2]))])
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


def scale_field_units(fld: DisplacementField, from_units: str) -> DisplacementField:
    """Convert a field's components to voxel units ('mm' divides by spacing)."""
    if from_units == "voxel":
        return fld
    if from_units != "mm":
        raise ValueError(f"units must be 'voxel' or 'mm', got {from_units!r}")
    sp = np.asarray(fld.spacing, dtype=np.float64)
    return replace(fld, data=fld.data / sp)
