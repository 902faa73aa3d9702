"""NIfTI-1 subset I/O, landmark CSV, and the one JSON and one CSV writer.

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
import io
import json
import os
import stat
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    BadParams,
    DuplicateName,
    InvalidLabelData,
    IoFailure,
    MalformedRow,
    NonFiniteCoordinate,
    NonFiniteData,
    RegEvalError,
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
_DTYPE_TO_CODE = {dt: code for code, dt in _CODE_TO_DTYPE.items()}

GZIP_MAGIC = b"\x1f\x8b"
_GZIP_SLICE = 1 << 20  # payload bytes per compressor call on write


@dataclass(frozen=True)
class AffineHeader:
    """Grid geometry: dimensions, spacing and voxel-to-world matrix.

    Objects in memory always hold already-scaled data: the loader applies a
    file's ``scl_slope`` / ``scl_inter`` and the writer stores (1, 0).
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    affine: np.ndarray = field(repr=False)

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
            raise UnsupportedLayout(f"kind must be 'scalar' or 'label', got {self.kind!r}")
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


_READ_PIECE = 1 << 18  # bytes per read of a gzip file, and per inflated piece
_MAX_INFLATE = 1032  # deflate inflates one compressed byte to at most this many


def _gunzip_pieces(f):
    """The inflated bytes of a gzip file, in pieces of at most _READ_PIECE.

    As in ``gzip.decompress``, members follow one another with any NUL
    padding between them skipped; zlib checks each member's CRC32 and
    length, and a stream that ends inside a member raises EOFError."""
    d = zlib.decompressobj(31)
    data, ended = b"", False
    while True:
        if d.eof:  # a member is done: NUL padding, another member or the end
            data = d.unused_data.lstrip(b"\0")
            while not data:
                chunk = f.read(_READ_PIECE)
                if not chunk:
                    return
                data = chunk.lstrip(b"\0")
            d = zlib.decompressobj(31)
        if not data and not ended:
            data = f.read(_READ_PIECE)
            ended = not data
        piece = d.decompress(data, _READ_PIECE)
        data = d.unconsumed_tail
        if piece:
            yield piece
        elif ended and not data and not d.eof:
            raise EOFError("Compressed file ended before the end-of-stream marker was reached")


class _FileBytes:
    """A NIfTI file's bytes front to back, inflated on the fly if it is
    gzip; ``limit`` bounds how many bytes are left to read."""

    def __init__(self, f):
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # a pipe, say
            f = io.BytesIO(f.read())
        self.f = f
        size = f.seek(0, os.SEEK_END)
        f.seek(0)
        self.pieces = _gunzip_pieces(f) if f.read(2) == GZIP_MAGIC else None
        f.seek(0)
        self.limit = size if self.pieces is None else _MAX_INFLATE * size
        self.rest = memoryview(b"")  # inflated bytes not handed out yet

    def readinto(self, view: memoryview) -> int:
        """Fill ``view``; fewer bytes (the count returned) only at the end."""
        if self.pieces is None:
            n = self.f.readinto(view)
        else:
            n = 0
            while n < len(view):
                if not self.rest:
                    self.rest = memoryview(next(self.pieces, b""))
                    if not self.rest:
                        break
                k = min(len(self.rest), len(view) - n)
                view[n : n + k] = self.rest[:k]
                self.rest, n = self.rest[k:], n + k
        self.limit -= n
        return n

    def read(self, n: int) -> bytes:
        buf = bytearray(n)
        return bytes(buf[: self.readinto(memoryview(buf))])

    def skip(self, n: int) -> int:
        """Read past up to ``n`` bytes; the count skipped."""
        done = 0
        while done < n:
            got = len(self.read(min(n - done, _READ_PIECE)))
            done += got
            if not got:
                break
        return done

    def finish(self) -> None:
        """Inflate what is left, so that zlib checks every member."""
        if self.pieces is not None:
            for _ in self.pieces:
                pass


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


def _payload_layout(order, dim, datatype, vox_offset):
    """(spatial dims, is_vector_field, payload dtype in file byte order)
    of a parsed header, after checking that this reader supports them."""
    spatial, is_field = _classify_layout(dim)
    if datatype not in _CODE_TO_DTYPE:
        raise UnsupportedDatatype(f"datatype code {datatype} not in (2, 4, 8, 16, 64)")
    if is_field and datatype not in (16, 64):
        raise UnsupportedLayout("vector payload must be float32 or float64")
    if not (np.isfinite(vox_offset) and vox_offset >= HEADER_SIZE):
        raise BadMagic(f"vox_offset {vox_offset} is not a finite offset past the header")
    return spatial, is_field, _CODE_TO_DTYPE[datatype].newbyteorder(order)


def read_nifti(path):
    """Parse a ``.nii`` / ``.nii.gz`` file into a Volume or DisplacementField.

    Classification is purely structural: the dim layouts above decide between
    volume and field; the datatype decides between label (integer) and scalar
    (float) volumes.  ``scl_slope`` / ``scl_inter`` are applied when the slope
    is nonzero.  Non-finite values anywhere in the payload are a hard error,
    never silently zeroed: one poisoned voxel would corrupt every downstream
    metric.  The payload lands once, in the returned array's own memory.
    """
    try:
        with open(path, "rb") as f:
            src = _FileBytes(f)
            head = src.read(HEADER_SIZE)
            try:
                order, dim, datatype, pixdim, vox_offset, scl, srows = _parse_header(head)
                spatial, is_field, dtype = _payload_layout(order, dim, datatype, vox_offset)
            except RegEvalError:
                src.finish()  # a corrupt file is an IoFailure first
                raise
            n_values = int(np.prod(spatial)) * (3 if is_field else 1)
            nbytes = n_values * dtype.itemsize
            got = 0
            if src.skip(int(vox_offset) - HEADER_SIZE) == int(vox_offset) - HEADER_SIZE:
                if nbytes <= src.limit:
                    data = np.empty(n_values, dtype=dtype)
                    got = src.readinto(memoryview(data.view(np.uint8)))
                else:  # more than the file can hold
                    got = src.skip(nbytes)
            src.finish()
    except (OSError, EOFError, zlib.error) as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    if got < nbytes:
        raise TruncatedPayload(
            f"payload holds {got // dtype.itemsize} values, header implies {n_values}"
        )
    if not dtype.isnative:
        data = data.byteswap(inplace=True).view(dtype.newbyteorder("="))
    is_float = datatype in (16, 64)

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
    """The on-disk payload type; InvalidLabelData for label data that
    ``read_nifti`` would reject (not integer or bool, or outside 0..2**31-1)."""
    dt = obj.data.dtype
    if isinstance(obj, DisplacementField) or obj.kind == "scalar":
        return np.dtype(np.float32) if dt == np.float32 else np.dtype(np.float64)
    if dt.kind not in "uib":
        raise InvalidLabelData(f"label data of type {dt} is not integer")
    lo, hi = (int(obj.data.min()), int(obj.data.max())) if obj.data.size else (0, 0)
    if lo < 0 or hi > np.iinfo(np.int32).max:
        raise InvalidLabelData(f"label values span {lo}..{hi}, outside the int32 labels 0..2**31-1")
    # any integer type without a NIfTI code is widened to int32
    return dt if dt in _DTYPE_TO_CODE else np.dtype(np.int32)


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
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope, scl_inter: data is unscaled
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
    file is deleted and ``path`` keeps whatever it held before.  Missing
    parent directories are created when the file is opened, so a command
    that fails before its first write leaves no directory behind.  A target
    that exists but is not a regular file (a pipe, or a device such as
    /dev/stdout) cannot be replaced and is written in place.  A symbolic
    link is followed, so the file it names is replaced and the link stays.
    The new file has the default permissions, not those of the old one.
    Text files are UTF-8 with no newline translation.  Any ``OSError``
    (a parent that is a regular file, a full disk, a failed replace)
    raises ``IoFailure`` naming ``path`` as given.
    """
    given, path = path, Path(path)
    mode, text = ("wb", {}) if binary else ("w", {"newline": "", "encoding": "utf-8"})
    try:
        if path.exists() and not path.is_file():
            with open(path, mode, **text) as fh:
                yield fh
            return
        if path.is_symlink():
            path = path.resolve()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, mode, **text) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoFailure(f"could not write {given}: {exc}") from exc


def write_nifti(obj, path, use_gzip: bool = False) -> None:
    """Write a Volume or DisplacementField as single-file NIfTI-1.

    Payload dtype follows the in-memory dtype (float32/float64 for scalars
    and fields, the native integer type for labels), so write followed by
    read reproduces the object bit-exactly.  Fields are emitted in the
    5D ``dim[4] == 1, dim[5] == 3`` layout.  The file is written through
    ``atomic_open``, so a failed write keeps any earlier file at ``path``.

    ``.nii.gz`` output is one gzip member with mtime 0, so identical
    objects give identical bytes.  Float payloads go into stored (level 0)
    deflate blocks: their bytes barely repeat, so level-6 deflate of a
    64^3 float64 field saved only 14% of its 6.29 MB, yet took 115 ms to
    write against 9-16 ms stored, and 59 ms to read against 21 ms.  Float
    ``.nii.gz`` files are therefore slightly larger than the raw ``.nii``.
    Label payloads, which shrink 25-50x, are deflated at level 6.  The
    payload is fed in 1 MiB slices, so no full-size compressed copy is
    held.  Files written with other deflate settings (earlier versions
    used level-6 run-length matching, and before that gzip level 9) read
    unchanged; only the compressed bytes differ.
    """
    dtype = _payload_dtype(obj)
    head = _build_header(obj, dtype) + b"\x00\x00\x00\x00"
    payload = memoryview(np.asfortranarray(obj.data, dtype=dtype).ravel(order="F")).cast("B")
    with atomic_open(path, binary=True) as fh:
        if use_gzip:
            deflate = zlib.compressobj(0 if dtype.kind == "f" else 6, zlib.DEFLATED, 31)
            fh.write(deflate.compress(head))
            for start in range(0, len(payload), _GZIP_SLICE):
                fh.write(deflate.compress(payload[start : start + _GZIP_SLICE]))
            fh.write(deflate.flush())
        else:
            fh.write(head)
            fh.write(payload)


def write_json(obj, path) -> None:
    """Write ``obj`` as JSON through ``atomic_open``: indent 2, sorted keys, final newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV: one reader and one writer for manifests, landmarks and tables


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """The rows of a UTF-8 CSV file, each with the number of the line it
    ends on; rows whose every cell is blank are left out.  A file that
    cannot be opened, decoded or parsed raises IoFailure."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            return [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else v


def write_csv(path, header, rows) -> None:
    """Write ``header``, then ``rows``, as CSV through ``atomic_open``: lines end
    in ``\\n``, ``None`` is an empty cell, a float (numpy's too) is written as
    ``repr(float(v))`` and any other value as ``csv`` writes it."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def read_landmarks(path) -> LandmarkSet:
    """Read a ``name,x,y,z`` or ``x,y,z`` CSV of continuous voxel coordinates.

    Rows keep file order; absent names are auto-numbered "0", "1", ...
    """
    rows = read_csv_rows(path)
    if not rows:
        raise MalformedRow(f"{path}: empty landmark file")
    head = [c.strip().lower() for c in rows[0][1]]
    if head == ["name", "x", "y", "z"]:
        named = True
    elif head == ["x", "y", "z"]:
        named = False
    else:
        raise MalformedRow(f"{path}: header must be 'name,x,y,z' or 'x,y,z', got {rows[0][1]!r}")

    names: list[str] = []
    points: list[tuple[float, float, float]] = []
    for i, (line, row) in enumerate(rows[1:]):
        cells = [c.strip() for c in row]
        if len(cells) != (4 if named else 3):
            raise MalformedRow(f"{path}: line {line} has {len(cells)} fields")
        name = cells[0] if named else str(i)
        try:
            x, y, z = (float(c) for c in cells[-3:])
        except ValueError as exc:
            raise MalformedRow(f"{path}: line {line}: {exc}") from exc
        if not all(np.isfinite(v) for v in (x, y, z)):
            raise NonFiniteCoordinate(f"{path}: line {line} has a non-finite coordinate")
        if name in names:
            raise DuplicateName(f"{path}: duplicate landmark name {name!r}")
        names.append(name)
        points.append((x, y, z))
    return LandmarkSet(names=tuple(names), points=np.array(points, dtype=np.float64).reshape(-1, 3))


def write_landmarks(landmarks: LandmarkSet, path) -> None:
    """Write a LandmarkSet as a ``name,x,y,z`` CSV (inverse of read_landmarks)."""
    rows = ([name, *p] for name, p in zip(landmarks.names, landmarks.points))
    write_csv(path, ["name", "x", "y", "z"], rows)


def scale_field_units(fld: DisplacementField, from_units: str) -> DisplacementField:
    """Convert a field's components to voxel units ('mm' divides by spacing).
    A component that overflows raises ``NonFiniteData``, with no warning."""
    if from_units == "voxel":
        return fld
    if from_units != "mm":
        raise BadParams(f"units must be 'voxel' or 'mm', got {from_units!r}")
    with np.errstate(all="ignore"):
        data = fld.data / np.asarray(fld.spacing, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise NonFiniteData("displacement field contains non-finite values")
    return replace(fld, data=data)
