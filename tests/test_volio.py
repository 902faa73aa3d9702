import ast
import gzip
import os
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval import errors, volio
from regeval.synth import PhantomSpec, make_phantom
from regeval.volio import AffineHeader, DisplacementField, Volume

from conftest import craft_nifti, traced_peak


def write_and_read(tmp_path, blob: bytes):
    path = tmp_path / "file.nii"
    path.write_bytes(blob)
    return volio.read_nifti(path)


class TestReadNifti:
    def test_crafted_2x2x2_float32(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1))
        vol = write_and_read(tmp_path, blob)
        assert isinstance(vol, Volume)
        assert vol.kind == "scalar"
        assert vol.dims == (2, 2, 2)
        # x-fastest order: flat value k lands at (k % 2, (k // 2) % 2, k // 4)
        assert np.array_equal(vol.data.ravel(order="F"), np.arange(8))

    @pytest.mark.parametrize(
        "datatype, shape, dim",
        [
            (4, (4, 3, 2), (3, 4, 3, 2, 1, 1, 1, 1)),
            (16, (4, 3, 2), (3, 4, 3, 2, 1, 1, 1, 1)),
            (64, (4, 3, 2, 1, 3), (5, 4, 3, 2, 1, 3, 1, 1)),
        ],
    )
    def test_big_endian_file_reads_like_little_endian(self, tmp_path, rng, datatype, shape, dim):
        data = rng.integers(0, 300, size=shape) + (0.25 if datatype != 4 else 0)
        spacing = (1.5, 2.0, 2.5)
        little = write_and_read(tmp_path, craft_nifti(data, datatype, dim, spacing=spacing))
        big_blob = craft_nifti(data, datatype, dim, spacing=spacing, order=">")
        assert struct.unpack_from(">i", big_blob, 0) == (348,)
        for blob in (big_blob, gzip.compress(big_blob)):
            big = write_and_read(tmp_path, blob)
            assert type(big) is type(little)
            assert big.header.dims == little.header.dims == shape[:3]
            assert big.header.spacing == little.header.spacing == spacing
            assert big.data.dtype == little.data.dtype and big.data.dtype.isnative
            assert big.data.tobytes() == little.data.tobytes()

    def test_gzip_round_trip_identical(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1))
        plain = write_and_read(tmp_path, blob)
        path = tmp_path / "file.nii.gz"
        path.write_bytes(gzip.compress(blob))
        zipped = volio.read_nifti(path)
        assert np.array_equal(plain.data, zipped.data)
        assert plain.header.dims == zipped.header.dims

    def test_negative_label_rejected(self, tmp_path):
        data = np.array([0, 1, -3, 2, 0, 0, 0, 0], dtype=np.int16).reshape((2, 2, 2), order="F")
        blob = craft_nifti(data, datatype=4, dim=(3, 2, 2, 2, 1, 1, 1, 1))
        with pytest.raises(errors.InvalidLabelData, match="negative"):
            write_and_read(tmp_path, blob)

    def test_zero_field_5d_layout(self, tmp_path):
        data = np.zeros((4, 4, 4, 1, 3), dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(5, 4, 4, 4, 1, 3, 1, 1))
        fld = write_and_read(tmp_path, blob)
        assert isinstance(fld, DisplacementField)
        assert fld.dims == (4, 4, 4)
        assert np.all(fld.data == 0.0)

    def test_both_field_layouts_parse_identically(self, tmp_path, rng):
        vals = rng.standard_normal((4, 5, 6, 3)).astype(np.float32)
        blob4 = craft_nifti(vals, datatype=16, dim=(4, 4, 5, 6, 3, 1, 1, 1))
        blob5 = craft_nifti(vals, datatype=16, dim=(5, 4, 5, 6, 1, 3, 1, 1))
        f4 = write_and_read(tmp_path, blob4)
        f5 = write_and_read(tmp_path, blob5)
        assert isinstance(f4, DisplacementField) and isinstance(f5, DisplacementField)
        assert np.array_equal(f4.data, f5.data)

    def test_degenerate_4d_is_volume(self, tmp_path):
        data = np.ones((3, 3, 3), dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(4, 3, 3, 3, 1, 1, 1, 1))
        vol = write_and_read(tmp_path, blob)
        assert isinstance(vol, Volume)

    def test_three_component_file_never_parses_as_volume(self, tmp_path, rng):
        vals = rng.standard_normal((4, 4, 4, 3)).astype(np.float32)
        for dim in ((4, 4, 4, 4, 3, 1, 1, 1), (5, 4, 4, 4, 1, 3, 1, 1)):
            blob = craft_nifti(vals, datatype=16, dim=dim)
            assert isinstance(write_and_read(tmp_path, blob), DisplacementField)

    def test_integer_datatypes_load_as_labels(self, tmp_path):
        for code, np_dtype in ((2, np.uint8), (4, np.int16), (8, np.int32)):
            data = np.arange(27, dtype=np_dtype).reshape((3, 3, 3), order="F")
            blob = craft_nifti(data, datatype=code, dim=(3, 3, 3, 3, 1, 1, 1, 1))
            vol = write_and_read(tmp_path, blob)
            assert vol.kind == "label"
            assert np.array_equal(vol.data, data)

    def test_scl_slope_and_inter_applied(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1), scl=(2.0, 1.0))
        vol = write_and_read(tmp_path, blob)
        assert np.allclose(vol.data.ravel(order="F"), np.arange(8) * 2.0 + 1.0)

    def test_zero_slope_means_no_scaling(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1), scl=(0.0, 5.0))
        vol = write_and_read(tmp_path, blob)
        assert np.array_equal(vol.data.ravel(order="F"), np.arange(8))

    def test_spacing_from_pixdim(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1), spacing=(0.5, 2.0, 3.0))
        vol = write_and_read(tmp_path, blob)
        assert vol.spacing == (0.5, 2.0, 3.0)


class TestOnePayloadCopy:
    """The reader lands each payload once: read into (or inflated into) one
    writable array, gzip members and checks as in ``gzip.decompress``."""

    FIELD_DIM = (5, 4, 3, 2, 1, 3, 1, 1)

    def field_blob(self, rng, order="<"):
        return craft_nifti(rng.standard_normal((4, 3, 2, 1, 3)), 64, self.FIELD_DIM, order=order)

    @pytest.mark.parametrize("padding", [b"", b"\0" * 5])
    @pytest.mark.parametrize("split", [100, 348, 400])  # in the header, at its end, in the payload
    def test_multi_member_gzip_reads_as_its_single_member_form(self, tmp_path, rng, split, padding):
        blob = self.field_blob(rng)
        single, multi = tmp_path / "single.nii.gz", tmp_path / "multi.nii.gz"
        single.write_bytes(gzip.compress(blob))
        multi.write_bytes(gzip.compress(blob[:split]) + padding + gzip.compress(blob[split:]))
        want, got = volio.read_field(single), volio.read_field(multi)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got.header.affine, want.header.affine)

    @pytest.mark.parametrize("zipped", [False, True])
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("datatype", [2, 4, 16, 64])
    def test_arrays_are_writable_and_own_no_bytes(self, tmp_path, rng, zipped, order, datatype):
        if datatype == 64:
            blob = self.field_blob(rng, order)
        else:
            blob = craft_nifti(rng.integers(0, 9, size=(3, 4, 5)), datatype, (3, 3, 4, 5, 1, 1, 1, 1), order=order)
        path = tmp_path / "x.nii"
        path.write_bytes(gzip.compress(blob) if zipped else blob)
        arr = volio.read_nifti(path).data
        assert arr.flags.writeable
        while arr is not None:
            assert not isinstance(arr, (bytes, bytearray, memoryview))
            arr = getattr(arr, "base", None)

    @pytest.mark.parametrize("zipped", [False, True])
    def test_pipe_reads_like_its_file(self, tmp_path, rng, zipped):
        # a pipe cannot seek: its bytes are read whole first, then parsed
        blob = self.field_blob(rng)
        blob = gzip.compress(blob) if zipped else blob
        path, fifo = tmp_path / "field.nii", tmp_path / "pipe.nii"
        path.write_bytes(blob)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        try:
            got = volio.read_nifti(fifo)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        want = volio.read_nifti(path)
        assert type(got) is type(want) is DisplacementField
        assert got.header.dims == want.header.dims and np.array_equal(got.header.affine, want.header.affine)
        assert got.data.dtype == want.data.dtype and got.data.strides == want.data.strides
        assert got.data.tobytes() == want.data.tobytes()

    def test_gzip_field_read_peaks_below_payload_plus_2_mib(self, tmp_path, rng):
        dims = (64, 64, 64)
        path = tmp_path / "field.nii.gz"
        field = DisplacementField(AffineHeader.isotropic(dims), rng.standard_normal(dims + (3,)))
        volio.write_nifti(field, path, use_gzip=True)
        back, peak = traced_peak(lambda: volio.read_field(path))
        assert back.data.tobytes() == field.data.tobytes()
        assert peak < field.data.nbytes + 2 * 2**20


class TestReadErrors:
    def test_bad_magic(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1), magic=b"bad\x00")
        with pytest.raises(errors.BadMagic):
            write_and_read(tmp_path, blob)

    def test_bad_sizeof_hdr(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1), sizeof_hdr=999)
        with pytest.raises(errors.BadMagic):
            write_and_read(tmp_path, blob)

    def test_unsupported_datatype(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        blob = craft_nifti(data, datatype=32, dim=(3, 2, 2, 2, 1, 1, 1, 1))
        with pytest.raises(errors.UnsupportedDatatype):
            write_and_read(tmp_path, blob)

    def test_truncated_payload(self, tmp_path):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(3, 4, 4, 4, 1, 1, 1, 1), truncate=8)
        with pytest.raises(errors.TruncatedPayload):
            write_and_read(tmp_path, blob)

    @pytest.mark.parametrize("zipped", [False, True])
    def test_huge_claimed_payload_is_refused_without_allocating_it(self, tmp_path, zipped):
        # the header claims 2000^3 float64 values (64 GB); the file holds 64 bytes
        blob = craft_nifti(np.zeros(8), 64, (3, 2000, 2000, 2000, 1, 1, 1, 1))
        path = tmp_path / ("big.nii.gz" if zipped else "big.nii")
        path.write_bytes(gzip.compress(blob) if zipped else blob)

        def read():
            with pytest.raises(errors.TruncatedPayload):
                volio.read_nifti(path)

        _, peak = traced_peak(read)
        assert peak < 2**20

    def test_non_finite_scalar_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[1, 1, 1] = np.nan
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1))
        with pytest.raises(errors.NonFiniteData):
            write_and_read(tmp_path, blob)

    def test_non_finite_field_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2, 3), dtype=np.float32)
        data[0, 0, 0, 1] = np.inf
        blob = craft_nifti(data, datatype=16, dim=(4, 2, 2, 2, 3, 1, 1, 1))
        with pytest.raises(errors.NonFiniteData):
            write_and_read(tmp_path, blob)

    def test_integer_vector_payload_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2, 3), dtype=np.int16)
        blob = craft_nifti(data, datatype=4, dim=(4, 2, 2, 2, 3, 1, 1, 1))
        with pytest.raises(errors.UnsupportedLayout):
            write_and_read(tmp_path, blob)

    def test_unsupported_dim_layout(self, tmp_path):
        data = np.zeros((2, 2, 2, 2), dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(4, 2, 2, 2, 2, 1, 1, 1))
        with pytest.raises(errors.UnsupportedLayout):
            write_and_read(tmp_path, blob)


def _singular_sform(raw: bytearray) -> bytes:
    struct.pack_into("<4f", raw, 280, 1.0, 0.0, 0.0, 0.0)  # rows 2 and 3 stay zero
    return bytes(raw)


_F3 = (3, 2, 2, 2, 1, 1, 1, 1)


class TestReadErrorsNameTheFile:
    """Every read_nifti error but an IoFailure starts with the file's path,
    once; the rest of its message is the check's own."""

    @pytest.mark.parametrize("blob, error, message", [
        (b"\0" * 100, errors.BadMagic, "file shorter than the 348-byte header"),
        (craft_nifti(np.zeros(16), 16, (4, 2, 2, 2, 2, 1, 1, 1)), errors.UnsupportedLayout,
         "unsupported dim layout (4, 2, 2, 2, 2)"),
        (craft_nifti(np.zeros(8), 32, _F3), errors.UnsupportedDatatype, "datatype code 32 not in (2, 4, 8, 16, 64)"),
        (craft_nifti(np.zeros(8), 16, _F3, truncate=8), errors.TruncatedPayload,
         "payload holds 6 values, header implies 8"),
        (craft_nifti(np.zeros(8), 16, _F3, spacing=(1.0, 0.0, 1.0)), errors.BadMagic,
         "pixdim spacing (1.0, 0.0, 1.0) is not positive and finite"),
        (_singular_sform(bytearray(craft_nifti(np.zeros(8), 16, _F3))), errors.UnsupportedLayout,
         "voxel-to-world matrix must be 4x4 and finite with nonzero 3x3 determinant"),
        (craft_nifti(np.full(8, np.nan), 16, _F3), errors.NonFiniteData, "scalar volume contains non-finite values"),
        (craft_nifti(np.full(24, np.inf), 16, (4, 2, 2, 2, 3, 1, 1, 1)), errors.NonFiniteData,
         "displacement field contains non-finite values"),
        (craft_nifti(np.ones(8), 4, _F3, scl=(1e30, 0.0)), errors.InvalidLabelData,
         "scaled label values do not fit int32"),
        (craft_nifti(-np.ones(8), 4, _F3), errors.InvalidLabelData, "label volume contains negative values"),
    ], ids=["header", "layout", "datatype", "payload", "pixdim", "sform", "scalar-non-finite", "field-non-finite",
            "label-scaling", "label-negative"])
    def test_message_is_the_path_and_the_check(self, tmp_path, blob, error, message):
        with pytest.raises(error) as info:
            write_and_read(tmp_path, blob)
        assert str(info.value) == f"{tmp_path / 'file.nii'}: {message}"

    def test_io_failure_is_not_prefixed_again(self, tmp_path):
        path = tmp_path / "cut.nii.gz"
        blob = gzip.compress(craft_nifti(np.zeros(8), 16, _F3))
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(errors.IoFailure) as info:
            volio.read_nifti(path)
        assert str(info.value).startswith(f"could not read {path}: ")
        assert str(info.value).count(str(path)) == 1


class TestHeaderValues:
    def base(self):
        data = np.full((2, 2, 2), 3, dtype=np.int16)
        return bytearray(craft_nifti(data, datatype=4, dim=(3, 2, 2, 2, 1, 1, 1, 1)))

    def test_non_finite_sform_rejected(self, tmp_path):
        raw = self.base()
        struct.pack_into("<4f", raw, 280, float("nan"), 0.0, 0.0, 0.0)
        struct.pack_into("<4f", raw, 296, 0.0, 1.0, 0.0, 0.0)
        struct.pack_into("<4f", raw, 312, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(errors.UnsupportedLayout):
            write_and_read(tmp_path, bytes(raw))

    @pytest.mark.parametrize("scl", [(1e30, 0.0), (float("nan"), 0.0), (1.0, float("inf"))])
    def test_label_scaling_out_of_int32_rejected(self, tmp_path, scl):
        raw = self.base()
        struct.pack_into("<2f", raw, 112, *scl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InvalidLabelData):
                write_and_read(tmp_path, bytes(raw))

    def test_float_scaling_overflow_is_non_finite_data(self, tmp_path):
        data = np.full((2, 2, 2), 4.0, dtype=np.float32)
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1), scl=(3e38, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NonFiniteData):
                write_and_read(tmp_path, blob)


# Valid files of every datatype and layout, crafted without the library writer.
_FUZZ_BASES = (
    craft_nifti(np.arange(24).reshape((3, 4, 2)), 2, (3, 3, 4, 2, 1, 1, 1, 1)),
    craft_nifti(np.arange(24).reshape((3, 4, 2)), 4, (4, 3, 4, 2, 1, 1, 1, 1), scl=(2.0, 1.0)),
    craft_nifti(np.arange(24).reshape((3, 4, 2)), 8, (3, 3, 4, 2, 1, 1, 1, 1)),
    craft_nifti(np.linspace(-3, 3, 24).reshape((3, 4, 2)), 16, (3, 3, 4, 2, 1, 1, 1, 1)),
    craft_nifti(np.linspace(-3, 3, 36).reshape((2, 3, 2, 3)), 64, (4, 2, 3, 2, 3, 1, 1, 1)),
    craft_nifti(np.linspace(-3, 3, 36).reshape((2, 3, 2, 1, 3)), 16, (5, 2, 3, 2, 1, 3, 1, 1)),
)
_F32 = st.one_of(
    st.floats(width=32),
    st.sampled_from([3.4e38, -3.4e38, 1e-45, 0.0, -0.0, float("nan"), float("inf")]),
)
_HEADER_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 420), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 420)),
    # dim[0..7] and datatype / bitpix
    st.tuples(
        st.just("<h"),
        st.sampled_from([0, 40, 42, 44, 46, 48, 50, 52, 54, 70, 72]),
        st.one_of(st.integers(-32768, 32767), st.sampled_from([-1, 0, 1, 3, 32767])),
    ),
    # pixdim, vox_offset, scl_slope / scl_inter and the sform rows
    st.tuples(
        st.just("<f"),
        st.sampled_from([76, 80, 84, 88, 108, 112, 116] + list(range(280, 328, 4))),
        _F32,
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_FUZZ_BASES),
    st.lists(_HEADER_MUTATION, min_size=1, max_size=4),
    st.booleans(),
)
def test_read_nifti_on_mutated_header_succeeds_or_raises_regeval_error(base, mutations, zipped):
    raw = bytearray(base)
    for kind, *args in mutations:
        if kind == "flip":
            offset, mask = args
            if offset < len(raw):
                raw[offset] ^= mask
        elif kind == "truncate":
            del raw[args[0]:]
        elif args[0] + struct.calcsize(kind) <= len(raw):
            struct.pack_into(kind, raw, args[0], args[1])
    blob = gzip.compress(bytes(raw)) if zipped else bytes(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.nii"
        path.write_bytes(blob)
        # a numpy warning would mean a value went non-finite or out of range
        # unchecked, so it counts as a failure too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                obj = volio.read_nifti(path)
            except errors.RegEvalError:
                return
    assert isinstance(obj, (Volume, DisplacementField))
    assert np.all(np.isfinite(obj.data))


def _read_outcome(path):
    """read_nifti's array (with its header and class), or its error class."""
    try:
        obj = volio.read_nifti(path)
    except errors.RegEvalError as exc:
        return type(exc)
    return type(obj), obj.header.dims, obj.header.spacing, obj.data.dtype, obj.data.tobytes()


# two gzip members, split inside the payload and NUL-padded, after the
# single-member form: header, deflate stream, trailer and padding
_GZ_PAYLOAD = craft_nifti(np.linspace(-3, 3, 60).reshape((3, 4, 5)), 16, (3, 3, 4, 5, 1, 1, 1, 1))
_GZ_BASES = (
    gzip.compress(_GZ_PAYLOAD, mtime=0),
    gzip.compress(_GZ_PAYLOAD[:400], mtime=0) + b"\0" * 3 + gzip.compress(_GZ_PAYLOAD[400:], mtime=0),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_GZ_BASES),
    st.lists(
        st.tuples(st.sampled_from(["flip", "drop", "truncate"]), st.integers(0, 10**4), st.integers(1, 255)),
        min_size=1,
        max_size=3,
    ),
)
def test_read_nifti_on_mutated_gzip_gives_the_decompressed_file_or_a_regeval_error(base, mutations):
    blob = bytearray(base)
    for kind, at, mask in mutations:
        at %= len(blob) + 1
        if kind == "flip" and at < len(blob):
            blob[at] ^= mask
        elif kind == "drop":
            del blob[at : at + 1]
        elif kind == "truncate":
            del blob[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.nii.gz"
        path.write_bytes(bytes(blob))
        got = _read_outcome(path)  # any other exception fails the test
        try:
            raw = gzip.decompress(bytes(blob))
        except Exception:  # not gzip, or a broken stream: only an error will do
            assert isinstance(got, type) and issubclass(got, errors.RegEvalError)
            return
        (Path(tmp) / "raw.nii").write_bytes(raw)
        want = _read_outcome(Path(tmp) / "raw.nii")
    # zlib checks flags and the header CRC that gzip.decompress skips, so a
    # file both accept may still be an error here, but never another array
    if not (isinstance(got, type) and issubclass(got, errors.RegEvalError)):
        assert got == want


class TestWriteNifti:
    @pytest.mark.parametrize(
        "np_dtype,kind",
        [
            (np.uint8, "label"),
            (np.int16, "label"),
            (np.int32, "label"),
            (np.float32, "scalar"),
            (np.float64, "scalar"),
        ],
    )
    def test_round_trip_every_datatype(self, tmp_path, rng, np_dtype, kind):
        dims = (5, 4, 3)
        if kind == "label":
            data = rng.integers(0, 9, size=dims).astype(np_dtype)
        else:
            data = rng.standard_normal(dims).astype(np_dtype)
        vol = Volume(header=AffineHeader.isotropic(dims, 2.0), kind=kind, data=data)
        path = tmp_path / "vol.nii"
        volio.write_nifti(vol, path)
        back = volio.read_nifti(path)
        assert back.kind == kind
        assert back.header.dims == dims
        assert back.header.spacing == (2.0, 2.0, 2.0)
        assert back.data.dtype == data.dtype
        assert np.array_equal(back.data, data)

    @pytest.mark.parametrize(
        "np_dtype, value", [(np.int64, 2**32 + 3), (np.int64, -(2**31) - 1), (np.uint32, 2**31)]
    )
    def test_labels_past_int32_rejected_before_writing(self, tmp_path, np_dtype, value):
        data = np.zeros((3, 2, 2), dtype=np_dtype)
        data[1, 1, 1] = value
        vol = Volume(header=AffineHeader.isotropic((3, 2, 2)), kind="label", data=data)
        with pytest.raises(errors.InvalidLabelData, match="int32"):
            volio.write_nifti(vol, tmp_path / "sub" / "vol.nii")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "data, message",
        [
            (np.full((2, 2, 2), -3, dtype=np.int16), r"span -3\.\.-3"),
            (np.full((2, 2, 2), 1.7), "float64 is not integer"),
            (np.full((2, 2, 2), 2.0, dtype=np.float32), "float32 is not integer"),
        ],
        ids=["negative", "float", "integral_float"],
    )
    def test_labels_the_reader_rejects_are_not_written(self, tmp_path, data, message):
        vol = Volume(header=AffineHeader.isotropic((2, 2, 2)), kind="label", data=data)
        with pytest.raises(errors.InvalidLabelData, match=message):
            volio.write_nifti(vol, tmp_path / "sub" / "vol.nii")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("np_dtype", [np.int64, np.uint32])
    def test_labels_in_int32_range_write_as_int32(self, tmp_path, np_dtype):
        data = np.arange(12).reshape(3, 2, 2)
        data[2, 1, 1] = 2**31 - 1
        header = AffineHeader.isotropic((3, 2, 2))
        volio.write_nifti(Volume(header, "label", data.astype(np_dtype)), tmp_path / "wide.nii")
        volio.write_nifti(Volume(header, "label", data.astype(np.int32)), tmp_path / "i32.nii")
        assert (tmp_path / "wide.nii").read_bytes() == (tmp_path / "i32.nii").read_bytes()

    def test_payload_bytes_identical_after_rewrite(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1))
        src = tmp_path / "src.nii"
        src.write_bytes(blob)
        vol = volio.read_nifti(src)
        dst = tmp_path / "dst.nii"
        volio.write_nifti(vol, dst)
        assert dst.read_bytes()[-data.nbytes:] == blob[-data.nbytes:]

    def test_field_round_trip(self, tmp_path, rng):
        dims = (8, 8, 8)
        fld = DisplacementField(
            header=AffineHeader.isotropic(dims),
            data=rng.standard_normal(dims + (3,)),
        )
        path = tmp_path / "field.nii"
        volio.write_nifti(fld, path)
        back = volio.read_nifti(path)
        assert isinstance(back, DisplacementField)
        assert np.array_equal(back.data, fld.data)

    def test_gzip_write_read(self, tmp_path, rng):
        dims = (6, 5, 4)
        vol = Volume(
            header=AffineHeader.isotropic(dims),
            kind="scalar",
            data=rng.standard_normal(dims),
        )
        path = tmp_path / "vol.nii.gz"
        volio.write_nifti(vol, path, use_gzip=True)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        back = volio.read_nifti(path)
        assert np.array_equal(back.data, vol.data)

    def test_header_affine_round_trip(self, tmp_path):
        dims = (3, 3, 3)
        aff = np.array(
            [
                [0.0, -1.0, 0.0, 10.0],
                [1.0, 0.0, 0.0, -4.0],
                [0.0, 0.0, 2.0, 1.5],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        hdr = AffineHeader(dims=dims, spacing=(1.0, 1.0, 2.0), affine=aff)
        vol = Volume(header=hdr, kind="scalar", data=np.zeros(dims))
        path = tmp_path / "aff.nii"
        volio.write_nifti(vol, path)
        back = volio.read_nifti(path)
        assert np.allclose(back.header.affine, aff)

    def test_write_read_identity_random_payload_per_dtype(self, tmp_path, rng):
        # property run: several random payloads per supported datatype
        for np_dtype in (np.uint8, np.int16, np.int32, np.float32, np.float64):
            for trial in range(3):
                dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
                kind = "label" if np.dtype(np_dtype).kind in "ui" else "scalar"
                if kind == "label":
                    data = rng.integers(0, 20, size=dims).astype(np_dtype)
                else:
                    data = rng.standard_normal(dims).astype(np_dtype)
                vol = Volume(header=AffineHeader.isotropic(dims), kind=kind, data=data)
                path = tmp_path / f"t{np.dtype(np_dtype).name}_{trial}.nii"
                volio.write_nifti(vol, path)
                back = volio.read_nifti(path)
                assert back.header.dims == dims
                assert np.array_equal(back.data, data)


# Writes a 32^3 random float64 volume under a 4 KiB file-size limit, so the
# write fails partway through the payload with EFBIG, as on a full disk.
_WRITE_OVER_LIMIT = """
import resource, signal, sys
import numpy as np
from regeval import errors, volio
vol = volio.Volume(
    volio.AffineHeader.isotropic((32, 32, 32)), "scalar",
    np.random.default_rng(0).standard_normal((32, 32, 32)),
)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    volio.write_nifti(vol, sys.argv[1], use_gzip=sys.argv[2] == "gzip")
except errors.IoFailure as exc:
    print(exc)
"""


_WRITE_KINDS = [
    ("label", np.uint8), ("label", np.int16), ("label", np.int32),
    ("scalar", np.float32), ("scalar", np.float64),
    ("field", np.float32), ("field", np.float64),
]


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(*[st.integers(1, 7)] * 3),
    st.sampled_from(_WRITE_KINDS),
    st.sampled_from("CF"),
    st.integers(0, 2**32 - 1),
)
def test_gzip_file_decompresses_to_the_raw_file(dims, kind_dtype, order, seed):
    kind, np_dtype = kind_dtype
    rng = np.random.default_rng(seed)
    header = AffineHeader.isotropic(dims, 1.5)
    if kind == "field":
        data = rng.standard_normal(dims + (3,)).astype(np_dtype)
    elif kind == "label":
        data = rng.integers(0, 5, size=dims).astype(np_dtype)
    else:
        data = rng.standard_normal(dims).astype(np_dtype)
    data = np.asfortranarray(data) if order == "F" else np.ascontiguousarray(data)
    obj = DisplacementField(header, data) if kind == "field" else Volume(header, kind, data)
    with tempfile.TemporaryDirectory() as tmp:
        raw_path, gz_path, again = (Path(tmp) / n for n in ("a.nii", "a.nii.gz", "b.nii.gz"))
        volio.write_nifti(obj, raw_path)
        volio.write_nifti(obj, gz_path, use_gzip=True)
        volio.write_nifti(obj, again, use_gzip=True)
        raw, gz = raw_path.read_bytes(), gz_path.read_bytes()
        assert gzip.decompress(gz) == raw
        assert zlib.decompress(gz, 31) == raw
        assert again.read_bytes() == gz
        back = volio.read_nifti(gz_path)
    assert back.data.dtype == data.dtype
    assert np.array_equal(back.data, data)


class TestAtomicWriteNifti:
    @pytest.mark.parametrize("mode", ["gzip", "raw"])
    def test_write_failing_midway_keeps_old_file(self, tmp_path, mode):
        target = tmp_path / "field.nii"
        target.write_bytes(b"old")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", _WRITE_OVER_LIMIT, str(target), mode],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"could not write {target}")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("use_gzip", [False, True])
    def test_bytes_unchanged_and_no_temp_file(self, tmp_path, rng, use_gzip):
        vol = Volume(AffineHeader.isotropic((5, 4, 3)), "scalar", rng.standard_normal((5, 4, 3)))
        target = tmp_path / "vol.nii"
        volio.write_nifti(vol, target, use_gzip=use_gzip)
        dtype = np.dtype(np.float64)
        want = volio._build_header(vol, dtype) + b"\x00" * 4 + vol.data.tobytes(order="F")
        if use_gzip:
            # gzip header (mtime 0, XFL 4 for the fastest level, OS unix),
            # one final stored deflate block, then CRC-32 and length
            stored = (
                b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\x03"
                + b"\x01" + struct.pack("<HH", len(want), len(want) ^ 0xFFFF) + want
                + struct.pack("<II", zlib.crc32(want), len(want))
            )
            got = target.read_bytes()
            assert got == stored
            assert gzip.decompress(got) == want
        else:
            assert target.read_bytes() == want
        assert list(tmp_path.iterdir()) == [target]

    def test_symlink_target_replaced_at_its_real_location(self, tmp_path):
        vol = Volume(AffineHeader.isotropic((2, 2, 2)), "label", np.arange(8, dtype=np.uint8).reshape(2, 2, 2))
        real_dir = tmp_path / "real"
        real_dir.mkdir()
        real = real_dir / "vol.nii"
        real.write_bytes(b"old")
        link = tmp_path / "link.nii"
        link.symlink_to(real)
        volio.write_nifti(vol, link)
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert np.array_equal(volio.read_nifti(real).data, vol.data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.nii", "real"]
        assert list(real_dir.iterdir()) == [real]

    def test_pipe_target_written_in_place(self, tmp_path):
        vol = Volume(AffineHeader.isotropic((2, 2, 2)), "label", np.arange(8, dtype=np.uint8).reshape(2, 2, 2))
        fifo = tmp_path / "out.nii"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            volio.write_nifti(vol, fifo)
            data = os.read(reader, 65536)
        finally:
            os.close(reader)
        assert len(data) == volio.HEADER_SIZE + 4 + 8
        assert data[-8:] == vol.data.tobytes(order="F")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]


class TestGzipPolicy:
    @pytest.mark.parametrize("kind", ["image", "field32", "field64"])
    def test_float_payload_is_stored_not_deflated(self, tmp_path, kind):
        # a 48^3 float64 field spans three 1 MiB write slices
        image, _, _ = make_phantom(PhantomSpec(dims=(48, 48, 48), seed=3))
        if kind == "image":
            obj = image
        else:
            dtype = np.float32 if kind == "field32" else np.float64
            data = np.random.default_rng(3).standard_normal((48, 48, 48, 3)).astype(dtype)
            obj = DisplacementField(image.header, data)
        raw_path, gz_path = tmp_path / "a.nii", tmp_path / "a.nii.gz"
        volio.write_nifti(obj, raw_path)
        volio.write_nifti(obj, gz_path, use_gzip=True)
        raw, gz = raw_path.read_bytes(), gz_path.read_bytes()
        assert len(gz) >= len(raw)
        assert gzip.decompress(gz) == raw

    def test_phantom_labels_still_deflated(self, tmp_path):
        _, labels, _ = make_phantom(PhantomSpec(dims=(48, 48, 48), seed=3))
        raw_path, gz_path = tmp_path / "a.nii", tmp_path / "a.nii.gz"
        volio.write_nifti(labels, raw_path)
        volio.write_nifti(labels, gz_path, use_gzip=True)
        raw, gz = raw_path.read_bytes(), gz_path.read_bytes()
        assert len(gz) < len(raw) / 10
        assert gzip.decompress(gz) == raw

    @pytest.mark.parametrize("np_dtype", [np.float32, np.float64])
    def test_run_length_deflated_file_reads_bit_identically(self, tmp_path, rng, np_dtype):
        # the stream earlier versions wrote for float payloads
        fld = DisplacementField(
            AffineHeader.isotropic((9, 7, 5), 1.5),
            rng.standard_normal((9, 7, 5, 3)).astype(np_dtype),
        )
        raw_path, gz_path = tmp_path / "f.nii", tmp_path / "f.nii.gz"
        volio.write_nifti(fld, raw_path)
        deflate = zlib.compressobj(6, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
        gz_path.write_bytes(deflate.compress(raw_path.read_bytes()) + deflate.flush())
        back = volio.read_field(gz_path)
        assert back.data.dtype == fld.data.dtype
        assert back.data.tobytes() == fld.data.tobytes()
        assert np.array_equal(back.header.affine, fld.header.affine)


class TestLandmarks:
    def test_named_row(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("name,x,y,z\nA,10,10,10\n")
        lm = volio.read_landmarks(path)
        assert lm.names == ("A",)
        assert np.array_equal(lm.points, [[10.0, 10.0, 10.0]])

    def test_unnamed_rows_auto_numbered(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("x,y,z\n1.5,2.25,3.0\n4,5,6\n")
        lm = volio.read_landmarks(path)
        assert lm.names == ("0", "1")
        assert np.array_equal(lm.points[0], [1.5, 2.25, 3.0])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_bytes(b"name,x,y,z\r\nA,1,2,3\r\n")
        lm = volio.read_landmarks(path)
        assert lm.names == ("A",)

    def test_malformed_arity(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("name,x,y,z\nA,1,2\n")
        with pytest.raises(errors.MalformedRow):
            volio.read_landmarks(path)

    def test_unparsable_number(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("name,x,y,z\nA,1,two,3\n")
        with pytest.raises(errors.MalformedRow):
            volio.read_landmarks(path)

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("name,x,y,z\nA,1,2,3\nA,4,5,6\n")
        with pytest.raises(errors.DuplicateName):
            volio.read_landmarks(path)

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("name,x,y,z\nA,1,nan,3\n")
        with pytest.raises(errors.NonFiniteCoordinate):
            volio.read_landmarks(path)

    def test_write_read_round_trip(self, tmp_path, rng):
        from regeval.volio import LandmarkSet

        lm = LandmarkSet(names=("a", "b", "c"), points=rng.uniform(0, 30, size=(3, 3)))
        path = tmp_path / "lm.csv"
        volio.write_landmarks(lm, path)
        back = volio.read_landmarks(path)
        assert back.names == lm.names
        assert np.array_equal(back.points, lm.points)


class TestUnits:
    def test_mm_conversion_divides_by_spacing(self):
        dims = (4, 4, 4)
        hdr = AffineHeader(dims=dims, spacing=(2.0, 1.0, 0.5), affine=np.diag([2.0, 1.0, 0.5, 1.0]))
        fld = DisplacementField(header=hdr, data=np.ones(dims + (3,)))
        out = volio.scale_field_units(fld, "mm")
        assert np.allclose(out.data[..., 0], 0.5)
        assert np.allclose(out.data[..., 1], 1.0)
        assert np.allclose(out.data[..., 2], 2.0)

    def test_voxel_is_identity(self):
        fld = DisplacementField(header=AffineHeader.isotropic((2, 2, 2)), data=np.ones((2, 2, 2, 3)))
        assert volio.scale_field_units(fld, "voxel") is fld


class TestTextWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["a,b", None, 0.1, np.float64(1e-300), np.float32(0.1), 3, np.int64(4), True]]
        volio.write_csv(path, ["s", "none", "f", "f64", "f32", "i", "i64", "b"], rows)
        want = f's,none,f,f64,f32,i,i64,b\n"a,b",,0.1,1e-300,{float(np.float32(0.1))!r},3,4,True\n'
        assert path.read_bytes() == want.encode("utf-8")

    def test_only_volio_calls_the_text_writers(self):
        """Every JSON and CSV file is written by volio.write_json / write_csv,
        so their format rules live in one place."""
        writers = {"csv.writer", "json.dump", "json.dumps", "atomic_open", "volio.atomic_open"}
        found = []
        for path in sorted(Path(volio.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in writers:
                    found.append((path.name, ast.unparse(node.func), node.lineno))
        assert [site for site in found if site[0] != "volio.py"] == []
        assert {name for _, name, _ in found} == {"csv.writer", "json.dump", "atomic_open"}
