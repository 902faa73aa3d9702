import gzip
import os
import stat
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval import errors, volio
from regeval.volio import AffineHeader, DisplacementField, Volume

from conftest import craft_nifti


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

    def test_gzip_round_trip_identical(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        blob = craft_nifti(data, datatype=16, dim=(3, 2, 2, 2, 1, 1, 1, 1))
        plain = write_and_read(tmp_path, blob)
        path = tmp_path / "file.nii.gz"
        path.write_bytes(gzip.compress(blob))
        zipped = volio.read_nifti(path)
        assert np.array_equal(plain.data, zipped.data)
        assert plain.header.dims == zipped.header.dims

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
        assert target.read_bytes() == (gzip.compress(want, mtime=0) if use_gzip else want)
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
