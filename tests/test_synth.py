import gzip
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from regeval import errors
from regeval.metrics import evaluate_pair, ndv
from regeval.synth import (
    FoldSlab,
    PhantomSpec,
    Svf,
    Translation,
    make_cohort,
    make_field,
    make_pair,
    make_phantom,
    make_velocity,
)
from regeval.volio import read_landmarks, read_nifti
from regeval.warp import sample_trilinear


class TestMakePhantom:
    def test_deterministic_for_seed(self):
        spec = PhantomSpec(dims=(24, 24, 24), label_count=3, seed=1)
        img1, lab1, lm1 = make_phantom(spec)
        img2, lab2, lm2 = make_phantom(spec)
        assert np.array_equal(img1.data, img2.data)
        assert np.array_equal(lab1.data, lab2.data)
        assert np.array_equal(lm1.points, lm2.points)

    def test_seed_changes_output(self):
        img1, _, _ = make_phantom(PhantomSpec(dims=(16, 16, 16), seed=1))
        img2, _, _ = make_phantom(PhantomSpec(dims=(16, 16, 16), seed=2))
        assert not np.array_equal(img1.data, img2.data)

    def test_label_histogram_matches_inequality_oracle(self):
        spec = PhantomSpec(dims=(32, 32, 32), label_count=2, seed=3)
        _, lab, _ = make_phantom(spec)
        center, axes = spec.resolved()
        grid = np.indices((32, 32, 32)).astype(np.float64)
        want = np.zeros((32, 32, 32), dtype=np.int16)
        for k in range(2):
            lhs = sum(((grid[a] - center[a]) / axes[k][a]) ** 2 for a in range(3))
            want[lhs <= 1.0] = k + 1
        assert np.array_equal(lab.data, want)

    def test_landmarks_sit_on_label_boundaries(self):
        spec = PhantomSpec(dims=(32, 32, 32), label_count=3, seed=7)
        _, lab, lm = make_phantom(spec)
        for p in lm.points:
            idx = np.rint(p).astype(int)
            lo = np.maximum(idx - 1, 0)
            hi = np.minimum(idx + 2, np.asarray(lab.dims))
            patch = lab.data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
            assert np.unique(patch).size > 1  # label changes within one voxel

    def test_unique_landmark_names(self):
        _, _, lm = make_phantom(PhantomSpec(dims=(24, 24, 24), label_count=4, seed=0))
        assert len(set(lm.names)) == len(lm.names) == 24

    def test_invalid_specs_rejected(self):
        with pytest.raises(errors.SpecInvalid):
            make_phantom(PhantomSpec(dims=(16, 16, 16), label_count=1))
        with pytest.raises(errors.SpecInvalid):
            make_phantom(
                PhantomSpec(
                    dims=(16, 16, 16),
                    label_count=2,
                    semi_axes=((5.0, 5.0, 5.0), (6.0, 4.0, 4.0)),  # not nested
                )
            )
        with pytest.raises(errors.SpecInvalid):
            make_phantom(
                PhantomSpec(
                    dims=(16, 16, 16),
                    label_count=2,
                    semi_axes=((20.0, 5.0, 5.0), (4.0, 4.0, 4.0)),  # overflows grid
                )
            )

    def test_label_count_fits_the_int16_label_map(self):
        PhantomSpec(dims=(16, 16, 16), label_count=32_767).resolved()
        with pytest.raises(errors.SpecInvalid, match="label_count"):
            make_phantom(PhantomSpec(dims=(4, 4, 4), label_count=32_768))


class TestMakeField:
    def test_translation_constant(self):
        fld, facts = make_field(Translation((3.0, 0.0, 0.0)), (8, 8, 8))
        assert np.all(fld.data == np.array([3.0, 0.0, 0.0]))
        assert facts["ndv"] == 0.0

    def test_svf_has_no_folding(self):
        dims = (48, 48, 48)
        fld, facts = make_field(Svf(seed=5, amplitude=2.0), dims)
        assert ndv(fld, np.ones(dims, dtype=np.int16)) < facts["ndv_bound"]

    def test_svf_amplitude_respected(self):
        fld, _ = make_field(Svf(seed=5, amplitude=2.0), (32, 32, 32))
        mags = np.sqrt(np.sum(fld.data**2, axis=-1))
        assert mags.max() < 2.0 * 1.3  # exp of max-2 velocity stays comparable

    def test_fold_slab_analytic_volume(self):
        dims = (64, 64, 64)
        _, facts = make_field(FoldSlab(axis=0, center=30.0, width=2.0), dims)
        assert facts["folded_volume"] == 2.0 * 63 * 63

    def test_bad_params(self):
        with pytest.raises(errors.BadParams):
            make_field(FoldSlab(axis=0, center=30.0, width=8.0), (32, 32, 32))
        with pytest.raises(errors.BadParams):
            make_field(FoldSlab(axis=5, center=3.0, width=1.0), (32, 32, 32))
        with pytest.raises(errors.BadParams):
            make_field(Translation((np.nan, 0.0, 0.0)), (8, 8, 8))

    def test_smoothness_bound_is_ten_times_the_largest_dimension(self):
        assert make_velocity(Svf(seed=0, amplitude=1.0, smoothness=40.0), (4, 2, 3)).data.shape == (4, 2, 3, 3)
        with pytest.raises(errors.BadParams, match=r"smoothness <= 40\b"):
            make_velocity(Svf(seed=0, amplitude=1.0, smoothness=40.5), (4, 2, 3))


class TestMakePair:
    def test_zero_velocity_gives_identical_pair(self):
        phantom = make_phantom(PhantomSpec(dims=(24, 24, 24), label_count=3, seed=2))
        v = make_velocity(Svf(seed=0, amplitude=0.0), (24, 24, 24))
        pair = make_pair(phantom, v)
        assert np.array_equal(pair.moving_labels.data, pair.fixed_labels.data)
        assert np.allclose(pair.moving_image.data, pair.fixed_image.data)
        assert np.all(pair.truth.data == 0.0)

    def test_truth_field_gives_zero_tre(self):
        dims = (32, 32, 32)
        phantom = make_phantom(PhantomSpec(dims=dims, label_count=3, seed=4))
        pair = make_pair(phantom, make_velocity(Svf(seed=9, amplitude=2.0), dims))
        u_at = sample_trilinear(pair.truth, pair.fixed_landmarks.points)
        q = pair.fixed_landmarks.points + np.atleast_2d(u_at)
        assert np.array_equal(q, pair.moving_landmarks.points)

    def test_smooth_pair_evaluates_near_perfect(self):
        dims = (64, 64, 64)
        phantom = make_phantom(PhantomSpec(dims=dims, label_count=4, seed=11))
        pair = make_pair(phantom, make_velocity(Svf(seed=12, amplitude=3.0), dims))
        report = evaluate_pair(
            pair.fixed_labels,
            pair.moving_labels,
            pair.truth,
            landmarks=(pair.fixed_landmarks, pair.moving_landmarks),
        )
        assert report.dsc_mean >= 0.97
        assert report.tre_mean <= 0.2
        assert report.ndv < 1e-6

    def test_dims_must_match(self):
        phantom = make_phantom(PhantomSpec(dims=(16, 16, 16), seed=0))
        v = make_velocity(Svf(seed=0, amplitude=1.0), (18, 16, 16))
        with pytest.raises(errors.BadParams):
            make_pair(phantom, v)


# Warms up with a one-case cohort, then prints the traced peak bytes of
# building a cohort of argv[2] cases under argv[1].
_COHORT_PEAK = """
import sys, tracemalloc
from pathlib import Path
from regeval.synth import make_cohort
out = Path(sys.argv[1])
make_cohort(out / "warm", cases=1, dims=(24, 24, 24), seed=0)
tracemalloc.start()
make_cohort(out / "run", cases=int(sys.argv[2]), dims=(24, 24, 24), seed=0)
print(tracemalloc.get_traced_memory()[1])
"""


class TestMakeCohort:
    def test_cohort_layout_and_replayability(self, tmp_path):
        manifest = make_cohort(tmp_path / "cohort", cases=2, dims=(20, 20, 20), seed=5)
        root = tmp_path / "cohort"
        assert (root / "manifest.json").exists()
        assert (root / "manifest.csv").exists()
        loaded = json.loads((root / "manifest.json").read_text())
        assert loaded == json.loads(json.dumps(manifest))
        for case in loaded["cases"]:
            for key, rel in case["paths"].items():
                assert (root / rel).exists(), f"{key} missing"
        # replaying with the same seed gives identical volumes
        make_cohort(tmp_path / "cohort2", cases=2, dims=(20, 20, 20), seed=5)
        a = read_nifti(root / loaded["cases"][0]["paths"]["fixed_image"])
        b = read_nifti(tmp_path / "cohort2" / loaded["cases"][0]["paths"]["fixed_image"])
        assert np.array_equal(a.data, b.data)

    def test_gzip_cohort_decompresses_to_the_raw_cohort(self, tmp_path):
        make_cohort(tmp_path / "raw", cases=2, dims=(12, 10, 8), seed=3)
        make_cohort(tmp_path / "gz", cases=2, dims=(12, 10, 8), seed=3, gzip_files=True)
        raw_files = sorted(p.relative_to(tmp_path / "raw") for p in (tmp_path / "raw").glob("*/*.nii"))
        gz_files = sorted(p.relative_to(tmp_path / "gz") for p in (tmp_path / "gz").glob("*/*.nii.gz"))
        assert len(raw_files) == 10
        assert gz_files == [p.with_name(p.name + ".gz") for p in raw_files]
        for rel in raw_files:
            gz = (tmp_path / "gz" / rel.with_name(rel.name + ".gz")).read_bytes()
            assert gzip.decompress(gz) == (tmp_path / "raw" / rel).read_bytes()

    def test_peak_memory_does_not_grow_with_the_case_count(self, tmp_path):
        # each case's arrays are freed before the next case is built.  Each
        # count is measured in a fresh interpreter: in a shared one, what the
        # earlier tests left behind decides when interpreter tables grow, and
        # such a growth inside the traced window is not the cohort's memory
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        peaks = []
        for cases in (1, 2, 3):
            done = subprocess.run(
                [sys.executable, "-c", _COHORT_PEAK, str(tmp_path / f"c{cases}"), str(cases)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            peaks.append(int(done.stdout))
        # one more 24^3 float64 array (110 KiB) than one case needs is too many
        assert max(peaks) - peaks[0] < 24**3 * 8

    def test_negative_cases_are_a_library_error_before_any_write(self, tmp_path):
        with pytest.raises(errors.BadParams, match="cases must not be negative, got -2"):
            make_cohort(tmp_path / "c", cases=-2)
        assert list(tmp_path.iterdir()) == []

    def test_landmarks_round_trip_through_cohort(self, tmp_path):
        make_cohort(tmp_path / "c", cases=1, dims=(20, 20, 20), seed=1)
        lm = read_landmarks(tmp_path / "c" / "landmarks" / "case000_fixed.csv")
        assert len(lm) > 0
