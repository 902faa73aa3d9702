from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from regeval.manifest import ZERO_FIELD, Job, read_manifest, write_manifest
from regeval.synth import make_cohort

# cell text with the characters CSV must quote; no surrounding blanks,
# since the reader strips every cell
_CHARS = st.sampled_from(list("abcXYZ019_-./ ,\"'é"))
_TEXT = st.text(_CHARS, min_size=1, max_size=12).map(str.strip).filter(bool)
_PATH = st.one_of(
    st.just(ZERO_FIELD),
    _TEXT,
    _TEXT.map(lambda t: "sub/" + t),
    _TEXT.map(lambda t: "/abs/" + t),
)
_OPTIONAL = st.one_of(st.none(), _PATH)


@st.composite
def job_lists(draw):
    keys = draw(st.lists(st.tuples(_TEXT, _TEXT), unique=True, max_size=6))
    return [
        Job(method, pair_id, draw(_PATH), draw(_PATH), draw(_PATH),
            draw(_OPTIONAL), draw(_OPTIONAL), draw(_OPTIONAL))
        for method, pair_id in keys
    ]


def resolved(job: Job, base: Path) -> Job:
    """``job`` as the reader returns it: relative paths joined to the
    manifest's directory, ``ZERO`` and empty cells kept as they are."""

    def res(cell):
        return cell if cell in (None, ZERO_FIELD) else str(base / cell)

    cells = (job.fixed_seg, job.moving_seg, job.field, job.landmarks_fixed,
             job.landmarks_moving, job.mask)
    return Job(job.method, job.pair_id, *(res(c) for c in cells))


@settings(max_examples=60, deadline=None)
@given(jobs=job_lists())
# cells that a plain ",".join writer would split or mangle
@example(jobs=[Job('m,"1"', "p 0", "a,b.nii", 'say "x".nii', ZERO_FIELD, mask="/abs/m,k.nii")])
def test_read_returns_written_jobs_resolved(tmp_path_factory, jobs):
    path = tmp_path_factory.mktemp("manifest") / "m.csv"
    write_manifest(path, jobs)
    assert read_manifest(path) == [resolved(j, path.parent) for j in jobs]


def test_synth_manifest_bytes(tmp_path):
    make_cohort(tmp_path, cases=2, dims=(12, 12, 12), seed=3, label_count=2)
    assert (tmp_path / "manifest.csv").read_bytes() == (
        b"method,pair_id,fixed_seg,moving_seg,field,landmarks_fixed,landmarks_moving,mask\n"
        b"truth,case000,labels/case000_fixed.nii,labels/case000_moving.nii,"
        b"fields/case000_truth.nii,landmarks/case000_fixed.csv,landmarks/case000_moving.csv,\n"
        b"zero,case000,labels/case000_fixed.nii,labels/case000_moving.nii,"
        b"ZERO,landmarks/case000_fixed.csv,landmarks/case000_moving.csv,\n"
        b"truth,case001,labels/case001_fixed.nii,labels/case001_moving.nii,"
        b"fields/case001_truth.nii,landmarks/case001_fixed.csv,landmarks/case001_moving.csv,\n"
        b"zero,case001,labels/case001_fixed.nii,labels/case001_moving.nii,"
        b"ZERO,landmarks/case001_fixed.csv,landmarks/case001_moving.csv,\n"
    )
