from dataclasses import astuple, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from regeval.errors import UnpairedCases
from regeval.manifest import MANIFEST_COLUMNS, ZERO_FIELD, Job, read_manifest, write_manifest
from regeval.synth import make_cohort

# cell text with the characters CSV must quote; no surrounding blanks,
# since the reader strips every cell (``padded`` adds them)
_CHARS = "abcXYZ019_-./ ,\"'é"


def _text(chars):
    return st.text(st.sampled_from(list(chars)), min_size=1, max_size=12).map(str.strip).filter(bool)


_TEXT = _text(_CHARS)
# a method or pair id holds no path separator
_ID = _text(_CHARS.replace("/", ""))
_PATH = st.one_of(
    st.just(ZERO_FIELD),
    _TEXT,
    _TEXT.map(lambda t: "sub/" + t),
    _TEXT.map(lambda t: "/abs/" + t),
)
_OPTIONAL = st.one_of(st.none(), _PATH)


def _report_name(key: tuple[str, str]) -> str:
    return Job(*key, "", "", "").report_name


@st.composite
def job_lists(draw):
    keys = draw(st.lists(st.tuples(_ID, _ID), unique_by=_report_name, max_size=6))
    return [
        Job(method, pair_id, draw(_PATH), draw(_PATH), draw(_PATH),
            draw(_OPTIONAL), draw(_OPTIONAL), draw(_OPTIONAL))
        for method, pair_id in keys
    ]


@st.composite
def padded(draw, jobs):
    """``jobs`` with one non-empty cell given a leading or trailing blank."""
    i = draw(st.integers(0, len(jobs) - 1))
    column = draw(st.sampled_from([c for c, v in zip(MANIFEST_COLUMNS, astuple(jobs[i])) if v]))
    blank = draw(st.sampled_from([" ", "\t"]))
    cell = getattr(jobs[i], column)
    cell = blank + cell if draw(st.booleans()) else cell + blank
    return jobs[:i] + [replace(jobs[i], **{column: cell})] + jobs[i + 1 :]


def resolved(job: Job, base: Path) -> Job:
    """``job`` as the reader returns it: relative paths joined to the
    manifest's directory, empty cells and a ``ZERO`` field kept as they are."""

    def res(cell):
        return cell if cell is None else str(base / cell)

    field = job.field if job.field == ZERO_FIELD else res(job.field)
    return Job(job.method, job.pair_id, res(job.fixed_seg), res(job.moving_seg), field,
               res(job.landmarks_fixed), res(job.landmarks_moving), res(job.mask))


@settings(max_examples=60, deadline=None)
@given(jobs=job_lists().flatmap(lambda js: st.one_of(st.just(js), padded(js)) if js else st.just(js)))
# cells that a plain ",".join writer would split or mangle
@example(jobs=[Job('m,"1"', "p 0", "a,b.nii", 'say "x".nii', ZERO_FIELD, mask="/abs/m,k.nii")])
@example(jobs=[Job("m", "p", "a.nii", "b.nii", "f.nii", mask="m.nii ")])
def test_read_returns_written_jobs_resolved(tmp_path_factory, jobs):
    path = tmp_path_factory.mktemp("manifest") / "m.csv"
    if any(c is not None and c != c.strip() for j in jobs for c in astuple(j)):
        with pytest.raises(UnpairedCases, match="leading or trailing blanks"):
            write_manifest(path, jobs)
        assert not path.exists()
        return
    write_manifest(path, jobs)
    assert read_manifest(path) == [resolved(j, path.parent) for j in jobs]


def test_zero_is_special_only_in_the_field_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",".join(MANIFEST_COLUMNS) + "\nm,p,ZERO,b.nii,ZERO,ZERO,,ZERO\n")
    job, = read_manifest(path)
    assert job.field == ZERO_FIELD
    assert job.mask == str(tmp_path / "ZERO")
    assert job.fixed_seg == job.landmarks_fixed == str(tmp_path / "ZERO")


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


def test_jobs_sharing_a_report_name_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",".join(MANIFEST_COLUMNS) + "\na__b,c,f,m,ZERO,,,\na,b__c,f,m,ZERO,,,\n")
    with pytest.raises(UnpairedCases, match="line 3 has the report name a__b__c.json of line 2"):
        read_manifest(path)


@pytest.mark.parametrize("method, pair_id", [("../escape", "p"), ("m", "sub/p"), ("m", "a\\b")])
def test_path_separator_in_an_id_rejected(tmp_path, method, pair_id):
    path = tmp_path / "m.csv"
    path.write_text(",".join(MANIFEST_COLUMNS) + f"\nok,p,f,m,ZERO,,,\n{method},{pair_id},f,m,ZERO,,,\n")
    with pytest.raises(UnpairedCases, match="line 3: .* holds a path separator"):
        read_manifest(path)
    written = tmp_path / "w.csv"
    with pytest.raises(UnpairedCases, match="holds a path separator"):
        write_manifest(written, [Job(method, pair_id, "f", "m", ZERO_FIELD)])
    assert not written.exists()


def test_an_iterator_of_jobs_is_written_whole(tmp_path):
    jobs = [Job("m", f"p{i}", "f.nii", "m.nii", ZERO_FIELD) for i in range(3)]
    path = tmp_path / "m.csv"
    write_manifest(path, (job for job in jobs))
    assert read_manifest(path) == [resolved(j, tmp_path) for j in jobs]
    bad = tmp_path / "bad.csv"
    with pytest.raises(UnpairedCases, match="holds a path separator"):
        write_manifest(bad, (job for job in [*jobs, Job("m", "a/b", "f", "m", ZERO_FIELD)]))
    assert not bad.exists()
