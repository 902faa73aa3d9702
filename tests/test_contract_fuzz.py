"""The exit-code contract under corrupted inputs: one file of a small cohort
(raw or gzip) or of its reports is damaged, and ``eval`` or ``rank`` still
returns 0, 1 or 2, prints exactly one ``error:`` line when it returns 2,
lets no exception escape and leaves no temporary file behind."""
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval import cli
from regeval.synth import make_cohort

# text that CSV, JSON and number parsers treat specially
TOKENS = [b",", b"\n", b"nan", b"1e309", b'"', b"{"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Per target: a tree to copy and the files in it that ``eval`` or ``rank`` reads."""
    root = tmp_path_factory.mktemp("fuzz")
    targets = {}
    for name, gzip_files in (("raw", False), ("gzip", True)):
        tree = root / name
        make_cohort(tree, cases=2, dims=(12, 12, 12), seed=4, label_count=3, gzip_files=gzip_files)
        read = [p for d in ("labels", "landmarks", "fields") for p in (tree / d).iterdir()]
        targets[name] = (tree, sorted(p.relative_to(tree) for p in [tree / "manifest.csv", *read]))
    reports = root / "reports"
    assert cli.main(["--out", str(reports), "eval", str(root / "raw" / "manifest.csv")]) == 0
    targets["reports"] = (reports, sorted(p.relative_to(reports) for p in reports.glob("*__*.json")))
    return targets


@st.composite
def corruptions(draw, data: bytes) -> bytes:
    at = draw(st.one_of(st.integers(0, 511), st.integers(0, 10**6))) % max(len(data), 1)
    kind = draw(st.sampled_from(["flip", "truncate", "splice"]))
    if kind == "flip" and data:
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    return data[:at] + draw(st.sampled_from(TOKENS)) + data[at + draw(st.integers(0, 4)) :]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_one_corrupted_file_keeps_the_exit_contract(inputs, data):
    target = data.draw(st.sampled_from(sorted(inputs)), label="target")
    source, files = inputs[target]
    victim = data.draw(st.sampled_from(files), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "in"
        shutil.copytree(source, tree)
        damaged = data.draw(corruptions((tree / victim).read_bytes()), label="bytes")
        (tree / victim).write_bytes(damaged)
        out = Path(tmp) / "out"
        if target == "reports":
            argv = ["--out", str(out), "rank", str(tree)]
        else:
            argv = ["--out", str(out), "eval", str(tree / "manifest.csv")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
        assert [p for p in Path(tmp).rglob("*") if p.name.endswith(".tmp")] == []
        for report in out.glob("*.json"):  # whole, never half-written
            json.loads(report.read_text(encoding="utf-8"))
