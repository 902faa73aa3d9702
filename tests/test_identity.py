"""Byte identity of what the commands write.

One fixed sequence of ``synth``, ``eval``, ``rank``, ``correlate`` and
``register`` runs must write exactly the files whose sha256 digests
``identity_digests.json`` holds, keyed by path relative to the run's root.
The text ``register`` prints (its final loss) is kept as a file beside its
field.  Echoed paths are the one thing normalized: the root's prefix in
``errors.json`` and in the printed text becomes ``<root>``.

Regenerate the digests (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_identity.py
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from regeval import cli, synth, volio

DIGESTS = Path(__file__).with_name("identity_digests.json")
SYNTH = ["--seed", "5", "synth", "--cases", "8", "--dims", "32", "32", "32", "--labels", "4"]
ALL_METRICS = "dsc,hd95,tre,ndv,dsc30,tre30"


def _run(*argv: str, code: int = 0) -> None:
    assert cli.main(list(argv)) == code, argv


def _register(root: Path, name: str, *argv: str) -> None:
    """Run ``register`` with its printed text saved as ``<name>.stdout``."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        _run("--out", str(root / f"{name}.nii"), "register", *argv)
    (root / f"{name}.stdout").write_text(printed.getvalue())


def _digests(top: Path, root: Path, prefix: str) -> dict:
    """sha256 of every file under ``top``, keyed by ``prefix`` plus the
    path relative to ``top``; ``root`` becomes ``<root>`` in errors.json
    and in printed text."""
    digests = {}
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "errors.json" or path.suffix == ".stdout":
            data = data.replace(str(root).encode(), b"<root>")
        digests[prefix + path.relative_to(top).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def run_sequence(root: Path) -> dict:
    """Run the sequence under ``root``; the digest of every file written."""
    cohort, jobs1, jobs2 = root / "cohort", root / "eval_jobs1", root / "eval_jobs2"
    _run("--out", str(cohort), *SYNTH)
    _run("--out", str(root / "cohort_gzip"), *SYNTH, "--gzip")
    digests = _digests(cohort, root, "cohort/")
    digests.update(_digests(root / "cohort_gzip", root, "cohort_gzip/"))

    _run("--jobs", "1", "--out", str(jobs1), "eval", str(cohort / "manifest.csv"))
    _run("--jobs", "2", "--out", str(jobs2), "eval", str(cohort / "manifest.csv"))
    reports = _digests(jobs1, root, "eval/")
    assert len(reports) == 17  # 8 cases x (truth, zero) and errors.json
    assert _digests(jobs2, root, "eval/") == reports, "--jobs 2 changed the reports"
    digests.update(reports)

    _run("--out", str(root / "rank_default"), "rank", str(jobs1))
    _run("--out", str(root / "rank_all"), "rank", str(jobs1), "--metrics", ALL_METRICS)
    _run("--out", str(root / "corr" / "dsc_tre.csv"), "correlate", str(jobs1), "dsc", "tre")
    _run("--out", str(root / "corr" / "ndv_hd95.csv"), "correlate", str(jobs1), "ndv", "hd95")
    for top in ("rank_default", "rank_all", "corr"):
        digests.update(_digests(root / top, root, f"{top}/"))

    # one job's field missing: its report goes and errors.json records it
    manifest = (cohort / "manifest.csv").read_text()
    missing = manifest.replace("fields/case001_truth.nii", "fields/missing.nii")
    assert missing.count("missing.nii") == 1
    (cohort / "missing.csv").write_text(missing)
    _run("--jobs", "1", "--out", str(jobs1), "eval", str(cohort / "missing.csv"), code=1)
    digests.update(_digests(jobs1, root, "eval_missing_field/"))

    # the C6 recipe at 24^3, three short levels; then an instance
    # optimization in displacement mode, seeded with that field
    reg = root / "register"
    reg.mkdir()
    dims = (24, 24, 24)
    phantom = synth.make_phantom(synth.PhantomSpec(dims=dims, label_count=6, seed=21, noise_sigma=0.1))
    velocity = synth.make_velocity(synth.Svf(seed=22, amplitude=6.0, smoothness=8.0), dims)
    pair = synth.make_pair(phantom, velocity)
    fixed, moving = str(reg / "fixed.nii"), str(reg / "moving.nii")
    volio.write_nifti(pair.fixed_image, fixed)
    volio.write_nifti(pair.moving_image, moving)
    _register(reg, "svf", fixed, moving, "--iters", "5,5,5")
    _register(reg, "init", fixed, moving, "--iters", "5", "--parameterization",
              "displacement", "--init", str(reg / "svf.nii"))
    digests.update(_digests(reg, root, "register/"))
    return digests


def test_outputs_match_the_stored_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = run_sequence(tmp_path)
    assert sorted(got) == sorted(want)
    assert [k for k in sorted(got) if got[k] != want[k]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_sequence(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}", file=sys.stderr)
