import csv
import dataclasses
import gzip
import json
import os
import stat
import struct
import subprocess
import sys
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regeval import cli, volio
from regeval.manifest import write_manifest
from regeval.metrics import PairReport
from regeval.synth import make_cohort
from regeval.volio import AffineHeader, DisplacementField, Volume, write_nifti

from conftest import per_slab_folded_volume_cells, whole_array_lerps, whole_array_warp_labels


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    make_cohort(root, cases=3, dims=(20, 20, 20), seed=9, label_count=3, amplitude=1.5)
    return root


def read_dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.glob("*.json"))}


class TestManifest:
    def test_round_trip(self, cohort):
        jobs = cli.read_manifest(cohort / "manifest.csv")
        assert len(jobs) == 6  # 3 cases x (truth, zero)
        assert {j.method for j in jobs} == {"truth", "zero"}
        zero_jobs = [j for j in jobs if j.method == "zero"]
        assert all(j.field == cli.ZERO_FIELD for j in zero_jobs)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        header = ",".join(cli.MANIFEST_COLUMNS)
        row = "a,p0,f.nii,m.nii,ZERO,,,"
        path.write_text(f"{header}\n{row}\n{row}\n")
        with pytest.raises(cli.UnpairedCases):
            cli.read_manifest(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("method,pair\nx,y\n")
        with pytest.raises(cli.UnpairedCases):
            cli.read_manifest(path)


class TestEval:
    def test_reports_equal_the_whole_array_kernels(self, tmp_path, monkeypatch):
        from regeval import metrics
        from regeval.synth import FoldSlab, make_field
        from regeval.volio import read_field

        root = tmp_path / "cohort"  # .nii.gz fields are read back in F order
        argv = ["--seed", "5", "--out", str(root), "synth", "--cases", "3", "--dims", "24", "24", "24",
                "--labels", "4", "--gzip"]
        assert cli.main(argv) == 0
        truth = read_field(root / "fields" / "case000_truth.nii.gz")
        slab, _ = make_field(FoldSlab(axis=0, center=11.0, width=4.0), truth.dims)
        fold = DisplacementField(header=truth.header, data=truth.data + slab.data)
        write_nifti(fold, root / "fields" / "case000_fold.nii.gz", use_gzip=True)
        rows = (root / "manifest.csv").read_text().splitlines()
        rows.append(rows[1].replace("truth", "fold"))
        (root / "manifest.csv").write_text("\n".join(rows) + "\n")

        runs = []
        for kernels in ("blocked", "whole-array"):
            if kernels == "whole-array":
                monkeypatch.setattr(metrics, "warp_labels", whole_array_warp_labels)
                monkeypatch.setattr(metrics, "sample_trilinear",
                                    lambda phi, pts: whole_array_lerps(np.asarray(phi.data, dtype=np.float64), pts))
                monkeypatch.setattr(metrics, "_folded_volume_cells", per_slab_folded_volume_cells)
                # NDV without the certificate: every counted cell goes through the tetrahedra
                monkeypatch.setattr(metrics, "_fold_free_planes", lambda u: np.zeros(u.shape[0] - 1, dtype=bool))
                # HD95 without probing: every point off the other boundary
                # goes to balanced, compact KD-trees
                monkeypatch.setattr(metrics, "_stages", lambda spacing: iter(()))
                monkeypatch.setattr(metrics, "_TREE", {})
            out = tmp_path / kernels
            assert cli.main(["--jobs", "1", "--out", str(out), "eval", str(root / "manifest.csv")]) == 0
            runs.append(read_dir_bytes(out))
        assert len(runs[0]) == 8  # seven reports and errors.json
        assert json.loads(runs[0]["fold__case000.json"])["ndv"] > 0.0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_and_writes_nothing(self, cohort, tmp_path, capsys, jobs):
        out = tmp_path / "reports"
        assert cli.main(["--jobs", jobs, "--out", str(out), "eval", str(cohort / "manifest.csv")]) == 2
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_reports_written_and_zero_exit(self, cohort, tmp_path):
        out = tmp_path / "reports"
        code = cli.main(["--out", str(out), "eval", str(cohort / "manifest.csv")])
        assert code == 0
        reports = sorted(out.glob("*__*.json"))
        assert len(reports) == 6
        errors = json.loads((out / "errors.json").read_text())
        assert errors == []

    def test_worker_count_does_not_change_bytes(self, cohort, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert cli.main(["--out", str(out1), "eval", str(cohort / "manifest.csv")]) == 0
        assert (
            cli.main(["--jobs", "2", "--out", str(out2), "eval", str(cohort / "manifest.csv")])
            == 0
        )
        assert read_dir_bytes(out1) == read_dir_bytes(out2)

    def test_jobs_falling_back_to_kdtrees_give_the_same_bytes(self, cohort, tmp_path, monkeypatch):
        # a 6-voxel translation leaves most HD95 points beyond the probe's
        # budget: the KD-trees answer them, in the parent at --jobs 1 and in
        # the workers (one query thread each) at --jobs 2
        import shutil

        from regeval import metrics
        from regeval.synth import Translation, make_field

        root = tmp_path / "cohort"
        shutil.copytree(cohort, root)
        shift, _ = make_field(Translation((6.0, 0.0, 0.0)), (20, 20, 20))
        write_nifti(shift, root / "fields" / "shift.nii")
        header, *rows = (root / "manifest.csv").read_text().splitlines()
        far = [row.split(",") for row in rows if row.startswith("truth,")]
        for cells in far:
            cells[0], cells[4] = "shift", "fields/shift.nii"  # method, field
        (root / "far.csv").write_text("\n".join([header] + [",".join(c) for c in far]) + "\n")
        built = []
        tree = metrics.FixedSide.tree
        monkeypatch.setattr(metrics.FixedSide, "tree", lambda side, label: built.append(label) or tree(side, label))
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["--jobs", jobs, "--out", str(out), "eval", str(root / "far.csv")]) == 0
            runs.append(read_dir_bytes(out))
        assert built  # the fallback ran at --jobs 1
        assert len(runs[0]) == 4  # three reports and errors.json
        assert runs[0] == runs[1]

    def test_missing_file_recorded_without_aborting(self, cohort, tmp_path):
        manifest = tmp_path / "broken.csv"
        rows = (cohort / "manifest.csv").read_text().splitlines()
        rows.append("bad,case000,labels/does_not_exist.nii,labels/case000_moving.nii,ZERO,,,")
        manifest.write_text("\n".join(rows) + "\n")
        # paths resolve against the manifest directory, so copy relative layout
        manifest2 = cohort / "broken.csv"
        manifest2.write_text("\n".join(rows) + "\n")
        out = tmp_path / "reports"
        code = cli.main(["--out", str(out), "eval", str(manifest2)])
        assert code == 1
        errors = json.loads((out / "errors.json").read_text())
        assert len(errors) == 1
        assert errors[0]["method"] == "bad"
        assert len(sorted(out.glob("*__*.json"))) == 6  # the other jobs completed

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_job_removes_the_report_of_an_earlier_run(self, cohort, tmp_path, jobs):
        import dataclasses
        import shutil

        from regeval.manifest import write_manifest

        # a third method whose three jobs share one field file
        shared = tmp_path / "shared_field.nii"
        shutil.copyfile(cohort / "fields" / "case000_truth.nii", shared)
        base = cli.read_manifest(cohort / "manifest.csv")
        copies = [
            dataclasses.replace(job, method="copy", field=str(shared))
            for job in base if job.method == "truth"
        ]
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, base + copies)
        out = tmp_path / "reports"
        assert cli.main(["--jobs", jobs, "--out", str(out), "eval", str(manifest)]) == 0
        assert len(list(out.glob("copy__*.json"))) == 3

        shared.write_bytes(b"not a nifti file")
        assert cli.main(["--jobs", jobs, "--out", str(out), "eval", str(manifest)]) == 1
        assert list(out.glob("copy__*.json")) == []
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["method"], e["pair_id"]) for e in errors] == [
            ("copy", f"case{i:03d}") for i in range(3)
        ]
        # rank sees what a fresh directory of the jobs that succeeded holds
        fresh = tmp_path / "fresh"
        assert cli.main(["--out", str(fresh), "eval", str(cohort / "manifest.csv")]) == 0
        boards = tmp_path / "reused_board", tmp_path / "fresh_board"
        assert cli.main(["--out", str(boards[0]), "rank", str(out)]) == 0
        assert cli.main(["--out", str(boards[1]), "rank", str(fresh)]) == 0
        for name in ("leaderboard.csv", "leaderboard.json"):
            assert (boards[0] / name).read_bytes() == (boards[1] / name).read_bytes()

    def test_zero_field_matches_direct_overlap(self, cohort, tmp_path):
        out = tmp_path / "reports"
        assert cli.main(["--out", str(out), "eval", str(cohort / "manifest.csv")]) == 0
        from regeval.metrics import dsc
        from regeval.volio import read_volume

        manifest = json.loads((cohort / "manifest.json").read_text())
        case = manifest["cases"][0]
        report = PairReport.from_dict(
            json.loads((out / "zero__case000.json").read_text())
        )
        fixed = read_volume(cohort / case["paths"]["fixed_labels"])
        moving = read_volume(cohort / case["paths"]["moving_labels"])
        labels = sorted(report.dsc_per_label)
        per_label, mean = dsc(fixed, moving, labels)
        assert report.dsc_per_label == per_label
        assert report.dsc_mean == mean


class TestGroupedEval:
    """eval reads and prepares what the jobs of one pair share once."""

    def test_reports_equal_evaluate_pair_per_job(self, cohort, tmp_path):
        from regeval.metrics import evaluate_pair
        from regeval.volio import read_field, read_landmarks, read_volume

        out = tmp_path / "reports"
        assert cli.main(["--out", str(out), "eval", str(cohort / "manifest.csv")]) == 0
        for job in cli.read_manifest(cohort / "manifest.csv"):
            fixed = read_volume(job.fixed_seg, kind="label")
            if job.field == cli.ZERO_FIELD:
                phi = DisplacementField.zero(fixed.header)
            else:
                phi = read_field(job.field)
            report = evaluate_pair(
                fixed,
                read_volume(job.moving_seg, kind="label"),
                phi,
                landmarks=(read_landmarks(job.landmarks_fixed), read_landmarks(job.landmarks_moving)),
                method_id=job.method,
                pair_id=job.pair_id,
            )
            written = json.loads((out / f"{job.method}__{job.pair_id}.json").read_text())
            assert written == report.to_dict()

    def test_fixed_side_built_once_per_group(self, cohort, tmp_path, monkeypatch):
        from regeval import metrics

        extracted = []
        extract = metrics._boundary_by_label

        def counting(lab, wanted):
            extracted.append(lab.shape)
            return extract(lab, wanted)

        monkeypatch.setattr(metrics, "_boundary_by_label", counting)
        out = tmp_path / "reports"
        assert cli.main(["--out", str(out), "eval", str(cohort / "manifest.csv")]) == 0
        # one fixed side per pair (3) and one warped side per job (6)
        assert len(extracted) == 3 + 6

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_missing_shared_fixed_seg_fails_each_job_of_its_pair(self, cohort, tmp_path, jobs):
        import shutil

        copy = tmp_path / "cohort"
        shutil.copytree(cohort, copy)
        (copy / "labels" / "case000_fixed.nii").unlink()
        out = tmp_path / "reports"
        assert cli.main(["--jobs", jobs, "--out", str(out), "eval", str(copy / "manifest.csv")]) == 1
        lone = []
        for job in cli.read_manifest(copy / "manifest.csv"):
            if job.pair_id == "case000":
                with pytest.raises(cli.IoFailure) as failure:
                    cli.run_job(job)
                lone.append({"method": job.method, "pair_id": job.pair_id,
                             "error": f"IoFailure: {failure.value}"})
        assert json.loads((out / "errors.json").read_text()) == sorted(
            lone, key=lambda d: (d["method"], d["pair_id"])
        )
        assert len(lone) == 2
        assert len(sorted(out.glob("*__*.json"))) == 4

    def test_worker_death_recorded_per_job(self, cohort, tmp_path, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool

        class DyingPool:
            """Returns the first task's results, runs the second (whose
            results are lost) and then reports a dead worker: in the futures
            of the second task and after, or with ``refuse`` by raising on
            later submits, as ProcessPoolExecutor does once broken."""

            refuse = False

            def __init__(self, max_workers):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                self.submitted += 1
                if self.refuse and self.submitted > 2:
                    raise BrokenProcessPool("a worker died")
                future = Future()
                if self.submitted == 1:
                    future.set_result(fn(item))
                    return future
                if self.submitted == 2:
                    fn(item)
                future.set_exception(BrokenProcessPool("a worker died"))
                return future

        class RefusingPool(DyingPool):
            refuse = True

        out = tmp_path / "reports"
        monkeypatch.setattr(cli, "cpu_count", lambda: 2)
        for pool in (DyingPool, RefusingPool):
            # an earlier run's reports of the lost jobs must not outlive this run
            assert cli.main(["--out", str(out), "eval", str(cohort / "manifest.csv")]) == 0
            monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
            code = cli.main(["--jobs", "2", "--out", str(out), "eval", str(cohort / "manifest.csv")])
            assert code == 1
            assert "Traceback" not in capsys.readouterr().err
            # 6 jobs over 2 workers: tasks of 3 jobs at most, one per pair
            errors = json.loads((out / "errors.json").read_text())
            lost = {(e["method"], e["pair_id"]) for e in errors}
            assert lost == {(m, p) for m in ("truth", "zero") for p in ("case001", "case002")}
            assert {e["error"] for e in errors} == {"BrokenProcessPool: a worker died"}
            assert sorted(p.name for p in out.glob("*__*.json")) == [
                "truth__case000.json", "zero__case000.json"
            ]

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        requested=st.integers(1, 12),
    )
    def test_tasks_cover_jobs_within_groups(self, sizes, requested):
        job_list = [
            cli.Job(f"m{i}", f"p{g}", f"f{g}", f"m{g}", "ZERO")
            for g, n in enumerate(sizes)
            for i in range(n)
        ]
        workers = min(requested, len(job_list))
        tasks = cli._eval_tasks(job_list, "voxel", workers)
        assert len(tasks) >= workers
        in_tasks = [j for jobs, _ in tasks for j in jobs]
        assert len(in_tasks) == len(job_list) and set(in_tasks) == set(job_list)
        for jobs, _ in tasks:
            assert len({cli._group_key(j) for j in jobs}) == 1


class TestOneWriter:
    """Workers return reports; cmd_eval writes every file in --out, and a
    failed write stops the run at the first report."""

    def test_eval_task_writes_nothing(self, cohort, tmp_path, monkeypatch):
        jobs = [j for j in cli.read_manifest(cohort / "manifest.csv") if j.pair_id == "case000"]
        broken = dataclasses.replace(jobs[0], method="broken", field=str(tmp_path / "missing.nii"))
        want = [cli.run_job(job).to_dict() for job in jobs]
        before = sorted((p, p.stat().st_mtime_ns) for p in cohort.rglob("*"))

        def no_write(*args, **kwargs):
            raise AssertionError("a worker wrote or removed a file")

        for owner, name in [(cli, "_write_json"), (volio, "atomic_open"), (os, "replace"),
                            (os, "unlink"), (Path, "unlink")]:
            monkeypatch.setattr(owner, name, no_write)
        monkeypatch.chdir(tmp_path)
        results = cli._eval_task((jobs + [broken], "voxel"))
        assert [job for job, _ in results] == jobs + [broken]
        assert [result for _, result in results[:-1]] == want
        assert results[-1][1].startswith("IoFailure: could not read")
        assert sorted((p, p.stat().st_mtime_ns) for p in cohort.rglob("*")) == before
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_stops_after_the_first_task(self, cohort, tmp_path, monkeypatch, capsys):
        # four methods per pair
        base = cli.read_manifest(cohort / "manifest.csv")
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, base + [dataclasses.replace(j, method=j.method + "2") for j in base])
        calls = []
        run_job = cli.run_job

        def counting(job, *args, **kwargs):
            calls.append(job.pair_id)
            return run_job(job, *args, **kwargs)

        monkeypatch.setattr(cli, "run_job", counting)
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"x")
        out = blocker / "reports"
        assert cli.main(["--out", str(out), "eval", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not write {out / 'truth__case000.json'}")
        assert err.count("\n") == 1
        # 12 jobs at --jobs 1: three tasks, one per pair, of 4 jobs each
        assert calls == ["case000"] * 4

    def test_failed_write_cancels_the_pending_tasks(self, cohort, tmp_path, monkeypatch, capsys):
        # no more than `workers` tasks are submitted ahead of the writes, so
        # none is left in the pool's queue to run after a failed write
        events = []

        class LazyFuture:
            def __init__(self, fn, item):
                self.fn, self.item = fn, item

            def result(self):
                events.append("task")
                return self.fn(self.item)

        class LazyPool:
            """Runs a task when its result is asked for and notes submissions."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                events.append("submit")
                return LazyFuture(fn, item)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(cli, "cpu_count", lambda: 2)
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"x")
        argv = ["--jobs", "2", "--out", str(blocker / "reports"), "eval", str(cohort / "manifest.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: could not write")
        # three tasks, one per pair: two submitted, the first written, no third
        assert events == ["submit", "submit", "task"]

    def test_failed_write_starts_at_most_workers_tasks(self, tmp_path, monkeypatch, capsys):
        # six pairs, one task each at --jobs 2; a real pool, whose workers
        # note every job they start in one file
        make_cohort(tmp_path / "c", cases=6, dims=(12, 12, 12), seed=3, label_count=2)
        started = tmp_path / "started.txt"
        run_job = cli.run_job

        def noting(job, *args, **kwargs):
            with open(started, "a") as fh:
                fh.write(job.pair_id + "\n")
            return run_job(job, *args, **kwargs)

        monkeypatch.setattr(cli, "run_job", noting)
        monkeypatch.setattr(cli, "cpu_count", lambda: 2)
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"x")
        argv = ["--jobs", "2", "--out", str(blocker / "reports"), "eval", str(tmp_path / "c/manifest.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: could not write")
        assert 1 <= len(set(started.read_text().split())) <= 2


class TestWorkerCount:
    @pytest.mark.parametrize(
        "requested, n_jobs, cpus, want",
        [(8, 3, 2, 2), (8, 3, 64, 3), (2, 10, 64, 2), (1, 10, 4, 1), (4, 0, 4, 0)],
    )
    def test_clamped_to_jobs_and_cpus(self, monkeypatch, requested, n_jobs, cpus, want):
        monkeypatch.setattr(cli, "cpu_count", lambda: cpus)
        assert cli.worker_count(requested, n_jobs) == want

    def test_eval_starts_clamped_pool(self, cohort, tmp_path, monkeypatch):
        # a stand-in pool records its size and runs the jobs in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "cpu_count", lambda: 4)
        out = tmp_path / "reports"
        assert cli.main(["--jobs", "1000", "--out", str(out), "eval", str(cohort / "manifest.csv")]) == 0
        assert sizes == [4]
        assert len(sorted(out.glob("*__*.json"))) == 6


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run in a new interpreter, so the modules this test
    session has already imported cannot hide what the code loads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


class TestStartupImports:
    def test_package_import_loads_no_scipy(self):
        code = f"import sys, regeval, regeval.cli, regeval.refreg; print({SCIPY_MODULES})"
        assert run_fresh(code) == "[]"

    @pytest.mark.parametrize("command", ["rank", "correlate", "ic", "eval"])
    def test_numpy_only_commands_load_no_scipy(self, tmp_path, command, cohort):
        # eval: every HD95 point of the cohort resolves by probing, so no
        # KD-tree is built and scipy.spatial is never imported
        reports = tmp_path / "reports"
        TestRank().synth_reports(reports, ["a", "b", "c"], n_cases=6)
        if command == "rank":
            argv = ["--out", str(tmp_path / "rank"), "rank", str(reports)]
        elif command == "correlate":
            argv = ["--out", str(tmp_path / "corr.csv"), "correlate", str(reports), "dsc", "tre"]
        elif command == "eval":
            argv = ["--jobs", "1", "--out", str(tmp_path / "eval"), "eval", str(cohort / "manifest.csv")]
        else:
            zero = DisplacementField.zero(AffineHeader.isotropic((4, 4, 4)))
            write_nifti(zero, tmp_path / "f.nii")
            argv = ["ic", str(tmp_path / "f.nii"), str(tmp_path / "f.nii")]
        code = (
            "import sys\n"
            "from regeval import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            f"print({SCIPY_MODULES})"
        )
        assert run_fresh(code, *argv).splitlines()[-1] == "[]"

    def test_eval_starts_its_pool_without_scipy(self, cohort, tmp_path):
        # a stand-in pool notes what is loaded when it is built (forked
        # workers inherit exactly that) and then runs the jobs in-process;
        # only a worker whose HD95 falls back to a KD-tree imports scipy
        code = """
import sys
from concurrent.futures import Future
from regeval import cli

seen = []

class StandInPool:
    def __init__(self, max_workers):
        seen.append((max_workers, any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        future = Future()
        future.set_result(fn(item))
        return future

cli.ProcessPoolExecutor = StandInPool
cli.cpu_count = lambda: 2
assert cli.main(sys.argv[1:]) == 0
print(seen)
"""
        argv = ["--jobs", "2", "--out", str(tmp_path / "reports"), "eval", str(cohort / "manifest.csv")]
        assert run_fresh(code, *argv) == "[(2, False)]"

    def test_bench_times_no_import(self, cohort):
        # every timed job, the first included, starts with the KD-tree loaded
        code = """
import sys
from concurrent.futures import Future
from regeval import cli

seen = []
run_job = cli.run_job

def noting_run_job(*args, **kwargs):
    seen.append("scipy.spatial" in sys.modules)
    return run_job(*args, **kwargs)

cli.run_job = noting_run_job
assert cli.main(sys.argv[1:]) == 0
print(seen)
"""
        argv = ["bench", str(cohort / "manifest.csv"), "--repeats", "2"]
        assert run_fresh(code, *argv).splitlines()[-1] == "[True, True]"


class TestUnreadableInputs:
    """A bad input path or NIfTI header is a usage error (exit 2), never a traceback."""

    @staticmethod
    def field_file(path):
        fld = DisplacementField(header=AffineHeader.isotropic((4, 4, 4)), data=np.zeros((4, 4, 4, 3)))
        write_nifti(fld, path)
        return path

    @pytest.mark.parametrize("kind", ["missing", "directory", "truncated_gzip", "flipped_payload_byte"])
    def test_unreadable_path_exits_2(self, tmp_path, capsys, kind):
        good = self.field_file(tmp_path / "good.nii")
        bad = tmp_path / "bad.nii.gz"
        if kind == "directory":
            bad.mkdir()
        elif kind == "truncated_gzip":
            blob = gzip.compress(good.read_bytes())
            bad.write_bytes(blob[: len(blob) // 2])
        elif kind == "flipped_payload_byte":  # a stored float payload: the CRC32 check fails
            write_nifti(cli.read_field(good), bad, use_gzip=True)
            blob = bytearray(bad.read_bytes())
            blob[-20] ^= 0x40
            bad.write_bytes(bytes(blob))
        assert cli.main(["ic", str(bad), str(good)]) == 2
        assert f"could not read {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["register", "ic"])
    def test_a_bad_header_names_its_file(self, tmp_path, capsys, command):
        good = self.field_file(tmp_path / "good.nii")
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"\0" * 100)
        args = ["--out", str(tmp_path / "f.nii"), "register", str(bad), str(good)] if command == "register" else [
            "ic", str(good), str(bad)]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"error: {bad}: file shorter than the 348-byte header\n"

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert cli.main(["--out", str(tmp_path / "r"), "eval", str(missing)]) == 2
        assert f"could not read {missing}" in capsys.readouterr().err

    @staticmethod
    def landmark_manifest(cohort, tmp_path, kind):
        """A one-job manifest whose fixed landmark file is missing, a
        directory, or not UTF-8."""
        bad = tmp_path / "bad_landmarks.csv"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not_utf8":
            bad.write_bytes(b"name,x,y,z\n\xff\xfe,1,2,3\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            ",".join(cli.MANIFEST_COLUMNS) + "\n"
            f"zero,case000,{cohort}/labels/case000_fixed.nii,{cohort}/labels/case000_moving.nii,"
            f"ZERO,{bad},{cohort}/landmarks/case000_moving.csv,\n"
        )
        return manifest, bad

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_landmarks_bench_exits_2(self, cohort, tmp_path, capsys, kind):
        manifest, bad = self.landmark_manifest(cohort, tmp_path, kind)
        assert cli.main(["bench", str(manifest), "--repeats", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not read {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_landmarks_eval_records_io_failure(self, cohort, tmp_path, kind):
        manifest, bad = self.landmark_manifest(cohort, tmp_path, kind)
        out = tmp_path / "reports"
        assert cli.main(["--out", str(out), "eval", str(manifest)]) == 1
        errors = json.loads((out / "errors.json").read_text())
        assert [e["error"].startswith(f"IoFailure: could not read {bad}: ") for e in errors] == [True]

    @pytest.mark.parametrize("vox_offset", [float("nan"), float("inf")])
    def test_non_finite_vox_offset_exits_2(self, tmp_path, capsys, vox_offset):
        good = self.field_file(tmp_path / "good.nii")
        raw = bytearray(good.read_bytes())
        struct.pack_into("<f", raw, 108, vox_offset)
        bad = tmp_path / "bad.nii"
        bad.write_bytes(bytes(raw))
        assert cli.main(["ic", str(good), str(bad)]) == 2
        assert "vox_offset" in capsys.readouterr().err


# the exact leaderboard.csv of TestRank.synth_reports for ["good", "mid",
# "weak"] and for ["only"] at the default metrics: every column is pinned
THREE_METHOD_CSV = (
    "method,dsc_mean,dsc_std,dsc30_mean,dsc30_std,hd95_mean,hd95_std,tre_mean,tre_std,"
    "tre30_mean,tre30_std,ndv_mean,ndv_std,rank_dsc,rank_hd95,rank_tre,acc_score,"
    "final_rank\n"
    "good,0.9555394953055399,0.007079406057655982,0.9535394953055403,"
    "0.007079406057655983,1.1105394953055403,0.007079406057655962,0.6105394953055402,"
    "0.007079406057655982,0.643161848591662,0.0021238218172967994,0.0,0.0,1.0,1.0,1.0,"
    "1.0,1\n"
    "mid,0.87553949530554,0.007079406057655982,0.8735394953055402,0.007079406057655982,"
    "2.1105394953055403,0.007079406057655993,0.91053949530554,0.007079406057655982,"
    "0.9431618485916622,0.0021238218172967994,0.0010000000000000002,"
    "2.2648244732202216e-19,0.55,0.55,0.55,0.55,2\n"
    "weak,0.79553949530554,0.007079406057655982,0.7935394953055401,0.007079406057655982,"
    "3.11053949530554,0.007079406057655993,1.2105394953055402,0.007079406057655962,"
    "1.243161848591662,0.002123821817296782,0.0020000000000000005,4.529648946440443e-19,"
    "0.1,0.1,0.1,0.10000000000000002,3\n"
)
ONE_METHOD_CSV = (
    "method,dsc_mean,dsc_std,dsc30_mean,dsc30_std,hd95_mean,hd95_std,tre_mean,tre_std,"
    "tre30_mean,tre30_std,ndv_mean,ndv_std,rank_dsc,rank_hd95,rank_tre,acc_score,"
    "final_rank\n"
    "only,0.9555394953055399,0.007079406057655982,0.9535394953055403,"
    "0.007079406057655983,1.1105394953055403,0.007079406057655962,0.6105394953055402,"
    "0.007079406057655982,0.643161848591662,0.0021238218172967994,0.0,0.0,0.1,0.1,0.1,"
    "0.10000000000000002,1\n"
)


def leaderboard_json_bytes(rows) -> bytes:
    """leaderboard.json at the default metrics and alpha for rows of
    (method, per-metric rank score, per-metric wins, acc_score, final_rank),
    every metric scoring alike."""
    acc = ["dsc", "hd95", "tre"]
    board = {
        "alpha": 0.05,
        "metrics": acc,
        "acc_metrics": acc,
        "rank_scores": {m: {r[0]: r[1] for r in sorted(rows)} for m in acc},
        "table": [
            {
                "method": method,
                "wins": dict.fromkeys(acc, wins),
                "rank_scores": dict.fromkeys(acc, score),
                "acc_score": acc_score,
                "final_rank": final_rank,
            }
            for method, score, wins, acc_score, final_rank in rows
        ],
    }
    return (json.dumps(board, indent=2, sort_keys=True) + "\n").encode()


def count_reads(monkeypatch) -> list:
    """Make every ``cli.METRICS`` value record (metric, method, case) in the
    returned list each time it is called."""
    reads = []

    def counted(metric, value):
        def read(report):
            reads.append((metric, report.method_id, report.pair_id))
            return value(report)

        return read

    monkeypatch.setattr(cli, "METRICS", {
        m: dataclasses.replace(spec, value=counted(m, spec.value)) for m, spec in cli.METRICS.items()
    })
    return reads


class TestRank:
    def synth_reports(self, out_dir: Path, methods, n_cases=12, seed=0):
        """Fabricated reports with a strict quality ordering."""
        rng = np.random.default_rng(seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        base = rng.random(n_cases) * 0.02
        for rank, method in enumerate(methods):
            for case in range(n_cases):
                dsc_val = 0.95 - 0.08 * rank + base[case]
                report = PairReport(
                    method_id=method,
                    pair_id=f"c{case:02d}",
                    dsc_per_label={1: dsc_val, 2: dsc_val - 0.01},
                    dsc_mean=dsc_val - 0.005,
                    hd95_per_label={1: 1.0 + rank + base[case], 2: 1.2 + rank},
                    hd95_mean=1.1 + rank + base[case],
                    tre_per_landmark=[0.5 + 0.3 * rank + base[case], 0.7 + 0.3 * rank],
                    tre_mean=0.6 + 0.3 * rank + base[case],
                    ndv=0.001 * rank,
                )
                (out_dir / f"{method}__c{case:02d}.json").write_text(
                    json.dumps(report.to_dict(), indent=2, sort_keys=True)
                )

    def test_leaderboard_columns_and_order(self, tmp_path):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["good", "mid", "weak"])
        out = tmp_path / "rank"
        code = cli.main(["--out", str(out), "rank", str(reports)])
        assert code == 0
        with open(out / "leaderboard.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["good", "mid", "weak"]
        assert [r["final_rank"] for r in rows] == ["1", "2", "3"]
        with open(out / "leaderboard.csv", newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header == list(cli.LEADERBOARD_COLUMNS)
        ranks = json.loads((out / "leaderboard.json").read_text())
        assert ranks["acc_metrics"] == ["dsc", "hd95", "tre"]
        assert (out / "leaderboard.csv").read_bytes() == THREE_METHOD_CSV.encode()
        assert (out / "leaderboard.json").read_bytes() == leaderboard_json_bytes([
            ("good", 1.0, 2, 1.0, 1),
            ("mid", 0.55, 1, 0.55, 2),
            ("weak", 0.1, 0, 0.10000000000000002, 3),
        ])

    def test_rank_into_its_report_dir_twice_gives_the_same_board(self, tmp_path):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["good", "mid", "weak"])
        boards = []
        for _ in range(2):
            assert cli.main(["--out", str(reports), "rank", str(reports)]) == 0
            boards.append({n: (reports / n).read_bytes() for n in ("leaderboard.csv", "leaderboard.json")})
        assert boards[0] == boards[1]
        assert boards[0]["leaderboard.csv"] == THREE_METHOD_CSV.encode()

    def test_single_method_gets_rank_one_floor_score(self, tmp_path):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["only"])
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports)]) == 0
        with open(out / "leaderboard.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["final_rank"] == "1"
        assert float(row["rank_dsc"]) == 0.1
        assert float(row["acc_score"]) == pytest.approx(0.1)
        assert (out / "leaderboard.csv").read_bytes() == ONE_METHOD_CSV.encode()
        assert (out / "leaderboard.json").read_bytes() == leaderboard_json_bytes(
            [("only", 0.1, 0, 0.10000000000000002, 1)]
        )

    def test_each_metric_value_is_read_once(self, tmp_path, monkeypatch):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b", "c"], n_cases=5)
        argv = ["rank", str(reports), "--metrics", "dsc,hd95,tre,ndv,dsc30,tre30"]
        assert cli.main(["--out", str(tmp_path / "plain"), *argv]) == 0
        reads = count_reads(monkeypatch)
        assert cli.main(["--out", str(tmp_path / "counted"), *argv]) == 0
        assert len(reads) == len(set(reads)) == 15 * len(cli.METRICS)
        for name in ("leaderboard.csv", "leaderboard.json"):
            assert (tmp_path / "counted" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_a_repeated_metric_is_ranked_once(self, tmp_path):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b", "c"], n_cases=5)
        for name, metrics in (("once", "dsc,hd95,tre"), ("repeated", "dsc,hd95,dsc,tre,hd95")):
            assert cli.main(["--out", str(tmp_path / name), "rank", str(reports), "--metrics", metrics]) == 0
        ranks = json.loads((tmp_path / "repeated" / "leaderboard.json").read_text())
        assert ranks["metrics"] == ["dsc", "hd95", "tre"]
        for name in ("leaderboard.csv", "leaderboard.json"):
            assert (tmp_path / "repeated" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()

    def test_tre_dropped_when_absent(self, tmp_path):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b"])
        for path in reports.glob("*.json"):
            d = json.loads(path.read_text())
            d["tre_per_landmark"] = []
            d["tre_mean"] = None
            path.write_text(json.dumps(d, sort_keys=True))
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports)]) == 0
        ranks = json.loads((out / "leaderboard.json").read_text())
        assert ranks["acc_metrics"] == ["dsc", "hd95"]

    def test_unpaired_metric_without_values_for_a_method_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b"], n_cases=4)
        for path in reports.glob("b__*.json"):
            d = json.loads(path.read_text())
            d["tre_per_landmark"], d["tre_mean"] = [], None
            path.write_text(json.dumps(d, sort_keys=True))

        def no_test(*args, **kwargs):
            raise AssertionError("a significance test ran")

        monkeypatch.setattr(cli.ranking, "wilcoxon_signed_rank_rows", no_test)
        monkeypatch.setattr(cli.ranking, "mann_whitney_u_rows", no_test)
        out = tmp_path / "rank"
        argv = ["--out", str(out), "rank", str(reports), "--metrics", "dsc,hd95,tre30"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: tre30: no value for method 'b'\n"
        assert not out.exists()

    def test_unpaired_cases_rejected(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b"])
        next(iter(sorted(reports.glob("a__*.json")))).unlink()
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports)]) == 2
        assert capsys.readouterr().err == "error: dsc: not every method covers every case\n"

    def test_reports_with_dropped_fields_rank_the_same(self, tmp_path):
        # reports written before ic_mae and runtime_s left the schema keep
        # both keys; from_dict ignores them
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b", "c"])
        assert cli.main(["--out", str(tmp_path / "new"), "rank", str(reports)]) == 0
        for i, path in enumerate(sorted(reports.glob("*.json"))):
            d = json.loads(path.read_text())
            assert "ic_mae" not in d and "runtime_s" not in d
            d["ic_mae"], d["runtime_s"] = (None, None) if i % 2 else (0.25, 1.5)
            path.write_text(json.dumps(d, indent=2, sort_keys=True))
        assert cli.main(["--out", str(tmp_path / "old"), "rank", str(reports)]) == 0
        for name in ("leaderboard.csv", "leaderboard.json"):
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    def test_duplicate_report_exits_2_and_names_both_files(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b"])
        first = reports / "a__c03.json"
        copy = reports / "a__c03_copy.json"
        copy.write_bytes(first.read_bytes())
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports)]) == 2
        assert capsys.readouterr().err == (
            f"error: reports {first} and {copy} both hold method 'a' on pair 'c03'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            "[1, 2]",
            '"a string"',
            "missing pair_id",
            "metric not a number",
            "not utf-8",
        ],
    )
    def test_malformed_report_exits_2(self, tmp_path, capsys, content):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b"])
        bad = reports / "a__c03.json"
        d = json.loads(bad.read_text())
        if content == "missing pair_id":
            del d["pair_id"]
            bad.write_text(json.dumps(d))
        elif content == "metric not a number":
            d["dsc_mean"] = "0.9"
            bad.write_text(json.dumps(d))
        elif content == "not utf-8":
            bad.write_bytes(b"\xff\xfe{}")
        else:
            bad.write_text(content)
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "correlate"])
    @pytest.mark.parametrize("key, metric, value", [
        ("ndv", "ndv", float("nan")),
        ("dsc_mean", "dsc", float("inf")),
        ("hd95_mean", "hd95", -float("inf")),
        ("tre_mean", "tre", 10**400),  # an integer no float holds
    ], ids=["nan", "inf", "-inf", "10**400"])
    def test_non_finite_value_exits_2_and_names_the_file(self, tmp_path, capsys, command, key, metric, value):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b"])
        bad = reports / "b__c03.json"
        d = json.loads(bad.read_text())
        d[key] = value
        bad.write_text(json.dumps(d))  # NaN, Infinity and -Infinity as json writes them
        out = tmp_path / "out"
        if command == "rank":
            argv = ["--out", str(out), "rank", str(reports), "--metrics", f"dsc,hd95,{metric}"]
        else:
            argv = ["--out", str(out / "corr.csv"), "correlate", str(reports), metric, "tre"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: report {bad} is not a pair report object: "
            f"metric value {value!r} is not a finite number or null\n"
        )
        assert not out.exists()


class TestCorrelate:
    def test_exact_linear_relation(self, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        for case in range(8):
            dsc_val = 0.5 + 0.05 * case
            report = PairReport(
                method_id="m",
                pair_id=f"c{case}",
                dsc_per_label={1: dsc_val},
                dsc_mean=dsc_val,
                hd95_per_label={1: 1.0},
                hd95_mean=1.0,
                tre_per_landmark=[1.0],
                tre_mean=-2.0 * dsc_val + 3.0,
                ndv=0.0,
            )
            (reports / f"m__c{case}.json").write_text(json.dumps(report.to_dict()))
        out = tmp_path / "corr.csv"
        assert cli.main(["--out", str(out), "correlate", str(reports), "dsc", "tre"]) == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["note"] == "ok"
        assert float(row["r"]) == pytest.approx(-1.0, abs=1e-12)
        assert float(row["slope"]) == pytest.approx(-2.0, abs=1e-12)

    def test_reads_its_two_metrics_once_per_report(self, tmp_path, monkeypatch):
        reports = tmp_path / "reports"
        TestRank().synth_reports(reports, ["a", "b", "c"], n_cases=5)
        argv = ["correlate", str(reports), "dsc30", "tre"]
        assert cli.main(["--out", str(tmp_path / "plain.csv"), *argv]) == 0
        reads = count_reads(monkeypatch)
        assert cli.main(["--out", str(tmp_path / "counted.csv"), *argv]) == 0
        assert len(reads) == len(set(reads)) == 15 * 2
        assert {m for m, _, _ in reads} == {"dsc30", "tre"}
        assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_degenerate_metric_flagged(self, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        for case in range(5):
            report = PairReport(
                method_id="m",
                pair_id=f"c{case}",
                dsc_per_label={1: 0.5},
                dsc_mean=0.5,  # constant x
                hd95_per_label={1: 1.0},
                hd95_mean=1.0,
                tre_per_landmark=[float(case)],
                tre_mean=float(case),
                ndv=0.0,
            )
            (reports / f"m__c{case}.json").write_text(json.dumps(report.to_dict()))
        out = tmp_path / "corr.csv"
        assert cli.main(["--out", str(out), "correlate", str(reports), "dsc", "tre"]) == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["note"] == "degenerate"
        assert row["r"] == ""


class TestMetricTable:
    def test_every_metric_has_a_direction_and_pairing(self):
        assert set(cli.METRICS) == {"dsc", "hd95", "tre", "ndv", "dsc30", "tre30"}
        for spec in cli.METRICS.values():
            assert spec.direction in ("higher", "lower")
            assert spec.pairing in ("paired", "unpaired")

    @pytest.mark.parametrize("command", ["rank", "correlate"])
    def test_unknown_metric_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        reports = tmp_path / "reports"
        TestRank().synth_reports(reports, ["a", "b"])
        out = tmp_path / "out"
        if command == "rank":
            argv = ["--out", str(out), "rank", str(reports), "--metrics", "dsc,foo"]
        else:
            argv = ["--out", str(out / "corr.csv"), "correlate", str(reports), "dsc", "foo"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: unknown metric 'foo'\n"
        assert not (out / "corr.csv").exists() and not (out / "leaderboard.csv").exists()

    @pytest.mark.parametrize("command", ["rank", "correlate"])
    def test_reports_are_loaded_before_the_metric_names_are_checked(self, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        if command == "rank":
            argv = ["--out", str(tmp_path / "out"), "rank", str(empty), "--metrics", "dsc,foo"]
        else:
            argv = ["--out", str(tmp_path / "corr.csv"), "correlate", str(empty), "dsc", "foo"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: no report files in {empty}\n"


class TestAtomicWrites:
    def test_json_failing_midway_keeps_old_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("old\n")
        # sorted keys: "a" is written before "b" fails to serialise
        with pytest.raises(TypeError):
            cli._write_json({"a": 1, "b": object()}, target)
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_json_failing_midway_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            cli._write_json({"a": [1, 2, 3], "b": object()}, tmp_path / "report.json")
        assert list(tmp_path.iterdir()) == []

    def test_failed_replace_removes_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli.os, "replace", refuse)
        target = tmp_path / "report.json"
        with pytest.raises(cli.IoFailure, match=f"could not write {target}: no space left"):
            cli._write_json({"a": 1}, target)
        assert list(tmp_path.iterdir()) == []

    def test_pipe_target_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.json"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            cli._write_json({"a": 1}, fifo)
            data = os.read(reader, 65536)
        finally:
            os.close(reader)
        assert data == b'{\n  "a": 1\n}\n'
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_json_bytes_unchanged(self, tmp_path):
        obj = {"b": [1.5, None, {"z": 0.1, "a": "x"}], "a": 1e-300}
        cli._write_json(obj, tmp_path / "r.json")
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "r.json").read_bytes() == want.encode("utf-8")

    def test_leaderboard_failing_midway_keeps_previous_board(self, tmp_path, monkeypatch):
        reports = tmp_path / "reports"
        TestRank().synth_reports(reports, ["a", "b", "c"])
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_writer = csv.writer

        class FailingWriter:
            def __init__(self, fh, **kwargs):
                self.inner = real_writer(fh, **kwargs)
                self.rows = 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 3:
                    raise RuntimeError("disk went away")
                self.inner.writerow(row)

        monkeypatch.setattr(volio.csv, "writer", FailingWriter)
        with pytest.raises(RuntimeError):
            cli.main(["--out", str(out), "rank", str(reports)])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_correlate_failing_midway_leaves_no_file(self, tmp_path, monkeypatch):
        reports = tmp_path / "reports"
        TestRank().synth_reports(reports, ["a", "b", "c"])

        def tre_or_fail(report):
            if report.method_id == "c":
                raise RuntimeError("extractor failed")
            return report.tre_mean

        monkeypatch.setitem(cli.METRICS, "tre", cli.Metric("lower", "paired", tre_or_fail))
        out_dir = tmp_path / "corr"
        out_dir.mkdir()
        with pytest.raises(RuntimeError):
            cli.main(["--out", str(out_dir / "corr.csv"), "correlate", str(reports), "dsc", "tre"])
        assert list(out_dir.iterdir()) == []


class TestBench:
    def test_single_repeat_zero_std(self, cohort, tmp_path):
        out = tmp_path / "bench.json"
        code = cli.main(
            ["--out", str(out), "bench", str(cohort / "manifest.csv"), "--row", "1", "--repeats", "1"]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["repeats"] == 1
        assert result["std_s"] == 0.0

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_exit_2_and_time_nothing(self, cohort, tmp_path, capsys, monkeypatch, repeats):
        monkeypatch.setattr(cli, "run_job", lambda *a, **k: pytest.fail("a job ran"))
        out = tmp_path / "bench.json"
        assert cli.main(["--out", str(out), "bench", str(cohort / "manifest.csv"), "--repeats", repeats]) == 2
        assert capsys.readouterr().err == f"error: repeats must be at least 1, got {repeats}\n"
        assert not out.exists()

    def test_mean_within_sample_range(self, cohort, tmp_path):
        out = tmp_path / "bench.json"
        code = cli.main(
            ["--out", str(out), "bench", str(cohort / "manifest.csv"), "--row", "1", "--repeats", "4"]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert len(result["samples"]) == 4
        assert min(result["samples"]) <= result["mean_s"] <= max(result["samples"])

    def test_io_included_in_timing(self, cohort, monkeypatch):
        # file reads fall inside the timed window: with every volume and
        # field read slowed by a fixed delay, each sample covers all delays
        import time

        delay = 0.05
        reads = []

        def slowed(read):
            def wrapper(*args, **kwargs):
                reads.append(args[0])
                time.sleep(delay)
                return read(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "read_volume", slowed(cli.read_volume))
        monkeypatch.setattr(cli, "read_field", slowed(cli.read_field))
        job = cli.read_manifest(cohort / "manifest.csv")[0]
        assert job.field != cli.ZERO_FIELD
        result = cli.bench_job(job, repeats=3)
        assert len(reads) == 3 * 3  # fixed seg, moving seg and field per run
        assert all(s >= 3 * delay for s in result["samples"])


class TestSynthCommand:
    def test_defaults_are_make_cohort_defaults(self, tmp_path, monkeypatch):
        # make_cohort owns every default but --cases: an option left out is not passed on
        from regeval import synth

        received = []

        def fake_make_cohort(out_dir, **kwargs):
            received.append(kwargs)
            return {"cases": []}

        monkeypatch.setattr(synth, "make_cohort", fake_make_cohort)
        assert cli.main(["--out", str(tmp_path / "c"), "synth"]) == 0
        options = ["--dims", "9", "10", "11", "--labels", "2", "--amplitude", "1.5",
                   "--smoothness", "4", "--gzip"]
        assert cli.main(["--seed", "3", "--out", str(tmp_path / "c"), "synth", *options]) == 0
        assert received == [
            {"cases": 8},
            {"cases": 8, "seed": 3, "dims": [9, 10, 11], "label_count": 2, "amplitude": 1.5,
             "smoothness": 4.0, "gzip_files": True},
        ]

    def test_writes_cohort(self, tmp_path):
        out = tmp_path / "c"
        code = cli.main(
            ["--seed", "3", "--out", str(out), "synth", "--cases", "2", "--dims", "16", "16", "16"]
        )
        assert code == 0
        assert (out / "manifest.csv").exists()
        assert len(list((out / "images").glob("*.nii"))) == 4

    @pytest.mark.parametrize(
        "options",
        [
            ["--smoothness", "inf"],
            ["--smoothness", "nan"],
            ["--amplitude", "inf"],
            ["--amplitude", "nan"],
            ["--smoothness", "1e300"],  # finite, but past 10 x max(dims): scipy would
            ["--smoothness", "1e308"],  # raise ValueError / OverflowError
        ],
    )
    def test_non_finite_svf_parameters_exit_2(self, tmp_path, capsys, options):
        out = tmp_path / "c"
        argv = ["--out", str(out), "synth", "--cases", "1", "--dims", "16", "16", "16", *options]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad Svf parameters") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_cases_exit_2(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert cli.main(["--out", str(out), "synth", "--cases", "-1"]) == 2
        assert capsys.readouterr().err == "error: cases must not be negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("cases", ["0", "1"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, cases):
        # checked before numpy's generator sees it, which raises a plain
        # ValueError, and before a case's seed is derived from it
        out = tmp_path / "c"
        assert cli.main(["--seed", "-1", "--out", str(out), "synth", "--cases", cases, "--dims", "8", "8", "8"]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("labels", ["32768", "40000"])
    def test_labels_beyond_int16_exit_2(self, tmp_path, capsys, labels):
        out = tmp_path / "c"
        argv = ["--out", str(out), "synth", "--cases", "1", "--dims", "4", "4", "4", "--labels", labels]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "label_count" in err and err.count("\n") == 1
        assert not out.exists()


class TestRegisterCommand:
    def test_register_smoke(self, tmp_path):
        from regeval.synth import PhantomSpec, Svf, make_phantom, make_pair, make_velocity

        dims = (20, 20, 20)
        pair = make_pair(
            make_phantom(PhantomSpec(dims=dims, label_count=2, seed=4)),
            make_velocity(Svf(seed=5, amplitude=1.0), dims),
        )
        fixed_path = tmp_path / "fixed.nii"
        moving_path = tmp_path / "moving.nii"
        write_nifti(pair.fixed_image, fixed_path)
        write_nifti(pair.moving_image, moving_path)
        out = tmp_path / "field.nii"
        code = cli.main(
            [
                "--out", str(out),
                "register", str(fixed_path), str(moving_path),
                "--iters", "5,5", "--window", "5",
            ]
        )
        assert code == 0
        from regeval.volio import read_field

        fld = read_field(out)
        assert fld.dims == dims

    def test_init_prints_the_loss_alone(self, tmp_path, capsys, monkeypatch):
        from regeval import refreg
        from regeval.synth import PhantomSpec, Svf, make_phantom, make_pair, make_velocity
        from regeval.volio import read_field

        dims = (20, 20, 20)
        pair = make_pair(
            make_phantom(PhantomSpec(dims=dims, label_count=2, seed=4)),
            make_velocity(Svf(seed=5, amplitude=1.0), dims),
        )
        write_nifti(pair.fixed_image, tmp_path / "fixed.nii")
        write_nifti(pair.moving_image, tmp_path / "moving.nii")
        init = DisplacementField(header=pair.truth.header, data=0.5 * pair.truth.data)
        write_nifti(init, tmp_path / "init.nii")
        loss_and_grad = refreg.loss_and_grad

        def no_gradient(*args, **kwargs):
            raise AssertionError("register --init computed a gradient it does not print")

        monkeypatch.setattr(refreg, "loss_and_grad", no_gradient)
        out = tmp_path / "field.nii"
        assert cli.main([
            "--out", str(out), "register", str(tmp_path / "fixed.nii"), str(tmp_path / "moving.nii"),
            "--iters", "4", "--window", "5", "--init", str(tmp_path / "init.nii"),
        ]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        printed = float(line.rsplit(" ", 1)[1])
        cfg = refreg.RegConfig(iters_per_level=(4,), lncc_window=5, parameterization="svf")
        field = read_field(out)
        assert printed == refreg.loss(pair.fixed_image, pair.moving_image, field, cfg)
        assert printed == loss_and_grad(pair.fixed_image, pair.moving_image, field, cfg)[0]

    def test_finest_level_without_a_step_prints_the_field_loss(self, tmp_path, capsys):
        from regeval import refreg
        from regeval.synth import PhantomSpec, Svf, make_phantom, make_pair, make_velocity
        from regeval.volio import read_field

        dims = (20, 20, 20)
        pair = make_pair(
            make_phantom(PhantomSpec(dims=dims, label_count=2, seed=4)),
            make_velocity(Svf(seed=5, amplitude=1.0), dims),
        )
        write_nifti(pair.fixed_image, tmp_path / "fixed.nii")
        write_nifti(pair.moving_image, tmp_path / "moving.nii")
        out = tmp_path / "field.nii"
        assert cli.main([
            "--out", str(out), "register", str(tmp_path / "fixed.nii"), str(tmp_path / "moving.nii"),
            "--iters", "3,0", "--window", "5",
        ]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("registration done over 2 levels, final loss ")
        cfg = refreg.RegConfig(iters_per_level=(3, 0), lncc_window=5, parameterization="svf")
        want = refreg.loss(pair.fixed_image, pair.moving_image, read_field(out), cfg)
        assert np.isfinite(want) and float(line.rsplit(" ", 1)[1]) == want

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--iters", "a,b,c"], "--iters must be comma-separated integers"),
            (["--iters", ""], "--iters must be comma-separated integers"),
            (["--iters", ","], "--iters must be comma-separated integers"),
            (["--iters", " "], "--iters"),
            (["--window", "4"], "lncc_window"),
            (["--squarings", "-1"], "squarings"),
            (["--step-size", "0"], "step_size"),
            (["--step-size", "nan"], "step_size"),
            (["--step-size", "inf"], "step_size"),
            (["--lambda-diffusion", "nan"], "lambda_diffusion"),
            (["--lambda-diffusion", "inf"], "lambda_diffusion"),
            (["--sigma", "nan"], "update_smoothing_sigma"),
            (["--sigma", "inf"], "update_smoothing_sigma"),
            (["--squarings", "1024"], "squarings"),
            (["--squarings", "2000"], "squarings"),
            (["--iters", "-2"], "iters_per_level"),
            (["--iters", "5,-1,3"], "iters_per_level"),
        ],
    )
    def test_bad_options_exit_2(self, tmp_path, capsys, options, message):
        img = Volume(header=AffineHeader.isotropic((6, 6, 6)), kind="scalar",
                     data=np.zeros((6, 6, 6)))
        write_nifti(img, tmp_path / "img.nii")
        out = tmp_path / "field.nii"
        args = ["--out", str(out), "register", str(tmp_path / "img.nii"), str(tmp_path / "img.nii")]
        assert cli.main(args + options) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def pair_files(tmp_path):
        """A 12^3 synthetic image pair, written as fixed.nii and moving.nii."""
        from regeval.synth import PhantomSpec, Svf, make_pair, make_phantom, make_velocity

        dims = (12, 12, 12)
        pair = make_pair(make_phantom(PhantomSpec(dims=dims, label_count=2, seed=4)),
                         make_velocity(Svf(seed=5, amplitude=1.0), dims))
        write_nifti(pair.fixed_image, tmp_path / "fixed.nii")
        write_nifti(pair.moving_image, tmp_path / "moving.nii")
        return [str(tmp_path / "fixed.nii"), str(tmp_path / "moving.nii")]

    @pytest.mark.parametrize("sigma", ["121", "1e6", "1e300"])
    def test_sigma_past_ten_times_the_largest_axis_exits_2(self, tmp_path, capsys, sigma):
        # the Gaussian allocates 8 sigma + 1 taps: 1e300 overflowed scipy's
        # size check, 1e6 ran 8,000,001 taps
        out = tmp_path / "field.nii"
        args = ["--out", str(out), "register", *self.pair_files(tmp_path), "--iters", "1", "--sigma", sigma]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: update_smoothing_sigma {float(sigma)} exceeds 120, 10 times the largest axis\n"
        assert not out.exists()

    def test_rejected_trials_print_no_warning(self, tmp_path, capsys):
        # every trial of a 1e300-voxel step overflows the diffusion term and
        # is rejected, so the field stays zero
        from regeval.volio import read_field

        out = tmp_path / "field.nii"
        args = ["--out", str(out), "register", *self.pair_files(tmp_path), "--iters", "2,2", "--window", "5",
                "--step-size", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 0
        assert capsys.readouterr().err == ""
        assert not np.any(read_field(out).data)

    def test_defaults_are_reg_config_defaults(self):
        from regeval.refreg import RegConfig

        # RegConfig owns every default: an option left out is not passed on
        parse = cli.build_parser().parse_args
        assert cli._reg_config(parse(["--out", "f.nii", "register", "a", "b"])) == RegConfig()
        options = ["--iters", "3,2", "--step-size", "0.5", "--lambda-diffusion", "2",
                   "--window", "5", "--parameterization", "displacement", "--squarings", "6",
                   "--sigma", "0"]
        assert cli._reg_config(parse(["--out", "f.nii", "register", "a", "b", *options])) == RegConfig(
            iters_per_level=(3, 2), step_size=0.5, lambda_diffusion=2.0, lncc_window=5,
            parameterization="displacement", squarings=6, update_smoothing_sigma=0.0,
        )

    def test_units_mm_scaling_on_eval(self, tmp_path):
        # a field stored in mm on an anisotropic grid evaluates like its
        # voxel-unit counterpart when --units mm is given
        dims = (12, 12, 12)
        spacing = (2.0, 1.0, 1.0)
        hdr = AffineHeader(dims=dims, spacing=spacing, affine=np.diag([2.0, 1.0, 1.0, 1.0]))
        lab = np.zeros(dims, dtype=np.int16)
        lab[4:8, 4:8, 4:8] = 1
        fixed = Volume(header=hdr, kind="label", data=lab)
        moving = Volume(header=hdr, kind="label", data=np.roll(lab, -1, axis=0))
        u_vox = np.zeros(dims + (3,))
        u_vox[..., 0] = -1.0
        field_mm = DisplacementField(header=hdr, data=u_vox * np.asarray(spacing))
        write_nifti(fixed, tmp_path / "f.nii")
        write_nifti(moving, tmp_path / "m.nii")
        write_nifti(field_mm, tmp_path / "u.nii")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            ",".join(cli.MANIFEST_COLUMNS) + "\n" + "m,p0,f.nii,m.nii,u.nii,,,\n"
        )
        out_mm = tmp_path / "rep_mm"
        assert cli.main(["--units", "mm", "--out", str(out_mm), "eval", str(manifest)]) == 0
        report = PairReport.from_dict(json.loads((out_mm / "m__p0.json").read_text()))
        assert report.dsc_mean == 1.0

    def test_units_mm_overflow_is_a_job_error(self, tmp_path, capfd):
        # 1e300 mm over a 1e-10 mm spacing is inf voxels: the job fails with
        # NonFiniteData instead of writing "ndv": NaN, the others still run,
        # and no RuntimeWarning reaches stderr
        write_mm_overflow_inputs(tmp_path)
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            ",".join(cli.MANIFEST_COLUMNS) + "\n" + "a,p0,f.nii,f.nii,huge.nii,,,\n" + "b,p0,f.nii,f.nii,zero.nii,,,\n"
        )
        out = tmp_path / "reports"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--units", "mm", "--out", str(out), "eval", str(manifest)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["b__p0.json", "errors.json"]
        errors = json.loads((out / "errors.json").read_text())
        assert errors == [{"error": "NonFiniteData: displacement field contains non-finite values",
                           "method": "a", "pair_id": "p0"}]
        assert PairReport.from_dict(json.loads((out / "b__p0.json").read_text())).ndv == 0.0
        assert "Warning" not in capfd.readouterr().err

    def test_units_mm_overflow_of_the_init_field_exits_2(self, tmp_path, capfd):
        write_mm_overflow_inputs(tmp_path)
        out = tmp_path / "field.nii"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--units", "mm", "--out", str(out), "register", str(tmp_path / "img.nii"),
                             str(tmp_path / "img.nii"), "--init", str(tmp_path / "huge.nii")])
        assert code == 2 and not out.exists()
        err = capfd.readouterr().err
        assert err == "error: displacement field contains non-finite values\n"


def write_mm_overflow_inputs(tmp_path):
    """A label volume f.nii, an image img.nii and the fields zero.nii and
    huge.nii on a 6^3 grid of 1e-10 mm voxels; huge.nii holds one component
    of 1e300 mm, which overflows to inf in voxel units."""
    hdr = AffineHeader.isotropic((6, 6, 6), 1e-10)
    lab = np.zeros((6, 6, 6), dtype=np.int16)
    lab[2:4, 2:4, 2:4] = 1
    write_nifti(Volume(header=hdr, kind="label", data=lab), tmp_path / "f.nii")
    write_nifti(Volume(header=hdr, kind="scalar", data=lab.astype(np.float64)), tmp_path / "img.nii")
    u = np.zeros((6, 6, 6, 3))
    write_nifti(DisplacementField(header=hdr, data=u), tmp_path / "zero.nii")
    u[1, 2, 3, 0] = 1e300
    write_nifti(DisplacementField(header=hdr, data=u), tmp_path / "huge.nii")


class TestIcCommand:
    def test_ic_of_inverse_translations(self, tmp_path, capsys):
        dims = (10, 10, 10)
        hdr = AffineHeader.isotropic(dims)
        fwd = DisplacementField(header=hdr, data=np.full(dims + (3,), 0.0))
        write_nifti(fwd, tmp_path / "fwd.nii")
        write_nifti(fwd, tmp_path / "bwd.nii")
        out = tmp_path / "ic.json"
        code = cli.main(["--out", str(out), "ic", str(tmp_path / "fwd.nii"), str(tmp_path / "bwd.nii")])
        assert code == 0
        assert json.loads(out.read_text())["ic_mae"] == 0.0

    @pytest.mark.parametrize("fields", [("huge.nii", "zero.nii"), ("zero.nii", "huge.nii")])
    def test_units_mm_overflow_exits_2_and_writes_nothing(self, tmp_path, capfd, fields):
        # it once printed "ic_mae_voxels nan" and two RuntimeWarnings, wrote
        # "ic_mae": NaN and exited 0
        write_mm_overflow_inputs(tmp_path)
        out = tmp_path / "ic.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--units", "mm", "--out", str(out), "ic", *(str(tmp_path / f) for f in fields)])
        assert code == 2 and not out.exists()
        captured = capfd.readouterr()
        assert captured.err == "error: displacement field contains non-finite values\n"
        assert captured.out == ""


class TestManifestRows:
    """Every row has one cell per column and the file is UTF-8, or the
    command stops with exit code 2 before it writes anything."""

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            (b"b,p1,f.nii,m.nii,ZERO,,\n", "line 3 has 7 cells, the header 8"),
            (b"b,p1,f.nii,m.nii,ZERO,,,,extra\n", "line 3 has 9 cells, the header 8"),
            (b"b,p\xe9,f.nii,m.nii,ZERO,,,\n", "could not read"),
            (b"../escape,p,f.nii,m.nii,ZERO,,,\n", "line 3: the id '../escape' is empty or holds"),
            (b"a,p0,g.nii,m.nii,ZERO,,,\n", "line 3 has the report name a__p0.json of line 2"),
        ],
        ids=["short", "long", "not_utf8", "escape", "same_report"],
    )
    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_bad_row_exits_2_and_writes_nothing(self, tmp_path, capsys, bad_row, message, command):
        path = tmp_path / "m.csv"
        header = ",".join(cli.MANIFEST_COLUMNS).encode()
        path.write_bytes(header + b"\na,p0,f.nii,m.nii,ZERO,,,\n" + bad_row)
        out = tmp_path / "out"
        target = out if command == "eval" else out / "bench.json"
        assert cli.main(["--out", str(target), command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: " if "line" in message else "error: ")
        assert message in err and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [path]

    def test_ids_joined_into_one_report_name_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        header = ",".join(cli.MANIFEST_COLUMNS)
        path.write_text(f"{header}\na__b,c,f.nii,m.nii,ZERO,,,\na,b__c,f.nii,m.nii,ZERO,,,\n")
        assert cli.main(["--out", str(tmp_path / "out"), "eval", str(path)]) == 2
        assert "line 3 has the report name a__b__c.json of line 2" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [path]

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        header = ",".join(cli.MANIFEST_COLUMNS)
        path.write_text(f"{header}\n\n , ,,,,,,\na,p0,f.nii,m.nii,ZERO,,,\n")
        assert [(j.method, j.pair_id) for j in cli.read_manifest(path)] == [("a", "p0")]


class TestRankAlpha:
    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.5", "nan", "inf"])
    def test_alpha_outside_the_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        reports = tmp_path / "reports"
        TestRank().synth_reports(reports, ["a", "b"])
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports), "--alpha", alpha]) == 2
        assert capsys.readouterr().err == f"error: alpha must lie in (0, 1), got {float(alpha)!r}\n"
        assert not out.exists()


class TestCommandTable:
    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["eval", "m.csv"], "eval requires --out DIR"),
            (["rank", "reports"], "rank requires --out DIR"),
            (["correlate", "reports", "dsc", "tre"], "correlate requires --out FILE"),
            (["synth"], "synth requires --out DIR"),
            (["register", "f.nii", "m.nii"], "register requires --out FILE"),
        ],
    )
    def test_missing_out_is_a_usage_error(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f": error: {usage}\n")

    def test_handler_looked_up_when_main_runs(self, tmp_path, monkeypatch):
        # a wrapper set on the module after import (as a tracer does) is called
        seen = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(args.out) or 0)
        assert cli.main(["--out", str(tmp_path / "c"), "synth"]) == 0
        assert seen == [str(tmp_path / "c")]
        assert not (tmp_path / "c").exists()


@pytest.fixture(scope="module")
def boundary_reports(tmp_path_factory):
    reports = tmp_path_factory.mktemp("boundary") / "reports"
    TestRank().synth_reports(reports, ["a", "b"])
    return reports


def command_argv(command: str, out: Path, cohort: Path, reports: Path) -> list[str]:
    """argv that runs ``command`` on the given inputs and writes into the
    directory ``out``: the command's output directory for eval, rank and
    synth, the parent of its output file for the others."""
    fields, images = cohort / "fields", cohort / "images"
    return {
        "eval": ["--out", str(out), "eval", str(cohort / "manifest.csv")],
        "rank": ["--out", str(out), "rank", str(reports)],
        "correlate": ["--out", str(out / "corr.csv"), "correlate", str(reports), "dsc", "tre"],
        "synth": ["--out", str(out), "synth", "--cases", "1", "--dims", "16", "16", "16"],
        "ic": [
            "--out", str(out / "ic.json"), "ic",
            str(fields / "case000_truth.nii"), str(fields / "case001_truth.nii"),
        ],
        "bench": [
            "--out", str(out / "bench.json"), "bench", str(cohort / "manifest.csv"),
            "--repeats", "1",
        ],
        "register": [
            "--out", str(out / "field.nii"), "register",
            str(images / "case000_fixed.nii"), str(images / "case000_moving.nii"),
            "--iters", "1", "--window", "3",
        ],
    }[command]


COMMANDS = ["eval", "rank", "correlate", "synth", "ic", "bench", "register"]


class TestOutputBoundary:
    """``volio.atomic_open`` makes every output's missing parent directories
    when it opens the file and turns every OSError into IoFailure, so each
    command either writes under a new directory or exits 2 with one line."""

    @staticmethod
    def assert_no_temp_file(root: Path):
        assert [p for p in root.rglob("*") if p.name.endswith(".tmp")] == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_under_a_regular_file_exits_2(self, cohort, boundary_reports, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"x")
        out = blocker / "sub"
        assert cli.main(command_argv(command, out, cohort, boundary_reports)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not write {out}") and err.count("\n") == 1
        assert blocker.read_bytes() == b"x"
        self.assert_no_temp_file(tmp_path)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_parents_are_created(self, cohort, boundary_reports, tmp_path, capsys, command):
        out = tmp_path / "new" / "deeper" / "out"
        assert cli.main(command_argv(command, out, cohort, boundary_reports)) == 0
        assert out.is_dir() and any(out.iterdir())
        self.assert_no_temp_file(tmp_path)

    @pytest.mark.parametrize("command", ["synth", "register"])
    def test_closed_stdout_exits_2(self, cohort, boundary_reports, tmp_path, command):
        # stdout is a pipe whose read end is already closed, as under `| head -c 0`
        read_end, write_end = os.pipe()
        os.close(read_end)
        code = "import sys\nfrom regeval import cli\nsys.exit(cli.main(sys.argv[1:]))"
        argv = command_argv(command, tmp_path / "out", cohort, boundary_reports)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, which is flushed again at exit
        try:
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], stdout=write_end, stderr=subprocess.PIPE,
                text=True, env=env, timeout=300,
            )
        finally:
            os.close(write_end)
        # one line, so no traceback and no "Exception ignored" at interpreter exit
        assert done.stderr.startswith("error: could not write stdout: ") and done.stderr.count("\n") == 1
        assert done.returncode == 2
        assert any((tmp_path / "out").iterdir())  # the outputs come before the stdout lines
        self.assert_no_temp_file(tmp_path)

    @pytest.mark.parametrize("argv", [["synth", "--cases", "-1"], ["rank", "reports"]],
                             ids=["library-error", "usage-error"])
    def test_closed_stderr_exits_2(self, tmp_path, argv):
        # stderr is a closed pipe: the error line, or argparse's usage line,
        # is dropped, and neither the line nor the flush at exit changes the code
        read_end, write_end = os.pipe()
        os.close(read_end)
        code = "import sys\nfrom regeval import cli\nsys.exit(cli.main(sys.argv[1:]))"
        out = ["--out", str(tmp_path / "out")] if argv[0] == "synth" else []
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)
        try:
            done = subprocess.run([sys.executable, "-c", code, *out, *argv], stdout=subprocess.PIPE,
                                  stderr=write_end, env=env, timeout=300)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stdout) == (2, b"")
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failure_before_writing_leaves_no_directory(self, tmp_path, capsys, command):
        missing = tmp_path / "missing"
        argv = command_argv(command, tmp_path / "new" / "out", missing, missing)
        if command == "synth":
            argv += ["--labels", "1"]  # a phantom needs two labels
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.iterdir()) == []


class TestWrongInputs:
    """Inputs in the wrong place: exit 2 with one ``error:`` line, or, for
    an eval job, an errors.json entry and exit 1."""

    @staticmethod
    def assert_one_error_line(capsys, *parts):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(part in err for part in parts), err

    def test_directory_named_like_a_report(self, boundary_reports, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        for path in boundary_reports.glob("*.json"):
            (reports / path.name).write_bytes(path.read_bytes())
        (reports / "x__y.json").mkdir()
        assert cli.main(["--out", str(tmp_path / "rank"), "rank", str(reports)]) == 2
        self.assert_one_error_line(capsys, f"could not read {reports / 'x__y.json'}")

    def test_report_with_a_numeric_method_id(self, boundary_reports, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        source = sorted(boundary_reports.glob("*.json"))[0]
        raw = json.loads(source.read_text())
        raw["method_id"] = 3
        (reports / source.name).write_text(json.dumps(raw))
        assert cli.main(["--out", str(tmp_path / "rank"), "rank", str(reports)]) == 2
        self.assert_one_error_line(capsys, "method_id 3 is not a string")

    def test_rank_without_an_accuracy_metric(self, boundary_reports, tmp_path, capsys):
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(boundary_reports), "--metrics", "ndv"]) == 2
        self.assert_one_error_line(capsys, "accuracy ranking needs dsc/hd95/tre")
        assert not out.exists()

    def test_bench_row_past_the_manifest(self, cohort, capsys):
        assert cli.main(["bench", str(cohort / "manifest.csv"), "--row", "9"]) == 2
        self.assert_one_error_line(capsys, "row 9 outside manifest with 6 jobs")

    @staticmethod
    def eval_one_job(cohort, tmp_path, field="ZERO", landmarks_fixed=None):
        """Runs a one-job manifest on case000 with a replaced field or fixed
        landmark file; returns the exit code and the errors.json entries."""
        labels, landmarks = cohort / "labels", cohort / "landmarks"
        fixed_lm = landmarks_fixed or landmarks / "case000_fixed.csv"
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            ",".join(cli.MANIFEST_COLUMNS) + "\n"
            f"m,case000,{labels / 'case000_fixed.nii'},{labels / 'case000_moving.nii'},{field},"
            f"{fixed_lm},{landmarks / 'case000_moving.csv'},\n"
        )
        out = tmp_path / "reports"
        code = cli.main(["--out", str(out), "eval", str(manifest)])
        return code, json.loads((out / "errors.json").read_text())

    def test_field_on_another_grid_is_a_job_failure(self, cohort, tmp_path):
        small = tmp_path / "small.nii"
        write_nifti(DisplacementField.zero(AffineHeader.isotropic((8, 8, 8))), small)
        code, errors = self.eval_one_job(cohort, tmp_path, field=small)
        assert code == 1
        assert [e["error"] for e in errors] == [
            "DimMismatch: field dims (8, 8, 8) do not match segmentation (20, 20, 20)"
        ]

    def test_empty_landmark_file_is_a_job_failure(self, cohort, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, errors = self.eval_one_job(cohort, tmp_path, landmarks_fixed=empty)
        assert code == 1
        assert [e["error"] for e in errors] == [f"MalformedRow: {empty}: empty landmark file"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["register", "fields/case000_truth.nii", "images/case000_moving.nii"],
             "expected a volume, found a displacement field"),
            (["register", "labels/case000_fixed.nii", "images/case000_moving.nii"],
             "expected a scalar volume, found label"),
            (["ic", "images/case000_fixed.nii", "fields/case000_truth.nii"],
             "expected a displacement field, found a volume"),
        ],
    )
    def test_file_in_the_wrong_slot(self, cohort, tmp_path, capsys, argv, message):
        out = tmp_path / "out.nii"
        args = [argv[0], *(str(cohort / name) for name in argv[1:])]
        assert cli.main(["--out", str(out), *args]) == 2
        self.assert_one_error_line(capsys, message)
        assert not out.exists()

    def test_init_field_on_another_grid(self, cohort, tmp_path, capsys):
        small = tmp_path / "small.nii"
        write_nifti(DisplacementField.zero(AffineHeader.isotropic((8, 8, 8))), small)
        images, out = cohort / "images", tmp_path / "field.nii"
        assert cli.main([
            "--out", str(out), "register",
            str(images / "case000_fixed.nii"), str(images / "case000_moving.nii"),
            "--iters", "1", "--init", str(small),
        ]) == 2
        self.assert_one_error_line(capsys, "field dims (8, 8, 8) != image dims (20, 20, 20)")
        assert not out.exists()
