import csv
import gzip
import json
import os
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regeval import cli
from regeval.metrics import PairReport
from regeval.synth import make_cohort
from regeval.volio import AffineHeader, DisplacementField, Volume, write_nifti


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

            def map(self, fn, items):
                return map(fn, items)

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

    @pytest.mark.parametrize("command", ["rank", "correlate", "ic"])
    def test_numpy_only_commands_load_no_scipy(self, tmp_path, command):
        reports = tmp_path / "reports"
        TestRank().synth_reports(reports, ["a", "b", "c"], n_cases=6)
        if command == "rank":
            argv = ["--out", str(tmp_path / "rank"), "rank", str(reports)]
        elif command == "correlate":
            argv = ["--out", str(tmp_path / "corr.csv"), "correlate", str(reports), "dsc", "tre"]
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

    def test_eval_loads_kdtree_before_its_pool_starts(self, cohort, tmp_path):
        # a stand-in pool notes what is loaded when it is built (forked
        # workers inherit exactly that) and then runs the jobs in-process
        code = """
import sys
from regeval import cli

seen = []

class StandInPool:
    def __init__(self, max_workers):
        seen.append((max_workers, "scipy.spatial" in sys.modules))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

cli.ProcessPoolExecutor = StandInPool
cli.cpu_count = lambda: 2
assert cli.main(sys.argv[1:]) == 0
print(seen)
"""
        argv = ["--jobs", "2", "--out", str(tmp_path / "reports"), "eval", str(cohort / "manifest.csv")]
        assert run_fresh(code, *argv) == "[(2, True)]"

    def test_bench_times_no_import(self, cohort):
        # every timed job, the first included, starts with the KD-tree loaded
        code = """
import sys
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

    @pytest.mark.parametrize("kind", ["missing", "directory", "truncated_gzip"])
    def test_unreadable_path_exits_2(self, tmp_path, capsys, kind):
        good = self.field_file(tmp_path / "good.nii")
        bad = tmp_path / "bad.nii.gz"
        if kind == "directory":
            bad.mkdir()
        elif kind == "truncated_gzip":
            blob = gzip.compress(good.read_bytes())
            bad.write_bytes(blob[: len(blob) // 2])
        assert cli.main(["ic", str(bad), str(good)]) == 2
        assert f"could not read {bad}" in capsys.readouterr().err

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

    def test_unpaired_cases_rejected(self, tmp_path):
        reports = tmp_path / "reports"
        self.synth_reports(reports, ["a", "b"])
        next(iter(sorted(reports.glob("a__*.json")))).unlink()
        out = tmp_path / "rank"
        assert cli.main(["--out", str(out), "rank", str(reports)]) == 2

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
        with pytest.raises(OSError):
            cli._write_json({"a": 1}, tmp_path / "report.json")
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

        monkeypatch.setattr(cli.csv, "writer", FailingWriter)
        with pytest.raises(RuntimeError):
            cli.cmd_rank(str(reports), str(out), ["dsc", "hd95", "tre"])
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
            cli.cmd_correlate(str(reports), "dsc", "tre", str(out_dir / "corr.csv"))
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
    def test_writes_cohort(self, tmp_path):
        out = tmp_path / "c"
        code = cli.main(
            ["--seed", "3", "--out", str(out), "synth", "--cases", "2", "--dims", "16", "16", "16"]
        )
        assert code == 0
        assert (out / "manifest.csv").exists()
        assert len(list((out / "images").glob("*.nii"))) == 4


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
                "--levels", "2", "--iters", "5,5", "--window", "5",
            ]
        )
        assert code == 0
        from regeval.volio import read_field

        fld = read_field(out)
        assert fld.dims == dims

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--iters", "a,b,c"], "--iters must be comma-separated integers"),
            (["--iters", ""], "--iters must be comma-separated integers"),
            (["--iters", "5,5"], "iters_per_level has 2 entries for 3 levels"),
            (["--levels", "0", "--iters", ""], "--iters"),
            (["--window", "4"], "lncc_window"),
            (["--squarings", "-1"], "squarings"),
            (["--step-size", "0"], "step_size"),
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
        assert err.startswith("error: ") and message in err
        assert not out.exists()

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
