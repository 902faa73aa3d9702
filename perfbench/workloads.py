"""The benchmark's four workloads: set-up, the commands one pass runs, and
the output checks that tie every result to an analytic fact of its input.

A workload's set-up writes every input file from the workload seed alone;
the program sees only those files.  A pass is a list of ``regeval``
argument lists, run in order.  ``check`` returns how many operations the
pass attempted, how many failed (an eval job in ``errors.json``, a missing
report, a failed output check, or a non-zero exit code) and any accuracy
numbers worth reporting.
"""
from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from regeval import cli, metrics, synth, volio, warp

C10_DIMS = (160, 192, 224)
C10_LABELS = 20
COHORT_DIMS = (64, 64, 64)
COHORT_CASES = 8
COHORT_LABELS = 6
C6_DIMS = (64, 64, 64)
RANK_METHODS = 24
RANK_CASES = 25
RANK_SUBSET = 10
RANK_METRICS = "dsc,hd95,tre,ndv,dsc30,tre30"


def workload_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, tag])


def quiet_cli(argv: list[str]) -> int:
    """``regeval`` in-process, with its progress lines sent to stderr so that
    standard output carries only the benchmark's own lines."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def labels_complete(report: dict, count: int) -> bool:
    per_label = report["dsc_per_label"]
    return all(per_label.get(str(k)) is not None for k in range(1, count + 1))


def check_eval(out: Path, rc: int, expected: dict) -> tuple[int, int]:
    """``expected`` maps each report file name to a predicate on its dict."""
    attempted = len(expected)
    if rc != 0:
        return attempted, attempted
    errors = read_json(out / "errors.json")
    failed = {f"{e['method']}__{e['pair_id']}.json" for e in errors}
    for name, ok in expected.items():
        path = out / name
        if name not in failed and not (path.exists() and ok(read_json(path))):
            failed.add(name)
    return attempted, len(failed)


def manifest_row(method, pair_id, fixed_seg, moving_seg, field, lm_fixed, lm_moving) -> str:
    return ",".join([method, pair_id, fixed_seg, moving_seg, field, lm_fixed, lm_moving, ""])


class EvalLarge:
    """Two C10-sized pairs (160x192x224 voxels, 20 labels), one fractional
    translation each, stored as a raw float64 field; ``--jobs 1``."""

    name = "eval-large"
    jobs_per_pass = 2
    largest_array = ("shift field, float64 160x192x224x3", 160 * 192 * 224 * 3 * 8)

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True)
        rows = []
        for i in range(self.jobs_per_pass):
            rng = workload_rng(seed, 100 + i)
            dims = np.asarray(C10_DIMS, dtype=np.float64)
            center = (dims - 1.0) / 2.0 + rng.uniform(-2.0, 2.0, 3)
            # shells keep their default sizes, so the work per job stays
            # the same across seeds; only the center and the shift move
            outer = 0.40 * (dims - 1.0)
            ks = np.arange(C10_LABELS, 0, -1) / C10_LABELS
            spec = synth.PhantomSpec(
                dims=C10_DIMS,
                label_count=C10_LABELS,
                seed=int(rng.integers(2**31)),
                noise_sigma=0.0,
                center=tuple(center),
                semi_axes=tuple(tuple(outer * k) for k in ks),
            )
            _, labels, lm = synth.make_phantom(spec)
            vec = rng.uniform(0.3, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
            inverse, _ = synth.make_field(synth.Translation(tuple(-vec)), C10_DIMS)
            moving = warp.warp_labels(labels, inverse)
            del inverse
            shift, _ = synth.make_field(synth.Translation(tuple(vec)), C10_DIMS)
            pair = f"pair{i:02d}"
            volio.write_nifti(labels, d / f"{pair}_fixed_seg.nii")
            volio.write_nifti(moving, d / f"{pair}_moving_seg.nii")
            volio.write_nifti(shift, d / f"{pair}_shift.nii")
            volio.write_landmarks(lm, d / f"{pair}_fixed_lm.csv")
            volio.write_landmarks(
                volio.LandmarkSet(names=lm.names, points=lm.points + vec), d / f"{pair}_moving_lm.csv"
            )
            rows.append(manifest_row(
                "shift", pair, f"{pair}_fixed_seg.nii", f"{pair}_moving_seg.nii",
                f"{pair}_shift.nii", f"{pair}_fixed_lm.csv", f"{pair}_moving_lm.csv",
            ))
        (d / "manifest.csv").write_text("\n".join([",".join(cli.MANIFEST_COLUMNS)] + rows) + "\n")
        return {"manifest": str(d / "manifest.csv")}

    def passes(self, inputs: dict, out: Path, jobs: int) -> list[list[str]]:
        return [["--jobs", "1", "--out", str(out), "eval", inputs["manifest"]]]

    def check(self, inputs: dict, out: Path, rcs: list[int]) -> tuple[int, int, dict]:
        def ok(r):
            # a translation has no folds and moves every landmark exactly
            return r["ndv"] == 0.0 and r["tre_mean"] == 0.0 and labels_complete(r, C10_LABELS)

        expected = {f"shift__pair{i:02d}.json": ok for i in range(self.jobs_per_pass)}
        return (*check_eval(out, rcs[0], expected), {})


class EvalCohort:
    """A ``regeval synth`` cohort (8 pairs, 64^3, 6 labels, .nii.gz) with
    four methods per pair; ``--jobs nproc``."""

    name = "eval-cohort"
    jobs_per_pass = COHORT_CASES * 4
    largest_array = ("truth field, float64 64x64x64x3", 64**3 * 3 * 8)

    def setup(self, d: Path, seed: int) -> dict:
        rng = workload_rng(seed, 200)
        rc = quiet_cli([
            "--seed", str(int(rng.integers(2**20))), "--out", str(d), "synth",
            "--cases", str(COHORT_CASES), "--dims", *map(str, COHORT_DIMS),
            "--labels", str(COHORT_LABELS), "--gzip",
        ])
        if rc != 0:
            raise RuntimeError(f"regeval synth exited with {rc}")
        rows = []
        for i in range(COHORT_CASES):
            case = f"case{i:03d}"
            truth = volio.read_field(d / "fields" / f"{case}_truth.nii.gz")
            half = volio.DisplacementField(header=truth.header, data=0.5 * truth.data)
            slab, _ = synth.make_field(
                synth.FoldSlab(axis=0, center=float(rng.uniform(24.0, 34.0)), width=4.0),
                COHORT_DIMS,
            )
            fold = volio.DisplacementField(header=truth.header, data=truth.data + slab.data)
            for method, fld in (("half", half), ("fold", fold)):
                rel = f"fields/{case}_{method}.nii.gz"
                volio.write_nifti(fld, d / rel, use_gzip=True)
                rows.append(manifest_row(
                    method, case, f"labels/{case}_fixed.nii.gz", f"labels/{case}_moving.nii.gz",
                    rel, f"landmarks/{case}_fixed.csv", f"landmarks/{case}_moving.csv",
                ))
        with open(d / "manifest.csv", "a", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        return {"manifest": str(d / "manifest.csv")}

    def passes(self, inputs: dict, out: Path, jobs: int) -> list[list[str]]:
        return [["--jobs", str(jobs), "--out", str(out), "eval", inputs["manifest"]]]

    def check(self, inputs: dict, out: Path, rcs: list[int]) -> tuple[int, int, dict]:
        def complete(r):
            return labels_complete(r, COHORT_LABELS)

        checks = {
            "truth": lambda r: complete(r) and r["ndv"] <= 1e-6 and r["tre_mean"] == 0.0,
            "zero": lambda r: complete(r) and r["ndv"] == 0.0,
            "half": complete,
            "fold": lambda r: complete(r) and r["ndv"] > 0.0,
        }
        expected = {
            f"{m}__case{i:03d}.json": ok for i in range(COHORT_CASES) for m, ok in checks.items()
        }
        return (*check_eval(out, rcs[0], expected), {})


class Register:
    """The C6 problem: 64^3 phantom (6 labels, noise 0.1) and an SVF truth
    (amplitude 6, smoothness 8), registered with the command's defaults."""

    name = "register"
    jobs_per_pass = 1
    largest_array = ("velocity and field, float64 64x64x64x3", 64**3 * 3 * 8)
    # The C6 gates hold for the C6 pair (phantom seed 21, velocity seed 22);
    # with other seeds this optimizer lands near or beyond TRE 1.0 mm, so
    # the workload keeps the C6 pair for every workload seed.
    PHANTOM_SEED = 21
    VELOCITY_SEED = 22

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True)
        phantom = synth.make_phantom(synth.PhantomSpec(
            dims=C6_DIMS, label_count=6, seed=self.PHANTOM_SEED, noise_sigma=0.1
        ))
        velocity = synth.make_velocity(
            synth.Svf(seed=self.VELOCITY_SEED, amplitude=6.0, smoothness=8.0), C6_DIMS
        )
        pair = synth.make_pair(phantom, velocity)
        paths = {
            "fixed": d / "fixed.nii",
            "moving": d / "moving.nii",
            "fixed_seg": d / "fixed_seg.nii",
            "moving_seg": d / "moving_seg.nii",
            "fixed_lm": d / "fixed_lm.csv",
            "moving_lm": d / "moving_lm.csv",
        }
        volio.write_nifti(pair.fixed_image, paths["fixed"])
        volio.write_nifti(pair.moving_image, paths["moving"])
        volio.write_nifti(pair.fixed_labels, paths["fixed_seg"])
        volio.write_nifti(pair.moving_labels, paths["moving_seg"])
        volio.write_landmarks(pair.fixed_landmarks, paths["fixed_lm"])
        volio.write_landmarks(pair.moving_landmarks, paths["moving_lm"])
        return {k: str(v) for k, v in paths.items()}

    def passes(self, inputs: dict, out: Path, jobs: int) -> list[list[str]]:
        out.mkdir(parents=True, exist_ok=True)
        return [[
            "--losses", str(out / "losses.json"),
            "--out", str(out / "field.nii"), "register", inputs["fixed"], inputs["moving"],
        ]]

    def check(self, inputs: dict, out: Path, rcs: list[int]) -> tuple[int, int, dict]:
        if rcs[0] != 0 or not (out / "field.nii").exists():
            return 1, 1, {}
        report = metrics.evaluate_pair(
            volio.read_volume(inputs["fixed_seg"], kind="label"),
            volio.read_volume(inputs["moving_seg"], kind="label"),
            volio.read_field(out / "field.nii"),
            landmarks=(volio.read_landmarks(inputs["fixed_lm"]),
                       volio.read_landmarks(inputs["moving_lm"])),
        )
        losses = read_json(out / "losses.json")
        ok = (
            report.dsc_mean >= 0.90
            and report.tre_mean <= 1.0
            and report.ndv < 1e-2
            and all(np.all(np.diff(level) <= 0.0) for level in losses)
        )
        accuracy = {"register_dsc": report.dsc_mean, "register_tre_mm": report.tre_mean}
        return 1, 0 if ok else 1, accuracy


class Rank:
    """24 methods x 25 cases of pair reports with an injected quality order,
    ranked in full and on a 10-case subset over all six metrics."""

    name = "rank"
    jobs_per_pass = 2
    largest_array = ("report matrix, 24x25 per metric", RANK_METHODS * RANK_CASES * 8)

    def setup(self, d: Path, seed: int) -> dict:
        rng = workload_rng(seed, 400)
        # best first; names are shuffled so listing order cannot stand in for rank
        order = [f"m{k:02d}" for k in rng.permutation(RANK_METHODS)]
        full, subset = d / "full", d / "subset"
        full.mkdir(parents=True)
        subset.mkdir()
        labels, landmarks = 6, 12
        for q, method in enumerate(order):
            for c in range(RANK_CASES):
                # every value of quality q beats every value of q + 1, paired
                # or not: the noise half-width stays below half the gap
                dsc = 0.95 - 0.01 * q + rng.uniform(-0.004, 0.004, labels)
                hd = 2.0 + 0.2 * q + rng.uniform(-0.08, 0.08, labels)
                tre = 1.0 + 0.1 * q + rng.uniform(-0.04, 0.04, landmarks)
                report = metrics.PairReport(
                    method_id=method,
                    pair_id=f"c{c:02d}",
                    dsc_per_label={k + 1: float(v) for k, v in enumerate(dsc)},
                    dsc_mean=float(np.mean(dsc)),
                    hd95_per_label={k + 1: float(v) for k, v in enumerate(hd)},
                    hd95_mean=float(np.mean(hd)),
                    tre_per_landmark=[float(v) for v in tre],
                    tre_mean=float(np.mean(tre)),
                    ndv=1e-4 * (q + 1) + float(rng.uniform(-4e-5, 4e-5)),
                )
                text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
                name = f"{method}__c{c:02d}.json"
                (full / name).write_text(text, encoding="utf-8")
                if c < RANK_SUBSET:
                    (subset / name).write_text(text, encoding="utf-8")
        return {"full": str(full), "subset": str(subset), "order": order}

    def passes(self, inputs: dict, out: Path, jobs: int) -> list[list[str]]:
        return [
            ["--out", str(out / part), "rank", inputs[part], "--metrics", RANK_METRICS]
            for part in ("full", "subset")
        ]

    def check(self, inputs: dict, out: Path, rcs: list[int]) -> tuple[int, int, dict]:
        order = inputs["order"]
        failed = 0
        for part, rc in zip(("full", "subset"), rcs):
            path = out / part / "leaderboard.json"
            if rc != 0 or not path.exists():
                failed += 1
                continue
            board = read_json(path)
            table_ok = [row["method"] for row in board["table"]] == order and [
                row["final_rank"] for row in board["table"]
            ] == list(range(1, len(order) + 1))
            scores_ok = all(
                all(scores[a] > scores[b] for a, b in zip(order, order[1:]))
                for scores in board["rank_scores"].values()
            ) and len(board["rank_scores"]) == len(RANK_METRICS.split(","))
            failed += not (table_ok and scores_ok)
        return len(rcs), failed, {}


WORKLOADS = {w.name: w for w in (EvalLarge(), EvalCohort(), Register(), Rank())}
