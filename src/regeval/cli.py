"""Command-line surface: evaluation, ranking, inverse consistency,
correlation, benchmarking, synthesis, and reference registration.

Jobs come from a manifest (see ``regeval.manifest`` for the format).
Reports are JSON, one file per (method, pair), floats in shortest
round-trip decimal form; the same serialization rules make report
directories byte-identical regardless of worker count.

Exit codes: 0 success, 1 partial job failure, 2 usage or configuration
error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ranking, refreg, stats, synth
from .errors import (
    BadParams,
    IoFailure,
    MalformedReport,
    MissingMethods,
    RegEvalError,
    UnpairedCases,
)
# MANIFEST_COLUMNS is not used here; it stays importable as
# cli.MANIFEST_COLUMNS for perfbench/workloads.py
from .manifest import MANIFEST_COLUMNS, ZERO_FIELD, Job, read_manifest  # noqa: F401
from .metrics import PairReport, evaluate_pair
from .volio import (
    DisplacementField,
    atomic_open,
    read_field,
    read_landmarks,
    read_volume,
    scale_field_units,
    write_nifti,
)
from .warp import ic_residual

LEADERBOARD_COLUMNS = (
    "method",
    "dsc_mean",
    "dsc_std",
    "dsc30_mean",
    "dsc30_std",
    "hd95_mean",
    "hd95_std",
    "tre_mean",
    "tre_std",
    "tre30_mean",
    "tre30_std",
    "ndv_mean",
    "ndv_std",
    "rank_dsc",
    "rank_hd95",
    "rank_tre",
    "acc_score",
    "final_rank",
)


def _report_name(job: Job) -> str:
    return f"{job.method}__{job.pair_id}.json"


def _write_json(obj, path) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_job(job: Job, units: str = "voxel") -> PairReport:
    """Load a job's inputs, evaluate the pair, and return the report."""
    fixed_seg = read_volume(job.fixed_seg, kind="label")
    moving_seg = read_volume(job.moving_seg, kind="label")
    if job.field == ZERO_FIELD:
        phi = DisplacementField.zero(fixed_seg.header)
    else:
        phi = scale_field_units(read_field(job.field), units)
    landmarks = None
    if job.landmarks_fixed and job.landmarks_moving:
        landmarks = (read_landmarks(job.landmarks_fixed), read_landmarks(job.landmarks_moving))
    mask = read_volume(job.mask, kind="label") if job.mask else None
    return evaluate_pair(
        fixed_seg,
        moving_seg,
        phi,
        landmarks=landmarks,
        mask=mask,
        method_id=job.method,
        pair_id=job.pair_id,
    )


def _eval_one(args: tuple) -> tuple[str, str, str | None]:
    """Worker body: returns (method, pair_id, error message or None)."""
    job, out_dir, units = args
    try:
        report = run_job(job, units=units)
        _write_json(report.to_dict(), Path(out_dir) / _report_name(job))
        return job.method, job.pair_id, None
    except Exception as exc:  # per-job isolation: record, never abort others
        return job.method, job.pair_id, f"{type(exc).__name__}: {exc}"


def cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, not the machine's)."""
    return len(os.sched_getaffinity(0))


def worker_count(requested: int, n_jobs: int) -> int:
    """Eval processes worth starting: no more than the jobs or the usable CPUs."""
    return min(requested, n_jobs, cpu_count())


def _load_kdtree() -> None:
    """Load HD95's KD-tree module (``scipy.spatial``) ahead of the jobs, so
    that bench does not time the import and eval workers inherit it instead
    of each importing it.  They inherit it only under the ``fork`` start
    method, the default on Linux before Python 3.14; under ``forkserver``
    or ``spawn`` each worker imports it on its first HD95."""
    import scipy.spatial  # noqa: F401


def cmd_eval(manifest: str, out_dir: str, jobs: int = 1, units: str = "voxel") -> int:
    """Evaluate every manifest job; one JSON report per job, errors.json
    for failures.  Output bytes are independent of the worker count."""
    job_list = read_manifest(manifest)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    work = [(job, str(out), units) for job in job_list]
    jobs = worker_count(jobs, len(work))
    if jobs <= 1:
        results = [_eval_one(w) for w in work]
    else:
        _load_kdtree()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_eval_one, work))
    errors = sorted(
        [{"method": m, "pair_id": p, "error": e} for m, p, e in results if e is not None],
        key=lambda d: (d["method"], d["pair_id"]),
    )
    _write_json(errors, out / "errors.json")
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# ranking


def _read_report(path: Path) -> PairReport:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    try:
        return PairReport.from_dict(json.loads(raw.decode("utf-8")))
    except KeyError as exc:
        raise MalformedReport(f"report {path} lacks the field {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise MalformedReport(f"report {path} is not a pair report object: {exc}") from exc


def load_reports(report_dir) -> list[PairReport]:
    reports = []
    for path in sorted(Path(report_dir).glob("*.json")):
        if path.name == "errors.json":
            continue
        reports.append(_read_report(path))
    if not reports:
        raise MissingMethods(f"no report files in {report_dir}")
    return reports


@dataclass(frozen=True)
class Metric:
    """How one rankable metric is read from a report and compared."""

    direction: str
    pairing: str
    value: Callable[[PairReport], float | None]


def _dsc30(report: PairReport) -> float | None:
    vals = [v for v in report.dsc_per_label.values() if v is not None]
    return stats.dsc30(vals) if vals else None


def _tre30(report: PairReport) -> float | None:
    return stats.tre30(report.tre_per_landmark) if report.tre_per_landmark else None


METRICS = {
    "dsc": Metric(ranking.HIGHER_BETTER, "paired", lambda r: r.dsc_mean),
    "hd95": Metric(ranking.LOWER_BETTER, "paired", lambda r: r.hd95_mean),
    "tre": Metric(ranking.LOWER_BETTER, "paired", lambda r: r.tre_mean),
    "ndv": Metric(ranking.LOWER_BETTER, "paired", lambda r: r.ndv),
    "dsc30": Metric(ranking.HIGHER_BETTER, "unpaired", _dsc30),
    "tre30": Metric(ranking.LOWER_BETTER, "unpaired", _tre30),
}


def metric_spec(metric_id: str) -> Metric:
    try:
        return METRICS[metric_id]
    except KeyError:
        raise MissingMethods(f"unknown metric {metric_id!r}") from None


def build_metric_matrix(reports: list[PairReport], metric: str) -> ranking.MetricMatrix:
    """Assemble a methods-by-cases matrix for one metric from pair reports."""
    methods = sorted({r.method_id for r in reports})
    cases = sorted({r.pair_id for r in reports})
    if not methods:
        raise MissingMethods("reports carry no method ids")
    spec = metric_spec(metric)
    values = np.full((len(methods), len(cases)), np.nan)
    for r in reports:
        v = spec.value(r)
        if v is not None:
            values[methods.index(r.method_id), cases.index(r.pair_id)] = v
    if spec.pairing == "paired" and not np.all(np.isfinite(values)):
        raise UnpairedCases(f"{metric}: not every method covers every case")
    return ranking.MetricMatrix(
        metric_id=metric,
        direction=spec.direction,
        methods=tuple(methods),
        cases=tuple(cases),
        values=values,
        pairing=spec.pairing,
    )


def cmd_rank(report_dir: str, out_dir: str, metrics: list[str], alpha: float = 0.05) -> int:
    """Build the leaderboard CSV and rank JSON from a report directory.

    The accuracy score pools dsc, hd95 and, when every report has landmark
    results, tre; further requested metrics (e.g. ndv) are ranked and
    reported but stay out of the accuracy score.
    """
    reports = load_reports(report_dir)
    methods = sorted({r.method_id for r in reports})

    have_tre = all(r.tre_mean is not None for r in reports)
    usable = [m for m in metrics if m != "tre" or have_tre]
    matrices = [build_metric_matrix(reports, m) for m in usable]
    acc_metrics = [m for m in ("dsc", "hd95", "tre") if m in usable]
    if not acc_metrics:
        raise MissingMethods(f"accuracy ranking needs dsc/hd95/tre among metrics {metrics}")

    if len(methods) == 1:
        scores = {m.metric_id: {methods[0]: 0.1} for m in matrices}
        wins = {m.metric_id: {methods[0]: 0} for m in matrices}
        table = ranking.aggregate(scores, acc_metrics, wins=wins)
    else:
        table, scores = ranking.rank_methods(matrices, acc_metrics, alpha=alpha)

    summary_metrics = ("dsc", "dsc30", "hd95", "tre", "tre30", "ndv")
    cohorts: dict[str, stats.CohortStats] = {}
    for method in methods:
        mine = sorted(
            (r for r in reports if r.method_id == method), key=lambda r: r.pair_id
        )
        per_case = {}
        for metric in summary_metrics:
            value = METRICS[metric].value
            vals = [v for r in mine if (v := value(r)) is not None]
            if vals:
                per_case[metric] = vals
        cohorts[method] = stats.summarize_cohort(per_case)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for row in table.rows:
        cohort = cohorts[row.method]
        cells: dict[str, object] = {"method": row.method}
        for metric in summary_metrics:
            cells[f"{metric}_mean"] = cohort.means.get(metric)
            cells[f"{metric}_std"] = cohort.stds.get(metric)
        for metric in ("dsc", "hd95", "tre"):
            cells[f"rank_{metric}"] = row.rank_scores.get(metric)
        cells["acc_score"] = row.acc_score
        cells["final_rank"] = row.final_rank
        rows.append(cells)

    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    csv_path = out / "leaderboard.csv"
    with atomic_open(csv_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LEADERBOARD_COLUMNS)
        for cells in rows:
            writer.writerow([fmt(cells.get(col)) for col in LEADERBOARD_COLUMNS])

    rank_json = {
        "alpha": alpha,
        "metrics": list(usable),
        "acc_metrics": acc_metrics,
        "rank_scores": {m: dict(sorted(s.items())) for m, s in scores.items()},
        "table": [
            {
                "method": row.method,
                "wins": row.wins,
                "rank_scores": row.rank_scores,
                "acc_score": row.acc_score,
                "final_rank": row.final_rank,
            }
            for row in table.rows
        ],
    }
    _write_json(rank_json, out / "leaderboard.json")
    print(f"leaderboard written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# inverse consistency, correlation, bench


def cmd_ic(fwd: str, bwd: str, mask: str | None, norm: str, units: str, out: str | None) -> int:
    phi_ab = scale_field_units(read_field(fwd), units)
    phi_ba = scale_field_units(read_field(bwd), units)
    mask_vol = read_volume(mask, kind="label") if mask else None
    mae, _ = ic_residual(phi_ab, phi_ba, mask=mask_vol, norm=norm)
    print(f"ic_mae_voxels {mae!r}")
    if out:
        _write_json({"ic_mae": mae, "norm": norm, "fwd": fwd, "bwd": bwd}, out)
    return 0


def cmd_correlate(report_dir: str, x_metric: str, y_metric: str, out: str) -> int:
    """Per-method correlation between two per-case metrics, as CSV rows
    method,n_cases,r,slope,intercept,note."""
    reports = load_reports(report_dir)
    x_value, y_value = metric_spec(x_metric).value, metric_spec(y_metric).value
    methods = sorted({r.method_id for r in reports})
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "n_cases", "r", "slope", "intercept", "note"])
        for method in methods:
            mine = sorted(
                (r for r in reports if r.method_id == method), key=lambda r: r.pair_id
            )
            xs, ys = [], []
            for r in mine:
                xv, yv = x_value(r), y_value(r)
                if xv is not None and yv is not None:
                    xs.append(xv)
                    ys.append(yv)
            try:
                fit = stats.pearson_fit(xs, ys)
                writer.writerow(
                    [method, len(xs), repr(fit.r), repr(fit.slope), repr(fit.intercept), "ok"]
                )
            except RegEvalError:
                writer.writerow([method, len(xs), "", "", "", "degenerate"])
    print(f"correlation table written to {path}")
    return 0


def bench_job(job: Job, repeats: int = 10, units: str = "voxel") -> dict:
    """Wall-clock samples of the full job: file reads, evaluation, report
    write.  Matches the runtime protocol of timing on CPU including I/O."""
    samples = []
    _load_kdtree()
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            report = run_job(job, units=units)
            _write_json(report.to_dict(), Path(tmp) / _report_name(job))
            samples.append(time.perf_counter() - t0)
    mean, std = stats.mean_std(samples)
    return {
        "method": job.method,
        "pair_id": job.pair_id,
        "repeats": len(samples),
        "mean_s": mean,
        "std_s": std,
        "samples": samples,
    }


def cmd_bench(manifest: str, row: int, repeats: int, units: str, out: str | None) -> int:
    jobs = read_manifest(manifest)
    if not (0 <= row < len(jobs)):
        raise UnpairedCases(f"row {row} outside manifest with {len(jobs)} jobs")
    result = bench_job(jobs[row], repeats=repeats, units=units)
    print(
        f"{result['method']} {result['pair_id']}: mean {result['mean_s']:.3f} s, "
        f"std {result['std_s']:.3f} s over {result['repeats']} runs"
    )
    if out:
        _write_json(result, out)
    return 0


# ---------------------------------------------------------------------------
# synth and register


def cmd_synth(out_dir: str, cases: int, dims, labels: int, seed: int, amplitude: float,
              smoothness: float, gzip_files: bool) -> int:
    manifest = synth.make_cohort(
        out_dir,
        cases=cases,
        dims=tuple(dims),
        seed=seed,
        label_count=labels,
        amplitude=amplitude,
        smoothness=smoothness,
        gzip_files=gzip_files,
    )
    print(f"cohort with {len(manifest['cases'])} cases written to {out_dir}")
    return 0


def _reg_config(args) -> refreg.RegConfig:
    """The optimizer settings of the register options; BadParams if any
    does not parse or fails a RegConfig check."""
    try:
        iters = tuple(int(x) for x in args.iters.split(","))
    except ValueError:
        raise BadParams(f"--iters must be comma-separated integers, got {args.iters!r}") from None
    try:
        return refreg.RegConfig(
            levels=args.levels,
            iters_per_level=iters,
            step_size=args.step_size,
            lambda_diffusion=args.lambda_diffusion,
            lncc_window=args.window,
            parameterization=args.parameterization,
            squarings=args.squarings,
            update_smoothing_sigma=args.sigma,
        )
    except ValueError as exc:
        raise BadParams(f"register options: {exc}") from exc


def cmd_register(args) -> int:
    cfg = _reg_config(args)
    fixed = read_volume(args.fixed, kind="scalar")
    moving = read_volume(args.moving, kind="scalar")
    if args.init:
        init = scale_field_units(read_field(args.init), args.units)
        field = refreg.instance_optimize(fixed, moving, init, cfg)
        final_loss, _ = refreg.loss_and_grad(fixed, moving, field, cfg)
        print(f"instance optimization done, loss {final_loss!r}")
    else:
        field, trace = refreg.register(fixed, moving, cfg)
        final_loss = trace[-1][-1] if trace and trace[-1] else float("nan")
        print(f"registration done over {len(trace)} levels, final loss {final_loss!r}")
    write_nifti(field, args.out, use_gzip=str(args.out).endswith(".gz"))
    print(f"field written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regeval",
        description="Deformable-registration evaluation, ranking, and reference optimizer",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for eval")
    parser.add_argument(
        "--units",
        choices=("voxel", "mm"),
        default="voxel",
        help="units of displacement components in input field files",
    )
    parser.add_argument("--out", default=None, help="output directory or file")
    parser.add_argument("--seed", type=int, default=0, help="seed for synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate manifest jobs into JSON reports")
    p_eval.add_argument("manifest")

    p_rank = sub.add_parser("rank", help="leaderboard from a report directory")
    p_rank.add_argument("report_dir")
    p_rank.add_argument("--metrics", default="dsc,hd95,tre", help="comma list to rank")
    p_rank.add_argument("--alpha", type=float, default=0.05)

    p_ic = sub.add_parser("ic", help="inverse-consistency residual of two fields")
    p_ic.add_argument("fwd")
    p_ic.add_argument("bwd")
    p_ic.add_argument("--mask", default=None)
    p_ic.add_argument("--norm", choices=("euclidean", "component"), default="euclidean")

    p_corr = sub.add_parser("correlate", help="per-method metric correlation")
    p_corr.add_argument("report_dir")
    p_corr.add_argument("x_metric")
    p_corr.add_argument("y_metric")

    p_bench = sub.add_parser("bench", help="repeat-timing of one manifest job")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--row", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=10)

    p_synth = sub.add_parser("synth", help="write a synthetic cohort")
    p_synth.add_argument("--cases", type=int, default=8)
    p_synth.add_argument("--dims", type=int, nargs=3, default=(32, 32, 32))
    p_synth.add_argument("--labels", type=int, default=4)
    p_synth.add_argument("--amplitude", type=float, default=2.0)
    p_synth.add_argument("--smoothness", type=float, default=6.0)
    p_synth.add_argument("--gzip", action="store_true")

    p_reg = sub.add_parser("register", help="optimize a field aligning moving to fixed")
    p_reg.add_argument("fixed")
    p_reg.add_argument("moving")
    p_reg.add_argument("--levels", type=int, default=3)
    p_reg.add_argument("--iters", default="100,100,50")
    p_reg.add_argument("--step-size", type=float, default=1.0)
    p_reg.add_argument("--lambda-diffusion", type=float, default=1.0)
    p_reg.add_argument("--window", type=int, default=9)
    p_reg.add_argument(
        "--parameterization", choices=(refreg.DISPLACEMENT, refreg.SVF), default=refreg.SVF
    )
    p_reg.add_argument("--squarings", type=int, default=7)
    p_reg.add_argument("--sigma", type=float, default=1.0)
    p_reg.add_argument("--init", default=None, help="initial field for instance optimization")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            if not args.out:
                parser.error("eval requires --out DIR")
            return cmd_eval(args.manifest, args.out, jobs=args.jobs, units=args.units)
        if args.command == "rank":
            if not args.out:
                parser.error("rank requires --out DIR")
            metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
            return cmd_rank(args.report_dir, args.out, metrics, alpha=args.alpha)
        if args.command == "ic":
            return cmd_ic(args.fwd, args.bwd, args.mask, args.norm, args.units, args.out)
        if args.command == "correlate":
            if not args.out:
                parser.error("correlate requires --out FILE")
            return cmd_correlate(args.report_dir, args.x_metric, args.y_metric, args.out)
        if args.command == "bench":
            return cmd_bench(args.manifest, args.row, args.repeats, args.units, args.out)
        if args.command == "synth":
            if not args.out:
                parser.error("synth requires --out DIR")
            return cmd_synth(
                args.out,
                cases=args.cases,
                dims=args.dims,
                labels=args.labels,
                seed=args.seed,
                amplitude=args.amplitude,
                smoothness=args.smoothness,
                gzip_files=args.gzip,
            )
        if args.command == "register":
            if not args.out:
                parser.error("register requires --out FILE")
            return cmd_register(args)
        parser.error(f"unknown command {args.command!r}")
    except RegEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
