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
import contextlib
import json
import os
import sys
import tempfile
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import ranking, refreg, stats, synth
from .errors import (
    BadParams,
    DuplicateReport,
    IoFailure,
    MalformedReport,
    MissingMethods,
    RegEvalError,
    UnpairedCases,
)
# MANIFEST_COLUMNS is not used here; it stays importable as
# cli.MANIFEST_COLUMNS for perfbench/workloads.py
from .manifest import MANIFEST_COLUMNS, ZERO_FIELD, Job, read_manifest  # noqa: F401
from .metrics import FixedSide, PairReport, evaluate_pair
from .volio import (
    DisplacementField,
    read_field,
    read_landmarks,
    read_volume,
    scale_field_units,
    write_csv,
    write_nifti,
)
# a module attribute: perfbench/tracer.py times it as cli.write
from .volio import write_json as _write_json
from .warp import ic_residual


def _print(line: str) -> None:
    """Print one line now; a stdout that cannot take it (a closed pipe, say) raises IoFailure."""
    try:
        print(line, flush=True)
    except OSError as exc:
        raise IoFailure(f"could not write stdout: {exc}") from None


class _Shared:
    """What the jobs of one group share: each input and the prepared fixed
    side, made on first use and kept for the rest of the group.  Only what
    was made is kept, so every job that needs a failed input tries it again
    and fails with the message it would get alone."""

    def __init__(self):
        self._made: dict[str, object] = {}

    def get(self, role: str, make, *args, **kwargs):
        if role not in self._made:
            self._made[role] = make(*args, **kwargs)
        return self._made[role]


def _group_key(job: Job) -> tuple:
    """Jobs with the same key differ only in method and field."""
    return (job.fixed_seg, job.moving_seg, job.landmarks_fixed, job.landmarks_moving, job.mask)


def run_job(job: Job, units: str = "voxel", shared: _Shared | None = None) -> PairReport:
    """Load a job's inputs, evaluate the pair, and return the report.

    Inputs are read in the order fixed, moving, field, landmarks, mask.
    ``shared`` keeps every input but the field, and the fixed side, for
    the next job of the same group (``_group_key``); without it the job
    reads all of them itself.
    """
    shared = _Shared() if shared is None else shared
    fixed_seg = shared.get("fixed", read_volume, job.fixed_seg, kind="label")
    moving_seg = shared.get("moving", read_volume, job.moving_seg, kind="label")
    if job.field == ZERO_FIELD:
        phi = DisplacementField.zero(fixed_seg.header)
    else:
        phi = scale_field_units(read_field(job.field), units)
    landmarks = None
    if job.landmarks_fixed and job.landmarks_moving:
        landmarks = shared.get(
            "landmarks",
            lambda: (read_landmarks(job.landmarks_fixed), read_landmarks(job.landmarks_moving)),
        )
    mask = shared.get("mask", read_volume, job.mask, kind="label") if job.mask else None
    return evaluate_pair(
        shared.get("fixed side", FixedSide, fixed_seg, mask=mask),
        moving_seg,
        phi,
        landmarks=landmarks,
        method_id=job.method,
        pair_id=job.pair_id,
    )


def _eval_task(task: tuple) -> list[tuple[Job, dict | str]]:
    """Worker body for jobs of one group: (job, report dict or error
    message) per job.  It reads the inputs and writes nothing."""
    jobs, units = task
    shared = _Shared()
    results = []
    for job in jobs:
        try:
            results.append((job, run_job(job, units=units, shared=shared).to_dict()))
        except Exception as exc:  # per-job isolation: record, never abort others
            results.append((job, f"{type(exc).__name__}: {exc}"))
    return results


def _eval_tasks(job_list: list[Job], units: str, workers: int) -> list[tuple]:
    """The jobs grouped by ``_group_key`` (in order of first appearance),
    each group cut into tasks of at most len(job_list) // workers jobs,
    so that there are at least as many tasks as workers."""
    groups: dict[tuple, list[Job]] = {}
    for job in job_list:
        groups.setdefault(_group_key(job), []).append(job)
    size = max(1, len(job_list) // max(1, workers))
    return [
        (group[i : i + size], units)
        for group in groups.values()
        for i in range(0, len(group), size)
    ]


def cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, not the machine's)."""
    return len(os.sched_getaffinity(0))


def worker_count(requested: int, n_jobs: int) -> int:
    """Eval processes worth starting: no more than the jobs or the usable CPUs."""
    return min(requested, n_jobs, cpu_count())


def cmd_eval(args) -> int:
    """Evaluate every manifest job; one JSON report per job, errors.json
    (written last) for failures and jobs lost with a dead worker.  Workers
    only return results: this is the one writer of ``--out``, a failed write
    stops the run there (IoFailure), and a failed or lost job's error
    replaces the report an earlier run left.  Bytes do not depend on --jobs."""
    if args.jobs < 1:
        raise BadParams(f"--jobs must be at least 1, got {args.jobs}")
    job_list = read_manifest(args.manifest)
    out = Path(args.out)
    workers = worker_count(args.jobs, len(job_list))
    tasks = _eval_tasks(job_list, args.units, workers)
    errors = []

    def record(results: list[tuple[Job, dict | str]]) -> None:
        for job, result in results:
            if isinstance(result, dict):
                _write_json(result, out / job.report_name)
                continue
            errors.append({"method": job.method, "pair_id": job.pair_id, "error": result})
            # a report an earlier run left here would contradict errors.json;
            # where it cannot be removed, writing errors.json fails as well
            with contextlib.suppress(OSError):
                (out / job.report_name).unlink(missing_ok=True)

    if workers <= 1:
        for task in tasks:
            record(_eval_task(task))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # at most `workers` tasks submitted and not recorded: a failed write leaves none queued
            pending = [pool.submit(_eval_task, task) for task in tasks[:workers]]
            recorded = 0
            try:
                while pending:
                    record(pending.pop(0).result())
                    recorded += 1
                    if recorded + len(pending) < len(tasks):
                        pending.append(pool.submit(_eval_task, tasks[recorded + len(pending)]))
            except BrokenProcessPool as exc:
                for lost, _ in tasks[recorded:]:
                    record([(job, f"{type(exc).__name__}: {exc}") for job in lost])
    errors.sort(key=lambda d: (d["method"], d["pair_id"]))
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
    """Every pair report in ``report_dir``; two files for one (method, pair)
    are an error, since a matrix cell would silently keep only one."""
    reports = []
    paths: dict[tuple[str, str], Path] = {}
    for path in sorted(Path(report_dir).glob("*.json")):
        if path.name in ("errors.json", "leaderboard.json"):  # eval's and rank's own outputs
            continue
        report = _read_report(path)
        key = (report.method_id, report.pair_id)
        if key in paths:
            raise DuplicateReport(
                f"reports {paths[key]} and {path} both hold method {key[0]!r} on pair {key[1]!r}"
            )
        paths[key] = path
        reports.append(report)
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


# every metric a report yields, in leaderboard column order
METRICS = {
    "dsc": Metric(ranking.HIGHER_BETTER, "paired", lambda r: r.dsc_mean),
    "dsc30": Metric(ranking.HIGHER_BETTER, "unpaired", _dsc30),
    "hd95": Metric(ranking.LOWER_BETTER, "paired", lambda r: r.hd95_mean),
    "tre": Metric(ranking.LOWER_BETTER, "paired", lambda r: r.tre_mean),
    "tre30": Metric(ranking.LOWER_BETTER, "unpaired", _tre30),
    "ndv": Metric(ranking.LOWER_BETTER, "paired", lambda r: r.ndv),
}
# the metrics whose rank scores the accuracy score pools
ACC_METRICS = ("dsc", "hd95", "tre")

LEADERBOARD_COLUMNS = (
    "method",
    *(f"{m}_{s}" for m in METRICS for s in ("mean", "std")),
    *(f"rank_{m}" for m in ACC_METRICS),
    "acc_score",
    "final_rank",
)


def _metric_table(reports: list[PairReport], metrics) -> tuple[tuple, tuple, dict[str, np.ndarray]]:
    """The sorted method ids, the sorted case ids and, for each metric in
    ``metrics`` (a name may repeat), a methods-by-cases matrix of the
    reports' values, NaN where a report has none.  Each value is read once."""
    for metric in metrics:
        if metric not in METRICS:
            raise MissingMethods(f"unknown metric {metric!r}")
    row = {m: i for i, m in enumerate(sorted({r.method_id for r in reports}))}
    col = {c: j for j, c in enumerate(sorted({r.pair_id for r in reports}))}
    table = {m: np.full((len(row), len(col)), np.nan) for m in metrics}
    for r in reports:
        for metric, matrix in table.items():
            if (v := METRICS[metric].value(r)) is not None:
                matrix[row[r.method_id], col[r.pair_id]] = v
    return tuple(row), tuple(col), table


def cmd_rank(args) -> int:
    """Build the leaderboard CSV and rank JSON from a report directory.

    The accuracy score pools the requested ``ACC_METRICS``, tre only when
    every report has landmark results; further requested metrics (e.g. ndv)
    are ranked and reported but stay out of the accuracy score.
    """
    metrics = list(dict.fromkeys(m.strip() for m in args.metrics.split(",") if m.strip()))
    reports = load_reports(args.report_dir)
    # every metric's values, read once for the matrices and the CSV; an unknown name stops here
    methods, cases, values = _metric_table(reports, [*METRICS, *metrics])
    have_tre = all(r.tre_mean is not None for r in reports)
    usable = [m for m in metrics if m != "tre" or have_tre]
    matrices = [
        ranking.MetricMatrix(m, METRICS[m].direction, methods, cases, values[m], METRICS[m].pairing)
        for m in usable
    ]
    acc_metrics = [m for m in ACC_METRICS if m in usable]
    if not acc_metrics:
        raise MissingMethods(
            f"accuracy ranking needs {'/'.join(ACC_METRICS)} among metrics {metrics}"
        )
    table, scores = ranking.rank_methods(matrices, acc_metrics, alpha=args.alpha)

    board = []
    for row in table.rows:
        i = methods.index(row.method)
        # the method's cohort values: its row of each matrix without the NaNs
        present = {m: v[i][~np.isnan(v[i])] for m, v in values.items()}
        cohort = stats.summarize_cohort({m: v for m, v in present.items() if v.size})
        cells = [row.method]
        cells += [s.get(m) for m in METRICS for s in (cohort.means, cohort.stds)]
        cells += [row.rank_scores.get(m) for m in ACC_METRICS]
        board.append(cells + [row.acc_score, row.final_rank])
    out = Path(args.out)
    csv_path = out / "leaderboard.csv"
    write_csv(csv_path, LEADERBOARD_COLUMNS, board)

    rank_json = {
        "alpha": args.alpha,
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
    _print(f"leaderboard written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# inverse consistency, correlation, bench


def cmd_ic(args) -> int:
    phi_ab = scale_field_units(read_field(args.fwd), args.units)
    phi_ba = scale_field_units(read_field(args.bwd), args.units)
    mask_vol = read_volume(args.mask, kind="label") if args.mask else None
    mae, _ = ic_residual(phi_ab, phi_ba, mask=mask_vol, norm=args.norm)
    _print(f"ic_mae_voxels {mae!r}")
    if args.out:
        _write_json({"ic_mae": mae, "norm": args.norm, "fwd": args.fwd, "bwd": args.bwd}, args.out)
    return 0


def cmd_correlate(args) -> int:
    """Per-method correlation between two per-case metrics, as CSV rows
    method,n_cases,r,slope,intercept,note."""
    reports = load_reports(args.report_dir)
    methods, _, table = _metric_table(reports, [args.x_metric, args.y_metric])
    x, y = table[args.x_metric], table[args.y_metric]
    rows = []
    for method, xr, yr in zip(methods, x, y):
        both = ~(np.isnan(xr) | np.isnan(yr))
        xs, ys = xr[both], yr[both]
        try:
            fit = stats.pearson_fit(xs, ys)
            rows.append([method, len(xs), fit.r, fit.slope, fit.intercept, "ok"])
        except RegEvalError:
            rows.append([method, len(xs), None, None, None, "degenerate"])
    write_csv(args.out, ["method", "n_cases", "r", "slope", "intercept", "note"], rows)
    _print(f"correlation table written to {args.out}")
    return 0


def bench_job(job: Job, repeats: int = 10, units: str = "voxel") -> dict:
    """Wall-clock samples of the full job: file reads, evaluation, report
    write.  Matches the runtime protocol of timing on CPU including I/O."""
    if repeats < 1:
        raise BadParams(f"repeats must be at least 1, got {repeats}")
    samples = []
    import scipy.spatial  # noqa: F401  (HD95's fallback KD-trees: no timed job imports them)
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = run_job(job, units=units)
            _write_json(report.to_dict(), Path(tmp) / job.report_name)
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


def cmd_bench(args) -> int:
    jobs = read_manifest(args.manifest)
    if not (0 <= args.row < len(jobs)):
        raise UnpairedCases(f"row {args.row} outside manifest with {len(jobs)} jobs")
    result = bench_job(jobs[args.row], repeats=args.repeats, units=args.units)
    _print(
        f"{result['method']} {result['pair_id']}: mean {result['mean_s']:.3f} s, "
        f"std {result['std_s']:.3f} s over {result['repeats']} runs"
    )
    if args.out:
        _write_json(result, args.out)
    return 0


# ---------------------------------------------------------------------------
# synth and register


def cmd_synth(args) -> int:
    # the options given, under make_cohort's names; it owns the defaults of the rest
    names = ("seed", "dims", "label_count", "amplitude", "smoothness", "gzip_files")
    given = {name: getattr(args, name) for name in names if name in args}
    manifest = synth.make_cohort(args.out, cases=args.cases, **given)
    _print(f"cohort with {len(manifest['cases'])} cases written to {args.out}")
    return 0


def _reg_config(args) -> refreg.RegConfig:
    """The optimizer settings of the register options given, RegConfig's
    defaults for the rest; BadParams if --iters does not parse or a value
    fails a RegConfig check."""
    given = {f.name: getattr(args, f.name) for f in fields(refreg.RegConfig) if f.name in args}
    if (iters := given.get("iters_per_level")) is not None:
        try:
            given["iters_per_level"] = tuple(int(x) for x in iters.split(","))
        except ValueError:
            raise BadParams(f"--iters must be comma-separated integers, got {iters!r}") from None
    return refreg.RegConfig(**given)


def cmd_register(args) -> int:
    cfg = _reg_config(args)
    fixed = read_volume(args.fixed, kind="scalar")
    moving = read_volume(args.moving, kind="scalar")
    init = scale_field_units(read_field(args.init), args.units) if args.init else None
    field, trace = refreg.register(fixed, moving, cfg, init=init)
    final_loss = trace[-1][-1] if trace[-1] else refreg.loss(fixed, moving, field, cfg)
    write_nifti(field, args.out, use_gzip=str(args.out).endswith(".gz"))  # kept if stdout fails
    if init is None:
        _print(f"registration done over {len(trace)} levels, final loss {final_loss!r}")
    else:
        _print(f"instance optimization done, loss {final_loss!r}")
    _print(f"field written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """The ``regeval`` parser.  Each subcommand carries its handler and what
    ``--out`` names for it (a DIR, a FILE, or None where ``--out`` is
    optional).  Handlers are looked up when the parser is built, so a
    handler replaced on this module (as a tracer does) is the one called."""
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
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, out_kind, help, argument_default=None):
        p = sub.add_parser(name, help=help, argument_default=argument_default)
        p.set_defaults(handler=handler, out_kind=out_kind)
        return p

    p_eval = command("eval", cmd_eval, "DIR", "evaluate manifest jobs into JSON reports")
    p_eval.add_argument("manifest")

    p_rank = command("rank", cmd_rank, "DIR", "leaderboard from a report directory")
    p_rank.add_argument("report_dir")
    p_rank.add_argument("--metrics", default=",".join(ACC_METRICS), help="comma list to rank")
    p_rank.add_argument("--alpha", type=float, default=0.05)

    p_ic = command("ic", cmd_ic, None, "inverse-consistency residual of two fields")
    p_ic.add_argument("fwd")
    p_ic.add_argument("bwd")
    p_ic.add_argument("--mask", default=None)
    p_ic.add_argument("--norm", choices=("euclidean", "component"), default="euclidean")

    p_corr = command("correlate", cmd_correlate, "FILE", "per-method metric correlation")
    p_corr.add_argument("report_dir")
    p_corr.add_argument("x_metric")
    p_corr.add_argument("y_metric")

    p_bench = command("bench", cmd_bench, None, "repeat-timing of one manifest job")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--row", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=10)

    # register and synth pass on only the options given: RegConfig and
    # make_cohort own the defaults, so these options have none
    p_synth = command("synth", cmd_synth, "DIR", "write a synthetic cohort", argparse.SUPPRESS)
    p_synth.add_argument("--cases", type=int, default=8)
    p_synth.add_argument("--dims", type=int, nargs=3)
    p_synth.add_argument("--labels", type=int, dest="label_count")
    p_synth.add_argument("--amplitude", type=float)
    p_synth.add_argument("--smoothness", type=float)
    p_synth.add_argument("--gzip", action="store_true", dest="gzip_files")

    p_reg = command(
        "register", cmd_register, "FILE", "optimize a field aligning moving to fixed", argparse.SUPPRESS
    )
    p_reg.add_argument("fixed")
    p_reg.add_argument("moving")
    p_reg.add_argument("--iters", dest="iters_per_level", help="iterations per level, coarsest first")
    p_reg.add_argument("--step-size", type=float)
    p_reg.add_argument("--lambda-diffusion", type=float)
    p_reg.add_argument("--window", type=int, dest="lncc_window")
    p_reg.add_argument("--parameterization", choices=(refreg.DISPLACEMENT, refreg.SVF))
    p_reg.add_argument("--squarings", type=int)
    p_reg.add_argument("--sigma", type=float, dest="update_smoothing_sigma")
    p_reg.add_argument("--init", default=None, help="initial field for instance optimization")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out_kind and not args.out:
            parser.error(f"{args.command} requires --out {args.out_kind}")
        return args.handler(args)
    except RegEvalError as exc:
        with contextlib.suppress(OSError):  # a closed stderr, as below
            print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # what a closed stdout or stderr still buffers goes to devnull: the flush at exit keeps the code
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                with open(os.devnull, "wb") as devnull:
                    os.dup2(devnull.fileno(), stream.fileno())


if __name__ == "__main__":
    sys.exit(main())
