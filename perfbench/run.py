"""regeval benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {eval-large,eval-cohort,register,rank}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: set-up time (median of the
workload's set-up repetitions), the median wall time of a pass of
``regeval`` commands run as child processes (interpreter start-up and
file I/O included), jobs per second and peak resident memory.  Passes
repeat until their wall times add up to ``--seconds``.

``--trace 1`` is a separate in-process run at ``--jobs 1``: one set-up and
one pass with the tracer installed, plus one untraced pass for the tracing
overhead.  It reports the per-layer metrics and writes the spans to
``.bench_out/trace-<workload>-<seed>.json``.

Every pass's outputs are checked against analytic facts of the inputs; the
last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Earlier lines carry a ``record`` object with the environment and the raw
samples.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Set-up repetitions per run; the two eval workloads set up once because a
# set-up of theirs costs as much as a timed pass or more.
SETUP_REPS = {"eval-large": 1, "eval-cohort": 1, "register": 3, "rank": 5}

# a run must end within 180 s; the slowest command, a registration, takes
# about 45 s on a 2-core machine
CHILD_TIMEOUT_S = 150

PAGE_CACHE_NOTE = (
    "input files are read back from the page cache: set-up writes them just "
    "before the timed passes and the benchmark may not drop caches"
)


def fail_usage(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cache_sizes() -> dict:
    """Per-instance cache sizes and instance counts from sysfs, in KiB."""
    found: dict = {}
    base = Path("/sys/devices/system/cpu")
    for index in sorted(base.glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        entry = found.setdefault(f"L{level}", {"kib": int(size.rstrip("K")), "instances": set()})
        entry["instances"].add(shared)
    return {k: {"kib": v["kib"], "instances": len(v["instances"])} for k, v in found.items()}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload) -> dict:
    import numpy
    import scipy

    caches = cache_sizes()
    desc, nbytes = workload.largest_array
    l2 = caches.get("L2", {}).get("kib", 0) * 1024
    l3 = caches.get("L3", {}).get("kib", 0) * 1024
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "caches": caches,
        "largest_array": {
            "what": desc,
            "mib": nbytes / 2**20,
            "x_l2_per_core": nbytes / l2 if l2 else None,
            "x_l3": nbytes / l3 if l3 else None,
        },
        "page_cache": PAGE_CACHE_NOTE,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(argv: list[str]) -> int:
    """Run one ``regeval`` command; a command that outlives CHILD_TIMEOUT_S is
    killed together with its eval workers and counts as failed."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S} s\n"
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
    return proc.returncode


def run_in_process(argv: list[str]) -> int:
    import child

    try:
        with contextlib.redirect_stdout(sys.stderr):
            return child.main(argv)
    except Exception:  # a crash is a failed operation, not a crashed benchmark
        traceback.print_exc()
        return 1


def reset_caches() -> None:
    """Drop regeval's grid caches so that an in-process pass starts as cold
    as a fresh ``regeval`` process does."""
    from regeval import refreg, warp

    for module, name in ((warp, "_cached_grid"), (refreg, "_grid32")):
        cached = getattr(module, name, None)
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def timed_setup(workload, d: Path, seed: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    inputs = workload.setup(d, seed)
    return inputs, time.perf_counter() - t0


def end_to_end(workload, work: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    inputs, first = timed_setup(workload, work / "inputs", seed)
    setup_times = [first]
    reset_caches()  # set-up's grids are not needed by the child processes

    def repeat_setup():
        # extra set-ups go between passes, so that the median samples the
        # whole run rather than one moment of a machine whose speed drifts
        d = work / f"setup{len(setup_times)}"
        setup_times.append(timed_setup(workload, d, seed)[1])
        shutil.rmtree(d)
        reset_caches()

    walls: list[float] = []
    attempted = failed = 0
    while not walls or sum(walls) < seconds:
        out = work / f"pass{len(walls)}"
        argvs = workload.passes(inputs, out, nproc())
        t0 = time.perf_counter()
        rcs = [run_child(argv) for argv in argvs]
        walls.append(time.perf_counter() - t0)
        a, f, _ = workload.check(inputs, out, rcs)
        attempted, failed = attempted + a, failed + f
        shutil.rmtree(out, ignore_errors=True)
        if len(setup_times) < SETUP_REPS[workload.name]:
            repeat_setup()
    while len(setup_times) < SETUP_REPS[workload.name]:
        repeat_setup()
    wall = statistics.median(walls)
    # ru_maxrss of reaped children: the largest single process of the
    # workload's process tree (the command, or one of its eval workers)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (workload.jobs_per_pass / wall, "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    record = {"setup_s_samples": setup_times, "wall_s_samples": walls, "passes": len(walls)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def unit_of(name: str) -> str:
    if name.endswith((".s", "self_s", "_s")):
        return "s"
    if name.endswith((".mb", ".mb_computed")):
        return "MB"
    if name.endswith(".mcells"):
        return "Mcells"
    if name.endswith(("ratio", "share", "_frac", "_dsc")):
        return "ratio"
    if name == "register_tre_mm":
        return "mm"
    return "count"


def traced(workload, work: Path, seed: int) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        inputs, _ = timed_setup(workload, work / "inputs", seed)
    finally:
        tracer.uninstall()

    walls = {}
    attempted = failed = 0
    accuracy: dict = {}
    for label in ("untraced", "traced"):
        out = work / label
        argvs = workload.passes(inputs, out, 1)
        reset_caches()
        if label == "traced":
            tracer.install()
        try:
            t0 = time.perf_counter()
            rcs = [run_in_process(argv) for argv in argvs]
            walls[label] = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        a, f, accuracy = workload.check(inputs, out, rcs)
        attempted, failed = attempted + a, failed + f

    values = layer_metrics(tracer.spans)
    values.update({
        "trace.wall_s": walls["traced"],
        "trace.untraced_wall_s": walls["untraced"],
        "trace.overhead_s": walls["traced"] - walls["untraced"],
        "trace.spans": len(tracer.spans),
        "trace.absent": len(tracer.absent),
        "failed_frac": failed / attempted,
        "register_dsc": accuracy.get("register_dsc", 0.0),
        "register_tre_mm": accuracy.get("register_tre_mm", 0.0),
    })
    out_dir = ROOT / ".bench_out"
    tracer.write(out_dir / f"trace-{workload.name}-{seed}.json")
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    record = {"absent_bindings": tracer.absent, "not_applicable": sorted(
        name for name in ("register_dsc", "register_tre_mm") if name not in accuracy
    )}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result, record = traced(workload, work, args.seed)
        else:
            result, record = end_to_end(workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(workload),
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "regeval" / "__init__.py").is_file():
        fail_usage(f"no regeval sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import regeval

    if Path(regeval.__file__).resolve().parent != SRC / "regeval":
        fail_usage(f"imported regeval from {regeval.__file__}, not from {SRC}")
    sys.exit(main())
