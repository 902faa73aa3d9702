"""In-memory span tracer that wraps regeval's cross-module call sites.

Each binding names a module attribute that regeval code looks up at call
time (``regeval.cli.read_volume`` is the name ``cli.run_job`` calls, not
``regeval.volio.read_volume``).  Installing the tracer swaps those
attributes for thin wrappers that record a span (name, start, end, parent)
and a few computed annotations; uninstalling restores the originals.  No
file under ``src/regeval`` changes.

Spans stay in memory and are written once, at the end of the run.  Spans
from forked worker processes would be lost, which is why traced runs
evaluate in-process with ``--jobs 1``.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path

import numpy as np


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _read_attrs(args, kwargs, result) -> dict:
    path = str(args[0])
    return {"path": os.path.realpath(path), "mb": _file_mb(path)}


def _write_attrs(args, kwargs, result) -> dict:
    return {"mb": _file_mb(args[1])}


def _trilinear_attrs(args, kwargs, result) -> dict:
    data, points = np.asarray(args[0]), np.asarray(args[1])
    n = int(points.shape[0])
    channels = int(np.prod(data.shape[3:], dtype=np.int64)) if data.ndim > 3 else 1
    # computed, not measured: eight corner gathers of every channel, the
    # (n, 3) float64 points read once and the (n, channels) result written
    moved = n * channels * data.itemsize * 9 + n * 3 * 8
    return {"points": n, "mb_computed": moved / 1e6}


def _ndv_attrs(args, kwargs, result) -> dict:
    dims = np.asarray(args[0].dims, dtype=np.int64)
    return {"mcells": float(np.prod(dims - 1)) / 1e6}


def _test_attrs(args, kwargs, result) -> dict:
    return {"exact": result.method == "exact"}


def _level_attrs(args, kwargs, result) -> dict:
    return {"iters": len(result[1])}


def _reports_attrs(args, kwargs, result) -> dict:
    return {"files": len(result)}


# (module under regeval, attribute the caller looks up, span name, annotator)
BINDINGS = (
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_rank", "cli.rank", None),
    ("cli", "cmd_register", "cli.register", None),
    ("cli", "cmd_synth", "cli.synth", None),
    ("cli", "run_job", "cli.run_job", None),
    ("cli", "_write_json", "cli.write", None),
    ("cli", "load_reports", "cli.load_reports", _reports_attrs),
    ("cli", "read_volume", "volio.read", _read_attrs),
    ("cli", "read_field", "volio.read", _read_attrs),
    ("cli", "read_landmarks", "volio.read", _read_attrs),
    ("cli", "write_nifti", "volio.write", _write_attrs),
    ("cli", "evaluate_pair", "metrics.evaluate_pair", None),
    ("synth", "write_nifti", "volio.write", _write_attrs),
    ("synth", "write_landmarks", "volio.write", _write_attrs),
    # the benchmark's own set-up writes go through the volio module itself
    ("volio", "write_nifti", "volio.write", _write_attrs),
    ("volio", "write_landmarks", "volio.write", _write_attrs),
    ("metrics", "warp_labels", "warp.warp_labels", None),
    ("metrics", "dsc", "metrics.dsc", None),
    ("metrics", "_hd95_many", "metrics.hd95", None),
    ("metrics", "ndv", "metrics.ndv", _ndv_attrs),
    ("metrics", "tre", "metrics.tre", None),
    ("warp", "_trilinear", "warp.trilinear", _trilinear_attrs),
    ("refreg", "_trilinear", "warp.trilinear", _trilinear_attrs),
    ("refreg", "_box_sum", "metrics.box_sum", None),
    ("refreg", "register", "refreg.register", None),
    ("refreg", "_optimize_level", "refreg.level", _level_attrs),
    ("refreg", "_exp_velocity", "refreg.exp", None),
    ("refreg", "_loss_and_grad", "refreg.loss_grad", None),
    ("refreg", "_loss_only", "refreg.loss", None),
    ("refreg", "_warp_with_grad", "refreg.warp_grad", None),
    ("refreg", "_warp_only", "refreg.warp", None),
    ("refreg", "gaussian_filter", "refreg.smooth", None),
    ("refreg", "_diffusion_value_and_grad", "refreg.diffusion", None),
    ("refreg", "_diffusion_value", "refreg.diffusion", None),
    ("ranking", "rank_methods", "ranking.rank_methods", None),
    ("ranking", "pairwise_wins", "ranking.pairwise_wins", None),
    ("ranking", "wilcoxon_signed_rank", "stats.wilcoxon", _test_attrs),
    ("ranking", "mann_whitney_u", "stats.mann_whitney", _test_attrs),
    ("stats", "summarize_cohort", "stats.summarize", None),
    ("synth", "make_phantom", "synth.make_phantom", None),
    ("synth", "make_velocity", "synth.make_velocity", None),
    ("synth", "make_pair", "synth.make_pair", None),
    ("synth", "make_cohort", "synth.make_cohort", None),
)


class Tracer:
    """Records spans for every present binding while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    def _wrap(self, fn, name, annotate):
        tracer = self

        def traced(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "start": time.perf_counter() - tracer._epoch,
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - tracer._epoch
                tracer._stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            return
        self.absent = []
        for mod_name, attr, name, annotate in BINDINGS:
            module = importlib.import_module(f"regeval.{mod_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, annotate))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({"absent": self.absent, "spans": self.spans}) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans nest on one thread, so direct children never overlap and their
    durations add up to the covered part of the parent's interval.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers from one traced run's spans."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def total(name, key):
        # a call that raised has no annotations
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def share(name, key):
        n = calls(name)
        return sum(1 for s in by_name.get(name, ()) if s.get(key)) / n if n else 0.0

    own = self_times(spans)

    def layer_self(layer):
        return sum(t for s, t in zip(spans, own) if s["name"].split(".")[0] == layer)

    reads = by_name.get("volio.read", [])
    distinct = len({s["path"] for s in reads if "path" in s})
    levels = [s.get("iters", 0) for s in by_name.get("refreg.level", [])]
    iters = sum(levels)
    trial_losses = calls("refreg.loss") - len(levels)  # one initial loss per level
    m = {
        "volio.read.calls": calls("volio.read"),
        "volio.read.s": secs("volio.read"),
        "volio.read.mb": total("volio.read", "mb"),
        "volio.read.repeat_ratio": len(reads) / distinct if distinct else 0.0,
        "volio.write.calls": calls("volio.write"),
        "volio.write.s": secs("volio.write"),
        "volio.write.mb": total("volio.write", "mb"),
        "warp.warp_labels.calls": calls("warp.warp_labels"),
        "warp.warp_labels.s": secs("warp.warp_labels"),
        "warp.trilinear.calls": calls("warp.trilinear"),
        "warp.trilinear.points": total("warp.trilinear", "points"),
        "warp.trilinear.s": secs("warp.trilinear"),
        "warp.trilinear.mb_computed": total("warp.trilinear", "mb_computed"),
        "metrics.evaluate_pair.calls": calls("metrics.evaluate_pair"),
        "metrics.evaluate_pair.s": secs("metrics.evaluate_pair"),
        "metrics.hd95.s": secs("metrics.hd95"),
        "metrics.ndv.s": secs("metrics.ndv"),
        "metrics.ndv.mcells": total("metrics.ndv", "mcells"),
        "metrics.dsc.s": secs("metrics.dsc"),
        "metrics.tre.s": secs("metrics.tre"),
        "metrics.box_sum.calls": calls("metrics.box_sum"),
        "metrics.box_sum.s": secs("metrics.box_sum"),
        "refreg.register.s": secs("refreg.register"),
        "refreg.exp.calls": calls("refreg.exp"),
        "refreg.exp.s": secs("refreg.exp"),
        "refreg.warp_grad.s": secs("refreg.warp_grad"),
        "refreg.warp.s": secs("refreg.warp"),
        "refreg.smooth.s": secs("refreg.smooth"),
        "refreg.diffusion.s": secs("refreg.diffusion"),
        "refreg.self_s": layer_self("refreg"),
        "refreg.iters": iters,
        "refreg.grad_evals": calls("refreg.loss_grad"),
        "refreg.loss_evals": calls("refreg.loss"),
        "refreg.line_search.accept_ratio": iters / trial_losses if trial_losses > 0 else 0.0,
        "stats.wilcoxon.calls": calls("stats.wilcoxon"),
        "stats.wilcoxon.s": secs("stats.wilcoxon"),
        "stats.wilcoxon.exact_share": share("stats.wilcoxon", "exact"),
        "stats.mann_whitney.calls": calls("stats.mann_whitney"),
        "stats.mann_whitney.s": secs("stats.mann_whitney"),
        "stats.mann_whitney.exact_share": share("stats.mann_whitney", "exact"),
        "stats.summarize.s": secs("stats.summarize"),
        "ranking.rank_methods.s": secs("ranking.rank_methods"),
        "ranking.tests": calls("stats.wilcoxon") + calls("stats.mann_whitney"),
        "ranking.self_s": layer_self("ranking"),
        "cli.run_job.calls": calls("cli.run_job"),
        "cli.run_job.s": secs("cli.run_job"),
        "cli.write.s": secs("cli.write"),
        "cli.load_reports.files": total("cli.load_reports", "files"),
        "cli.load_reports.s": secs("cli.load_reports"),
        "cli.self_s": layer_self("cli"),
        "synth.make_phantom.s": secs("synth.make_phantom"),
        "synth.make_velocity.s": secs("synth.make_velocity"),
        "synth.make_pair.s": secs("synth.make_pair"),
        "synth.make_cohort.s": secs("synth.make_cohort"),
    }
    for i in range(3):
        m[f"refreg.iters.level{i}"] = levels[i] if i < len(levels) else 0
    return m


# Counts that later changes may name in advance; a traced run of the same
# seed must reproduce them bit for bit.
EXACT_COUNTS = (
    "warp.trilinear.calls",
    "warp.trilinear.points",
    "warp.trilinear.mb_computed",
    "metrics.ndv.mcells",
    "volio.read.calls",
    "volio.read.repeat_ratio",
    "ranking.tests",
    "stats.wilcoxon.exact_share",
    "stats.mann_whitney.exact_share",
    "refreg.iters",
    "refreg.iters.level0",
    "refreg.iters.level1",
    "refreg.iters.level2",
    "refreg.grad_evals",
    "refreg.loss_evals",
    "refreg.line_search.accept_ratio",
)
