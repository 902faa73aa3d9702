"""``perfbench/tracer.py`` times regeval by swapping module attributes by
name, and a binding whose name regeval no longer defines is skipped without
an error, so its per-layer metric reads 0.  This pins the list of absent
bindings: a rename that blanks one more metric fails here."""
import importlib.util
from pathlib import Path

from regeval import refreg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# bindings the tracer declares that regeval does not define, in its order
ABSENT = [
    "refreg._box_sum",
    "refreg._exp_velocity",
    "refreg._loss_only",
    "refreg._warp_only",
    "refreg._diffusion_value_and_grad",
    "ranking.wilcoxon_signed_rank",
    "ranking.mann_whitney_u",
]


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_absent_bindings_are_the_declared_ones():
    tracer = load_tracer_module().Tracer()
    original = refreg._loss_and_grad
    try:
        tracer.install()  # wraps the present bindings; nothing is called
        assert refreg._loss_and_grad is not original
        absent = tracer.absent
    finally:
        tracer.uninstall()
    assert refreg._loss_and_grad is original
    assert absent == ABSENT
