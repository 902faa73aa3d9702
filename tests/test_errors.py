"""The failure contract: every error the library raises is a RegEvalError."""
import ast
from pathlib import Path

import numpy as np
import pytest

from regeval import errors
from regeval.metrics import lncc
from regeval.ranking import MetricMatrix
from regeval.refreg import RegConfig
from regeval.volio import AffineHeader, DisplacementField, Volume, scale_field_units
from regeval.warp import VelocityField, exp_svf, ic_residual, sample_trilinear

SRC = Path(__file__).resolve().parent.parent / "src" / "regeval"

# the parse errors of a report dict, which cli._read_report turns into MalformedReport
PARSE_ERRORS = {("metrics.py", "from_dict"), ("metrics.py", "_metric_value")}


def _builtin_raises(path: Path) -> list[tuple[str, str, int]]:
    """(file, enclosing function, line) of every ``raise`` of a builtin
    ValueError or TypeError in one source file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.append((path.name, function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_library_raises_no_builtin_value_or_type_error():
    found = [site for path in sorted(SRC.glob("*.py")) for site in _builtin_raises(path)]
    assert [site for site in found if site[:2] not in PARSE_ERRORS] == []
    assert {site[:2] for site in found} == PARSE_ERRORS


HEADER = AffineHeader.isotropic((4, 4, 4))


def _field():
    return DisplacementField(header=HEADER, data=np.zeros((4, 4, 4, 3)))


def _scalar(kind="scalar"):
    return Volume(header=HEADER, kind=kind, data=np.zeros((4, 4, 4)))


def _matrix(**changes):
    kwargs = dict(metric_id="dsc", direction="higher", methods=("a", "b"), cases=("c",),
                  values=np.ones((2, 1)))
    return MetricMatrix(**{**kwargs, **changes})


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: sample_trilinear(_scalar(), [0.0, np.nan, 1.0]), errors.NonFiniteCoordinate,
                     id="sample_trilinear-points"),
        pytest.param(lambda: exp_svf(VelocityField(HEADER, _field().data), squarings=-1), errors.BadParams,
                     id="exp_svf-squarings"),
        pytest.param(lambda: ic_residual(_field(), _field(), norm="l1"), errors.BadParams,
                     id="ic_residual-norm"),
        pytest.param(lambda: RegConfig(iters_per_level=()), errors.BadParams, id="RegConfig-no-levels"),
        pytest.param(lambda: RegConfig(iters_per_level=(3, -1)), errors.BadParams, id="RegConfig-iters"),
        pytest.param(lambda: RegConfig(step_size=0.0), errors.BadParams, id="RegConfig-step_size"),
        pytest.param(lambda: RegConfig(lambda_diffusion=np.nan), errors.BadParams, id="RegConfig-lambda"),
        pytest.param(lambda: RegConfig(lncc_window=4), errors.BadParams, id="RegConfig-lncc_window"),
        pytest.param(lambda: RegConfig(parameterization="affine"), errors.BadParams,
                     id="RegConfig-parameterization"),
        pytest.param(lambda: RegConfig(squarings=1024), errors.BadParams, id="RegConfig-squarings"),
        pytest.param(lambda: RegConfig(update_smoothing_sigma=np.inf), errors.BadParams, id="RegConfig-sigma"),
        pytest.param(lambda: lncc(_scalar(), _scalar(), window=0), errors.BadParams, id="lncc-window"),
        pytest.param(lambda: _scalar(kind="vector"), errors.UnsupportedLayout, id="Volume-kind"),
        pytest.param(lambda: scale_field_units(_field(), "cm"), errors.BadParams, id="scale_field_units-units"),
        pytest.param(lambda: _matrix(direction="up"), errors.BadParams, id="MetricMatrix-direction"),
        pytest.param(lambda: _matrix(pairing="matched"), errors.BadParams, id="MetricMatrix-pairing"),
        pytest.param(lambda: _matrix(values=np.ones((2, 2))), errors.BadParams, id="MetricMatrix-shape"),
        pytest.param(lambda: _matrix(methods=("a", "a")), errors.BadParams, id="MetricMatrix-methods"),
    ],
)
def test_bad_input_raises_a_regeval_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, errors.RegEvalError)
    if error is errors.BadParams:  # callers that catch ValueError still catch it
        assert isinstance(info.value, ValueError)
