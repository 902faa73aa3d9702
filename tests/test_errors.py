"""The failure contract: every error the library raises is a RegEvalError."""
import ast
from pathlib import Path

import numpy as np
import pytest

from regeval import errors, warp
from regeval.metrics import lncc
from regeval.ranking import MetricMatrix, aggregate
from regeval.refreg import RegConfig
from regeval.stats import mean_std, pearson_fit
from regeval.synth import PhantomSpec, Svf, make_field, make_phantom, make_velocity
from regeval.volio import AffineHeader, DisplacementField, LandmarkSet, Volume, scale_field_units
from regeval.warp import VelocityField, exp_svf, ic_residual, sample_trilinear, warp_image, warp_labels

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
        pytest.param(lambda: make_phantom(PhantomSpec(dims=(8, 8, 8), seed=-1)), errors.SpecInvalid,
                     id="make_phantom-seed"),
        pytest.param(lambda: make_velocity(Svf(seed=-3, amplitude=1.0), (8, 8, 8)), errors.BadParams,
                     id="make_velocity-seed"),
        pytest.param(lambda: _scalar(kind="vector"), errors.UnsupportedLayout, id="Volume-kind"),
        pytest.param(lambda: scale_field_units(_field(), "cm"), errors.BadParams, id="scale_field_units-units"),
        pytest.param(lambda: _matrix(direction="up"), errors.BadParams, id="MetricMatrix-direction"),
        pytest.param(lambda: _matrix(pairing="matched"), errors.BadParams, id="MetricMatrix-pairing"),
        pytest.param(lambda: _matrix(values=np.ones((2, 2))), errors.BadParams, id="MetricMatrix-shape"),
        pytest.param(lambda: _matrix(methods=("a", "a")), errors.BadParams, id="MetricMatrix-methods"),
        pytest.param(lambda: AffineHeader((4, 0, 4), (1.0, 1.0, 1.0), np.eye(4)), errors.UnsupportedLayout,
                     id="AffineHeader-dims"),
        pytest.param(lambda: AffineHeader((4, 4, 4), (1.0, -1.0, 1.0), np.eye(4)), errors.UnsupportedLayout,
                     id="AffineHeader-spacing"),
        pytest.param(lambda: Volume(HEADER, "scalar", np.zeros((4, 4, 5))), errors.UnsupportedLayout,
                     id="Volume-shape"),
        pytest.param(lambda: DisplacementField(HEADER, np.zeros((4, 4, 4))), errors.UnsupportedLayout,
                     id="DisplacementField-shape"),
        pytest.param(lambda: VelocityField(HEADER, np.zeros((4, 4, 4, 2))), errors.UnsupportedLayout,
                     id="VelocityField-shape"),
        pytest.param(lambda: LandmarkSet(("a", "b"), np.zeros((1, 3))), errors.MalformedRow, id="LandmarkSet-shape"),
        pytest.param(lambda: LandmarkSet(("a", "a"), np.zeros((2, 3))), errors.DuplicateName, id="LandmarkSet-names"),
        pytest.param(lambda: LandmarkSet(("a",), [[0.0, np.inf, 1.0]]), errors.NonFiniteCoordinate,
                     id="LandmarkSet-points"),
        pytest.param(lambda: sample_trilinear(_scalar("label"), [0.0, 0.0, 0.0]), errors.UnsupportedLayout,
                     id="sample_trilinear-label"),
        pytest.param(lambda: ic_residual(_field(), _field(), mask=np.ones((3, 4, 4))), errors.DimMismatch,
                     id="ic_residual-mask"),
        pytest.param(lambda: warp_image(_scalar("label"), _field()), errors.UnsupportedLayout, id="warp_image-kind"),
        pytest.param(lambda: warp_labels(_scalar(), _field()), errors.UnsupportedLayout, id="warp_labels-kind"),
        pytest.param(lambda: warp._Workspace((8, 8, 8), (8, 8, 8)).load(np.zeros((4, 4, 4))), errors.DimMismatch,
                     id="Workspace-load"),
        pytest.param(lambda: aggregate({"dsc": {"a": 1.0}}, ["dsc", "hd95"]), errors.InconsistentMethodSets,
                     id="aggregate-missing"),
        pytest.param(lambda: aggregate({"dsc": {"a": 1.0}}, []), errors.InconsistentMethodSets, id="aggregate-empty"),
        pytest.param(lambda: mean_std([]), errors.EmptyInput, id="mean_std-empty"),
        pytest.param(lambda: pearson_fit([1.0, 2.0], [1.0, 2.0, 3.0]), errors.LengthMismatch, id="pearson_fit-lengths"),
        pytest.param(lambda: pearson_fit([1.0], [2.0]), errors.EmptyInput, id="pearson_fit-one-point"),
        pytest.param(lambda: make_phantom(PhantomSpec(dims=(8, 8, 8), label_count=3, semi_axes=((3.0, 3.0, 3.0),))),
                     errors.SpecInvalid, id="PhantomSpec-semi_axes"),
        pytest.param(lambda: make_field(object(), (4, 4, 4)), errors.BadParams, id="make_field-kind"),
    ],
)
def test_bad_input_raises_a_regeval_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, errors.RegEvalError)
    if error is errors.BadParams:  # callers that catch ValueError still catch it
        assert isinstance(info.value, ValueError)
