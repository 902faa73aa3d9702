"""regeval: deformable-registration evaluation, ranking, and reference
optimization on voxel grids.

The package splits into small, composable layers:

* :mod:`regeval.volio`   NIfTI-1 subset and landmark CSV I/O
* :mod:`regeval.warp`    displacement-field algebra and SVF exponentials
* :mod:`regeval.metrics` DSC / HD95 / TRE / NDV / LNCC and pair reports
* :mod:`regeval.stats`   percentiles, robustness stats, significance tests
* :mod:`regeval.ranking` pairwise-win leaderboard construction
* :mod:`regeval.manifest` the evaluation job manifest (CSV)
* :mod:`regeval.synth`   phantoms and ground-truth cohorts
* :mod:`regeval.refreg`  reference LNCC + diffusion registration
* :mod:`regeval.cli`     the ``regeval`` command
"""

from .errors import RegEvalError
from .metrics import FixedSide, PairReport, dsc, evaluate_pair, hd95, lncc, ndv, tre
from .ranking import MetricMatrix, RankTable, aggregate, pairwise_wins, rank_methods, wins_to_rank_scores
from .refreg import RegConfig, loss_and_grad, register
from .stats import (
    RowResults,
    dsc30,
    mann_whitney_u_rows,
    mean_std,
    pearson_fit,
    percentile,
    tre30,
    wilcoxon_signed_rank_rows,
)
from .synth import FoldSlab, PhantomSpec, Svf, Translation, make_cohort, make_field, make_pair, make_phantom, make_velocity
from .volio import (
    AffineHeader,
    DisplacementField,
    LandmarkSet,
    Volume,
    read_landmarks,
    read_nifti,
    write_landmarks,
    write_nifti,
)
from .warp import (
    VelocityField,
    compose,
    exp_svf,
    ic_residual,
    sample_trilinear,
    warp_image,
    warp_labels,
)

__version__ = "0.1.0"

__all__ = [
    "AffineHeader",
    "DisplacementField",
    "FixedSide",
    "FoldSlab",
    "LandmarkSet",
    "MetricMatrix",
    "PairReport",
    "PhantomSpec",
    "RankTable",
    "RegConfig",
    "RegEvalError",
    "RowResults",
    "Svf",
    "Translation",
    "VelocityField",
    "Volume",
    "aggregate",
    "compose",
    "dsc",
    "dsc30",
    "evaluate_pair",
    "exp_svf",
    "hd95",
    "ic_residual",
    "lncc",
    "loss_and_grad",
    "make_cohort",
    "make_field",
    "make_pair",
    "make_phantom",
    "make_velocity",
    "mann_whitney_u_rows",
    "mean_std",
    "ndv",
    "pairwise_wins",
    "pearson_fit",
    "percentile",
    "rank_methods",
    "read_landmarks",
    "read_nifti",
    "register",
    "sample_trilinear",
    "tre",
    "tre30",
    "warp_image",
    "warp_labels",
    "wilcoxon_signed_rank_rows",
    "wins_to_rank_scores",
    "write_landmarks",
    "write_nifti",
]
