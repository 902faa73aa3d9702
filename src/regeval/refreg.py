"""Reference pairwise registration by gradient descent on LNCC + diffusion.

The optimizer follows the classic coarse-to-fine recipe: solve on a
factor-2 downsampled pyramid, upsample the running field (values doubled,
trilinear) into each finer level, and refine.  The loss is

    loss(u) = -lncc(fixed, warp(moving, u), window) + lambda * diffusion(u)

with the diffusion term the mean squared forward-difference gradient of u.
The gradient is fully analytic: the LNCC adjoint is accumulated with the
same box sums as the forward pass and chained through the spatial
derivative of the trilinear warp.  Every update passes a halving line
search on the true loss, so the per-level loss trace is non-increasing.

In SVF mode the state is a stationary velocity and the returned field is
its scaling-and-squaring exponential, diffeomorphic up to discretization.
The update direction is the displacement-space gradient evaluated at
exp(v) (exact to first order in the step); the line search on the true
loss keeps descent honest regardless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DivergedLoss, NonFiniteData, UnsupportedLayout
from .metrics import _LnccTerms
from .volio import DisplacementField, Volume
from .warp import _exp, _trilinear, _warp, _warp_with_grad, identity_grid

DISPLACEMENT = "displacement"
SVF = "svf"


@dataclass(frozen=True)
class RegConfig:
    """Optimizer settings.

    ``iters_per_level`` runs coarsest first and must have ``levels``
    entries.  ``step_size`` is the initial update magnitude in voxels (the
    raw gradient is rescaled once per level so the first step moves at most
    this far).  ``update_smoothing_sigma`` Gaussian-smooths each update.
    """

    levels: int = 3
    iters_per_level: tuple[int, ...] = (100, 100, 50)
    step_size: float = 1.0
    lambda_diffusion: float = 1.0
    lncc_window: int = 9
    parameterization: str = DISPLACEMENT
    squarings: int = 7
    update_smoothing_sigma: float = 1.0
    tol: float = 1e-5

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if len(self.iters_per_level) != self.levels:
            raise ValueError(
                f"iters_per_level has {len(self.iters_per_level)} entries for {self.levels} levels"
            )
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.lambda_diffusion < 0:
            raise ValueError("lambda_diffusion must be >= 0")
        if self.lncc_window < 1 or self.lncc_window % 2 == 0:
            raise ValueError("lncc_window must be a positive odd integer")
        if self.parameterization not in (DISPLACEMENT, SVF):
            raise ValueError(f"parameterization must be '{DISPLACEMENT}' or '{SVF}'")
        if self.squarings < 0 or self.update_smoothing_sigma < 0:
            raise ValueError("squarings and update_smoothing_sigma must be >= 0")


# ---------------------------------------------------------------------------
# diffusion regularizer


def _diffusion_value(u: np.ndarray, grad: np.ndarray | None = None) -> float:
    """The diffusion term: the mean squared forward difference of a field
    ``u`` (X, Y, Z, 3) along the three grid axes.  With ``grad`` (zeros
    shaped like ``u``), its gradient with respect to ``u`` is also written
    there."""
    value, n_terms = 0.0, 0
    for axis in range(3):
        hi = (slice(None),) * axis + (slice(1, None),)
        lo = (slice(None),) * axis + (slice(None, -1),)
        d = u[hi] - u[lo]
        value += float(np.sum(d * d))
        n_terms += d.size
        if grad is not None:
            grad[hi] += d
            grad[lo] -= d
    if n_terms == 0:
        return 0.0
    if grad is not None:
        grad *= 2.0 / n_terms
    return value / n_terms


# ---------------------------------------------------------------------------
# loss


def _loss_only(terms: _LnccTerms, mdata, u, lam) -> float:
    w = _warp(mdata, u)
    loss = -terms.value(w)
    if lam > 0:
        loss += lam * _diffusion_value(u)
    return loss


def _loss_and_grad(terms: _LnccTerms, mdata, u, lam):
    w, mgrad = _warp_with_grad(mdata, u)
    value, dw = terms.value_and_adjoint(w)
    grad = -dw[..., None] * mgrad
    loss = -value
    if lam > 0:
        dgrad = np.zeros_like(u)
        loss += lam * _diffusion_value(u, dgrad)
        grad += lam * dgrad
    return loss, grad


def _prepare(fixed: Volume, moving: Volume, phi: DisplacementField | None = None):
    """The float64 intensities of two scalar volumes on one grid, after
    checking that they are finite; ``phi``, if given, must share the grid."""
    if fixed.kind != "scalar" or moving.kind != "scalar":
        raise UnsupportedLayout("registration expects scalar volumes")
    if fixed.dims != moving.dims:
        raise DimMismatch(f"fixed dims {fixed.dims} != moving dims {moving.dims}")
    if phi is not None and phi.dims != fixed.dims:
        raise DimMismatch(f"field dims {phi.dims} != image dims {fixed.dims}")
    fdata = np.asarray(fixed.data, dtype=np.float64)
    mdata = np.asarray(moving.data, dtype=np.float64)
    if not (np.all(np.isfinite(fdata)) and np.all(np.isfinite(mdata))):
        raise NonFiniteData("image intensities must be finite")
    return fdata, mdata


def loss_and_grad(fixed: Volume, moving: Volume, phi: DisplacementField, cfg: RegConfig):
    """Registration loss and its analytic gradient with respect to the
    displacement (the quantity checked against finite differences)."""
    fdata, mdata = _prepare(fixed, moving, phi)
    terms = _LnccTerms(fdata, cfg.lncc_window)
    return _loss_and_grad(terms, mdata, np.asarray(phi.data, dtype=np.float64), cfg.lambda_diffusion)


# ---------------------------------------------------------------------------
# pyramid plumbing


def _downsample_data(d: np.ndarray) -> np.ndarray:
    """Block-mean 2x downsampling; odd axes are edge-padded first."""
    pads = [(0, n % 2) for n in d.shape]
    if any(p[1] for p in pads):
        d = np.pad(d, pads, mode="edge")
    sx, sy, sz = d.shape[0] // 2, d.shape[1] // 2, d.shape[2] // 2
    return d.reshape(sx, 2, sy, 2, sz, 2).mean(axis=(1, 3, 5))


def _pyramid(data: np.ndarray, levels: int) -> list[np.ndarray]:
    """Images from coarsest [0] to finest [-1]."""
    out = [np.asarray(data, dtype=np.float64)]
    for _ in range(levels - 1):
        out.append(_downsample_data(out[-1]))
    return out[::-1]


def _upsample_state(state: np.ndarray, fine_dims) -> np.ndarray:
    """Upsample a field/velocity to the next finer grid, doubling values."""
    pts = (identity_grid(tuple(fine_dims)).reshape(-1, 3) - 0.5) / 2.0
    up = _trilinear(state, pts).reshape(tuple(fine_dims) + (3,))
    return 2.0 * up


def gaussian_filter(*args, **kwargs):
    """``scipy.ndimage.gaussian_filter``, imported on the first call so that
    importing the package does not load scipy.  A module-level name, so
    that ``perfbench/tracer.py`` can time the update smoothing through it."""
    from scipy import ndimage

    return ndimage.gaussian_filter(*args, **kwargs)


def _smooth_update(g: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return g
    out = np.empty_like(g)
    for c in range(3):
        gaussian_filter(g[..., c], sigma=sigma, mode="nearest", output=out[..., c])
    return out


# ---------------------------------------------------------------------------
# optimization loop


def _to_field(state: np.ndarray, cfg: RegConfig) -> np.ndarray:
    """The displacement an optimizer state stands for: the state itself, or
    in SVF mode its scaling-and-squaring exponential (warp.exp_svf's)."""
    return _exp(state, cfg.squarings) if cfg.parameterization == SVF else state


def _optimize_level(fdata, mdata, state, iters, cfg: RegConfig):
    """Line-searched gradient descent at one pyramid level.

    ``state`` is the displacement itself or, in SVF mode, the velocity.
    Returns (state, losses, u), u being the displacement of the returned
    state as already computed (``_to_field(state)``).  The loss sequence is
    non-increasing because updates are only accepted when they do not raise
    the loss.  The level converges early once three consecutive accepted
    steps each improve the loss by less than cfg.tol relative.
    """
    terms = _LnccTerms(fdata, cfg.lncc_window)
    u = _to_field(state, cfg)
    loss = _loss_only(terms, mdata, u, cfg.lambda_diffusion)
    if not np.isfinite(loss):
        raise DivergedLoss(f"initial loss is {loss}")
    losses: list[float] = []
    step = None
    stalled = 0
    for _ in range(iters):
        _, grad = _loss_and_grad(terms, mdata, u, cfg.lambda_diffusion)
        direction = _smooth_update(grad, cfg.update_smoothing_sigma)
        peak = float(np.max(np.abs(direction)))
        if peak == 0.0:
            break
        if step is None:
            step = cfg.step_size / peak
        accepted = False
        trial = step
        for _ in range(30):
            cand_state = state - trial * direction
            cand_u = _to_field(cand_state, cfg)
            cand_loss = _loss_only(terms, mdata, cand_u, cfg.lambda_diffusion)
            if np.isfinite(cand_loss) and cand_loss <= loss:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        improvement = loss - cand_loss
        state, u, loss = cand_state, cand_u, cand_loss
        step = trial * 1.1
        losses.append(loss)
        stalled = stalled + 1 if improvement <= cfg.tol * (1.0 + abs(loss)) else 0
        if stalled >= 3:
            break
    return state, losses, u


def register(fixed: Volume, moving: Volume, cfg: RegConfig = RegConfig()):
    """Estimate the displacement aligning ``moving`` to ``fixed``.

    Returns (DisplacementField, trace) where ``trace`` holds one loss list
    per pyramid level, coarsest first.  Deterministic for fixed inputs and
    config.
    """
    fdata, mdata = _prepare(fixed, moving)
    f_pyr = _pyramid(fdata, cfg.levels)
    m_pyr = _pyramid(mdata, cfg.levels)
    state = np.zeros(f_pyr[0].shape + (3,), dtype=np.float64)
    trace: list[list[float]] = []
    for level in range(cfg.levels):
        state, losses, u = _optimize_level(
            f_pyr[level], m_pyr[level], state, cfg.iters_per_level[level], cfg
        )
        trace.append(losses)
        if level + 1 < cfg.levels:
            state = _upsample_state(state, f_pyr[level + 1].shape)

    return DisplacementField(header=fixed.header, data=u), trace


def instance_optimize(
    fixed: Volume,
    moving: Volume,
    init: DisplacementField,
    cfg: RegConfig = RegConfig(),
) -> DisplacementField:
    """Refine an existing field at full resolution only.

    Runs the finest-level loop (the last iters_per_level entry) seeded from
    ``init``; the line search guarantees the final loss does not exceed the
    initial one.  With a zero init this is exactly single-level ``register``.
    In SVF mode the init displacement seeds the velocity directly (exact for
    the zero field, first-order otherwise).
    """
    fdata, mdata = _prepare(fixed, moving, init)
    state = np.asarray(init.data, dtype=np.float64).copy()
    _, _, u = _optimize_level(fdata, mdata, state, cfg.iters_per_level[-1], cfg)
    return DisplacementField(header=fixed.header, data=u)
