"""Reference pairwise registration by gradient descent on LNCC + diffusion.

The optimizer follows the classic coarse-to-fine recipe: solve on a
factor-2 downsampled pyramid, upsample the running field (values doubled,
trilinear) into each finer level, and refine.  The loss is

    loss(u) = -lncc(fixed, warp(moving, u), window) + lambda * diffusion(u)

with the diffusion term the mean squared forward-difference gradient of u.
The gradient is fully analytic: the LNCC adjoint is accumulated with the
same box sums as the forward pass and chained through the spatial
derivative of the trilinear warp.  Every update passes a halving line
search on the true loss, so the per-level loss trace is non-increasing;
each trial computes the loss and its gradient in one pass.

In SVF mode, RegConfig's default, the state is a stationary velocity and
the returned field is its scaling-and-squaring exponential, diffeomorphic
up to discretization. The update direction is the displacement-space
gradient evaluated at exp(v) (exact to first order in the step); the line
search on the true loss keeps descent honest regardless.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimMismatch, DivergedLoss, NonFiniteData, UnsupportedLayout
from .metrics import _LnccTerms, _check_window
from .volio import DisplacementField, Volume
from .warp import _SLAB, _check_squarings, _exp, _trilinear, _warp, _warp_with_grad, _Workspace

DISPLACEMENT = "displacement"
SVF = "svf"
# relative loss improvement at or below which an accepted step has stalled
STALL_TOL = 1e-5


@dataclass(frozen=True)
class RegConfig:
    """Optimizer settings.

    ``iters_per_level`` runs coarsest first and has one entry, >= 0, per
    pyramid level.  ``step_size`` is the initial update magnitude in voxels
    (the raw gradient is rescaled once per level so the first step moves at
    most this far).  ``update_smoothing_sigma`` Gaussian-smooths each update;
    ``register`` refuses one above 10 times the images' largest axis.
    """

    iters_per_level: tuple[int, ...] = (100, 100, 50)
    step_size: float = 1.0
    lambda_diffusion: float = 1.0
    lncc_window: int = 9
    parameterization: str = SVF
    squarings: int = 7
    update_smoothing_sigma: float = 1.0

    def __post_init__(self):
        if not self.iters_per_level:
            raise BadParams("iters_per_level must have at least one entry")
        if min(self.iters_per_level) < 0:
            raise BadParams(f"iters_per_level entries must be >= 0, got {self.iters_per_level}")
        if not 0 < self.step_size < np.inf:  # NaN fails too
            raise BadParams("step_size must be positive and finite")
        if not 0 <= self.lambda_diffusion < np.inf:
            raise BadParams("lambda_diffusion must be finite and >= 0")
        _check_window(self.lncc_window, "lncc_window")
        if self.parameterization not in (DISPLACEMENT, SVF):
            raise BadParams(f"parameterization must be '{DISPLACEMENT}' or '{SVF}'")
        _check_squarings(self.squarings)
        if not 0 <= self.update_smoothing_sigma < np.inf:
            raise BadParams("update_smoothing_sigma must be finite and >= 0")


# ---------------------------------------------------------------------------
# diffusion regularizer


def _diffusion_value(u: np.ndarray, grad: np.ndarray | None = None, lam: float = 1.0) -> float:
    """The diffusion term: the mean squared forward difference of a field
    ``u`` (X, Y, Z, 3) along the three grid axes.  With ``grad`` (shaped
    like ``u``), ``lam`` times its gradient with respect to ``u`` is added
    into ``grad`` slab by slab along x: per element, the differences added
    and subtracted into a zero axis by axis, times 2 / n, times ``lam``."""
    value, n_terms = 0.0, 0
    for axis in range(3):
        d = np.diff(u, axis=axis)
        value += float(np.sum(np.multiply(d, d, out=d)))
        n_terms += d.size
        del d  # before the next axis forms its differences
    n_terms = max(n_terms, 1)  # a one-voxel grid has no differences
    if grad is not None:
        step = max(1, _SLAB // u[0, ..., 0].size)
        for x0 in range(0, len(u), step):
            # with the rows either side, the slab's own rows get every difference
            r0 = max(x0 - 1, 0)
            v = u[r0 : x0 + step + 1]
            s = np.zeros(v.shape)
            for axis in range(3):
                hi = (slice(None),) * axis + (slice(1, None),)
                lo = (slice(None),) * axis + (slice(None, -1),)
                d = v[hi] - v[lo]
                s[hi] += d
                s[lo] -= d
            s = s[x0 - r0 : x0 - r0 + step]
            s *= 2.0 / n_terms
            s *= lam
            grad[x0 : x0 + step] += s
    return value / n_terms


# ---------------------------------------------------------------------------
# loss


def _loss_and_grad(terms: _LnccTerms, mdata, u, lam):
    w, grad = _warp_with_grad(mdata, u)
    value, dw = terms.value_and_adjoint(w)
    del w
    np.multiply(grad, np.negative(dw, out=dw)[..., None], out=grad)
    del dw
    loss = -value
    if lam > 0:
        loss += lam * _diffusion_value(u, grad, lam)
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


def loss(fixed: Volume, moving: Volume, phi: DisplacementField, cfg: RegConfig) -> float:
    """``loss_and_grad``'s loss, bit for bit, without the gradient."""
    fdata, mdata = _prepare(fixed, moving, phi)
    u = np.asarray(phi.data, dtype=np.float64)
    value = -_LnccTerms(fdata, cfg.lncc_window).value(_warp(mdata, u))
    if cfg.lambda_diffusion > 0:
        value += cfg.lambda_diffusion * _diffusion_value(u)
    return value


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
    """Upsample a field/velocity to the next finer grid, doubling values; voxel x reads (x - 1/2) / 2."""
    shift = np.broadcast_to(-0.25, (int(np.prod(fine_dims)), 3))
    up = _trilinear(state, shift, _Workspace(state.shape, fine_dims, 0.5)).reshape(tuple(fine_dims) + (3,))
    return np.multiply(up, 2.0, out=up)


def gaussian_filter(*args, **kwargs):
    """``scipy.ndimage.gaussian_filter``, imported on the first call so that
    importing the package does not load scipy.  A module-level name, so
    that ``perfbench/tracer.py`` can time the update smoothing through it."""
    from scipy import ndimage

    return ndimage.gaussian_filter(*args, **kwargs)


def _smooth_update(g: np.ndarray, sigma: float) -> np.ndarray:
    """``g`` with each component Gaussian-smoothed in place."""
    if sigma > 0:
        for c in range(3):
            gaussian_filter(g[..., c], sigma=sigma, mode="nearest", output=g[..., c])
    return g


# ---------------------------------------------------------------------------
# optimization loop


def _to_field(state: np.ndarray, cfg: RegConfig) -> np.ndarray:
    """The displacement an optimizer state stands for: the state itself, or
    in SVF mode its scaling-and-squaring exponential (warp.exp_svf's)."""
    return _exp(state, cfg.squarings) if cfg.parameterization == SVF else state


def _optimize_level(fdata, mdata, state, iters, cfg: RegConfig):
    """Line-searched gradient descent at one pyramid level.

    ``state`` is the displacement itself or, in SVF mode, the velocity.
    Returns (state, losses, u), u being ``_to_field(state)``: the field of
    the last accepted trial (or of the start), computed once more only
    after a failed line search, since a trial holds no field but its own.
    A rejected trial's arrays go before the next is built.  The loss and its
    gradient are evaluated once at the start and once per line-search
    trial, which is accepted if it does not raise the loss; its gradient
    sets the next direction.  The level stops when its iterations run
    out, after three consecutive steps that each improve the loss by at
    most STALL_TOL relative, on a failed line search or a zero direction.
    """
    terms = _LnccTerms(fdata, cfg.lncc_window)
    u = _to_field(state, cfg)
    loss, grad = _loss_and_grad(terms, mdata, u, cfg.lambda_diffusion)
    if not np.isfinite(loss):
        raise DivergedLoss(f"initial loss is {loss}")
    losses: list[float] = []
    step = None
    stalled = 0
    for _ in range(iters):
        direction = _smooth_update(grad, cfg.update_smoothing_sigma)
        peak = float(np.max(np.abs(direction)))
        if peak == 0.0:
            break
        if step is None:
            step = cfg.step_size / peak
        trial = step
        u = cand_u = None  # no trial holds the accepted field
        for _ in range(30):
            cand_state = state - trial * direction
            cand_u = _to_field(cand_state, cfg)
            cand_loss, grad = _loss_and_grad(terms, mdata, cand_u, cfg.lambda_diffusion)
            if np.isfinite(cand_loss) and cand_loss <= loss:
                break
            trial *= 0.5
            cand_state = cand_u = grad = None
        else:  # no trial kept the loss from rising
            u = _to_field(state, cfg)
            break
        improvement = loss - cand_loss
        state, u, loss = cand_state, cand_u, cand_loss
        step = trial * 1.1
        losses.append(loss)
        stalled = stalled + 1 if improvement <= STALL_TOL * (1.0 + abs(loss)) else 0
        if stalled >= 3:
            break
    return state, losses, u


def _level_start(coarser, init, dims) -> np.ndarray:
    """The state a pyramid level starts from: the coarser level's state
    upsampled, else a copy of ``init``'s displacement, else zero."""
    if coarser is not None:
        return _upsample_state(coarser, dims)
    if init is not None:
        return np.asarray(init.data, dtype=np.float64).copy()
    return np.zeros(tuple(dims) + (3,), dtype=np.float64)


def register(fixed: Volume, moving: Volume, cfg: RegConfig = RegConfig(), init=None):
    """Estimate the displacement aligning ``moving`` to ``fixed``.

    Returns (DisplacementField, trace) where ``trace`` holds one loss list
    per pyramid level, coarsest first.  Deterministic for fixed inputs and
    config.

    With ``init``, a displacement field on the images' grid, only the
    finest-level loop (the last iters_per_level entry) runs, at full
    resolution and seeded from ``init``; the line search guarantees the
    final loss does not exceed the initial one.  A zero init gives what
    ``register`` gives with iters_per_level cut to its last entry.  In SVF
    mode the init displacement seeds the velocity directly (exact for the
    zero field, first-order otherwise).
    """
    fdata, mdata = _prepare(fixed, moving, init)
    bound = 10 * max(fixed.dims)  # the Gaussian allocates 8 sigma + 1 taps: keep sigma near the grid
    if cfg.update_smoothing_sigma > bound:
        raise BadParams(
            f"update_smoothing_sigma {cfg.update_smoothing_sigma} exceeds {bound}, 10 times the largest axis"
        )
    schedule = cfg.iters_per_level if init is None else cfg.iters_per_level[-1:]
    f_pyr = _pyramid(fdata, len(schedule))
    m_pyr = _pyramid(mdata, len(schedule))
    coarser = [None]  # the coarser level's state, popped so that only _level_start holds it
    trace: list[list[float]] = []
    for level, iters in enumerate(schedule):
        u = None  # the coarser level's field is not read again
        # a level's start goes in unnamed, so its first accepted step frees it (a
        # decorator's *args would hold it); a rejected trial may overflow quietly
        with np.errstate(over="ignore", invalid="ignore"):
            state, losses, u = _optimize_level(
                f_pyr[level], m_pyr[level], _level_start(coarser.pop(), init, f_pyr[level].shape), iters, cfg
            )
        coarser.append(state)
        del state
        trace.append(losses)

    return DisplacementField(header=fixed.header, data=u), trace
