"""Shared fixtures and hand-rolled file crafting for the test suite.

The NIfTI bytes built here are written with raw struct packing, independent
of the library's writer, so reader tests do not assume the writer is
correct.
"""
import struct

import numpy as np
import pytest


def craft_nifti(
    data: np.ndarray,
    datatype: int,
    dim: tuple,
    spacing=(1.0, 1.0, 1.0),
    scl=(0.0, 0.0),
    vox_offset: float = 352.0,
    magic: bytes = b"n+1\x00",
    sizeof_hdr: int = 348,
    truncate: int = 0,
    order: str = "<",
) -> bytes:
    """Assemble single-file NIfTI-1 bytes from scratch, header and payload
    in byte ``order`` ("<" little endian, ">" big endian)."""
    hdr = bytearray(348)
    struct.pack_into(order + "i", hdr, 0, sizeof_hdr)
    struct.pack_into(f"{order}{len(dim)}h", hdr, 40, *dim)
    struct.pack_into(order + "h", hdr, 70, datatype)
    itemsize = {2: 1, 4: 2, 8: 4, 16: 4, 64: 8}.get(datatype, 4)
    struct.pack_into(order + "h", hdr, 72, itemsize * 8)
    struct.pack_into(order + "4f", hdr, 76, 1.0, *spacing)
    struct.pack_into(order + "f", hdr, 108, vox_offset)
    struct.pack_into(order + "2f", hdr, 112, *scl)
    hdr[344:348] = magic
    np_dtype = order + {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}[datatype if datatype in (2, 4, 8, 16, 64) else 16]
    payload = np.asarray(data).astype(np_dtype).tobytes(order="F")
    if truncate:
        payload = payload[:-truncate]
    pad = b"\x00" * (int(vox_offset) - 348)
    return bytes(hdr) + pad + payload


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def brute_force_trilinear(data: np.ndarray, point) -> float | np.ndarray:
    """Reference 8-corner interpolation with clamping, written longhand."""
    dims = data.shape[:3]
    p = [min(max(float(point[a]), 0.0), dims[a] - 1.0) for a in range(3)]
    base = [int(np.floor(c)) for c in p]
    frac = [p[a] - base[a] for a in range(3)]
    total = None
    for cx in (0, 1):
        for cy in (0, 1):
            for cz in (0, 1):
                ix = min(base[0] + cx, dims[0] - 1)
                iy = min(base[1] + cy, dims[1] - 1)
                iz = min(base[2] + cz, dims[2] - 1)
                w = (
                    (frac[0] if cx else 1.0 - frac[0])
                    * (frac[1] if cy else 1.0 - frac[1])
                    * (frac[2] if cz else 1.0 - frac[2])
                )
                term = w * np.asarray(data[ix, iy, iz], dtype=np.float64)
                total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# Whole-array reference kernels: the evaluation kernels as they ran before
# they worked in slabs, corners and chunks.  The cache-sized kernels must
# reproduce them bit for bit.


def whole_array_warp_labels(moving_labels, phi):
    """Nearest-neighbour label warp by fancy indexing with full-grid
    position and index arrays."""
    from regeval.volio import Volume
    from regeval.warp import identity_grid

    pos = identity_grid(phi.header.dims) + np.asarray(phi.data, dtype=np.float64)
    idx = np.floor(pos + 0.5).astype(np.intp)
    for axis in range(3):
        np.clip(idx[..., axis], 0, moving_labels.data.shape[axis] - 1, out=idx[..., axis])
    out = moving_labels.data[idx[..., 0], idx[..., 1], idx[..., 2]]
    return Volume(header=phi.header, kind="label", data=out)


def padded_sample_trilinear(obj, points):
    """Point sampling through the bulk kernel, which pads a copy of the whole
    field."""
    from regeval.warp import _trilinear

    data = obj if isinstance(obj, np.ndarray) else obj.data
    pts = np.asarray(points, dtype=np.float64)
    out = _trilinear(np.asarray(data, dtype=np.float64), np.atleast_2d(pts))
    return out[0] if pts.ndim == 1 else out


def per_slab_folded_volume_cells(psi_flat, cells, ny, nz):
    """NDV's per-cell folded volume (times six) over some cells of a slab,
    every cell at once."""
    from regeval.metrics import _AXIS_OFFSETS, _KUHN_PAIRS

    def corner(comp, offset):
        ox, oy, oz = offset
        return psi_flat[comp][(ox * ny + oy) * nz + oz :].take(cells)

    c000 = [corner(c, (0, 0, 0)) for c in range(3)]
    w = [corner(c, (1, 1, 1)) - c000[c] for c in range(3)]
    axis_delta = [[corner(c, off) - c000[c] for c in range(3)] for off in _AXIS_OFFSETS]
    folded = np.zeros(cells.shape, dtype=np.float64)
    for edge_offset, first_a, first_b in _KUHN_PAIRS:
        e = [corner(c, edge_offset) - c000[c] for c in range(3)]
        cx = e[1] * w[2] - e[2] * w[1]
        cy = e[2] * w[0] - e[0] * w[2]
        cz = e[0] * w[1] - e[1] * w[0]
        for sign, first in ((1.0, first_a), (-1.0, first_b)):
            d1 = axis_delta[first]
            det = d1[0] * cx + d1[1] * cy + d1[2] * cz
            signed = det if sign > 0 else -det
            np.minimum(signed, 0.0, out=signed)
            folded -= signed
    return folded


def traced_peak(fn):
    """(result, peak bytes that tracemalloc saw allocated during fn())."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


# ---------------------------------------------------------------------------
# Expression-form optimizer kernels: the box sum, the LNCC terms and the
# diffusion term as they ran before they worked in place.  The in-place
# kernels must reproduce them bit for bit.


def expression_box_sum(x, r):
    """The box sum with a fresh running-sum array and a fresh output per
    axis."""
    out = x
    for axis in range(3):
        src = np.moveaxis(out, axis, 0)
        n = src.shape[0]
        c = np.empty((n + 1,) + src.shape[1:])
        c[0] = 0.0
        c[1] = src[0]
        for k in range(1, n):
            np.add(c[k], src[k], out=c[k + 1])
        out = np.empty(x.shape)
        dst = np.moveaxis(out, axis, 0)
        a, b = min(r, n), max(n - r, 0)
        np.subtract(c[r + 1 : r + 1 + min(a, b)], c[0], out=dst[: min(a, b)])
        if a < b:
            np.subtract(c[a + r + 1 : b + r + 1], c[a - r : b - r], out=dst[a:b])
        else:
            np.subtract(c[n], c[0], out=dst[b:a])
        if max(a, b) < n:
            np.subtract(c[n], c[max(a, b) - r : n - r], out=dst[max(a, b) :])
    return out


def expression_ncc(terms, w):
    """``_LnccTerms._ncc``: (ncc, bbar, vb, inv_sqrt) from whole-array
    expressions."""
    from regeval.metrics import LNCC_EPS

    sb = expression_box_sum(w, terms.r)
    bbar = sb / terms.n
    vb = expression_box_sum(w * w, terms.r) - sb * bbar + LNCC_EPS
    cross = expression_box_sum(terms.fdata * w, terms.r) - terms.sa * bbar
    inv_sqrt = 1.0 / np.sqrt(terms.va * vb)
    return cross * inv_sqrt, bbar, vb, inv_sqrt


def expression_value_and_adjoint(terms, w):
    """``_LnccTerms.value_and_adjoint`` as one expression."""
    ncc, bbar, vb, inv_sqrt = expression_ncc(terms, w)
    beta = ncc / vb
    box = expression_box_sum
    dw = (
        terms.fdata * box(inv_sqrt, terms.r)
        - box(inv_sqrt * terms.abar, terms.r)
        - w * box(beta, terms.r)
        + box(beta * bbar, terms.r)
    ) / terms.fdata.size
    return float(np.mean(ncc)), dw


def expression_diffusion_value(u, grad=None):
    """``refreg._diffusion_value`` with each squared difference a fresh
    array."""
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
    n_terms = max(n_terms, 1)
    if grad is not None:
        grad *= 2.0 / n_terms
    return value / n_terms
