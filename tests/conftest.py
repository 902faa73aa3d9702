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
