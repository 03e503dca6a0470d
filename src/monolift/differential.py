"""Cross-checks and norms for the differential of the lifted map.

The lifted Jacobian DF itself, ``extension_jacobians`` and
``extension_jacobian``, is computed in :mod:`monolift.extension` by the same
paired evaluation as the lift, and re-exported here.  This module provides
the central-difference Jacobian that cross-checks it independently and the
batched spectral norms of stacks of such matrices (a closed form for 2x2).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteIntegrandError
# computed next to the lift; re-exported because perfbench/ imports them from here
from .extension import extension_jacobian, extension_jacobians

__all__ = [
    "extension_jacobian",
    "extension_jacobians",
    "finite_difference_jacobian",
    "spectral_norms",
]


def finite_difference_jacobian(F, p) -> np.ndarray:
    """Central-difference Jacobian of an arbitrary vector map.

    ``F`` takes a single d-vector and returns a k-vector.  The step is
    fixed by the point: h = 1e-5 * max(1, |p|) along every axis.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatchError(f"expected a single point, got shape {p.shape}")
    h = 1e-5 * max(1.0, float(np.linalg.norm(p)))
    cols = []
    for j in range(p.size):
        e = np.zeros_like(p)
        e[j] = h
        cols.append((np.asarray(F(p + e), float) - np.asarray(F(p - e), float)) / (2.0 * h))
    J = np.stack(cols, axis=1)
    if not np.all(np.isfinite(J)):
        raise NonFiniteIntegrandError("finite differencing hit a non-finite evaluation")
    return J


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of a stack of finite matrices: a closed form
    for 2x2, the singular value decomposition for any other size."""
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-2:] != (2, 2):
        return np.linalg.svd(mats, compute_uv=False)[..., 0]
    # sigma_max = (|(a + d, b - c)| + |(a - d, b + c)|) / 2, on each matrix
    # scaled exactly by a power of two at its largest |entry|, so that no sum
    # overflows
    _, e = np.frexp(np.abs(mats).max(axis=(-2, -1)))
    m = np.ldexp(mats, -e[..., None, None])
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return np.ldexp((np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2.0, e)
