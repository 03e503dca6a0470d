"""Differential of the lifted map.

The Jacobian of the Gaussian lift is the Gaussian average of a block
integrand built from the base Jacobian A = Df(x + t y):

    B(A, y) = [[ A,      A y   ],
               [ y^T A,  y^T A y ]]        ((n+1) x (n+1)),

so DF(x, t) = E[ B(Df(x + t y), y) ].  This module assembles that average
for a batch of points with the same chunking and paired-node accumulation
the lift itself uses, and provides a central-difference Jacobian as the
independent cross-check, batched spectral norms, and the unit-ball norm
average that controls the size of DF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ballrules import BallRule, ball_rule
from .core import HalfSpacePoint, as_square_matrix, evaluate_map_jacobian
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    NonpositiveHeightError,
    SingularPointError,
)
from .extension import ExtensionField, _chunks, _require_finite
from .quadrature import gaussian_expectation

__all__ = [
    "block_matrix",
    "extension_jacobian",
    "extension_jacobians",
    "finite_difference_jacobian",
    "spectral_norms",
    "AlphaAverage",
    "unit_ball_norm_average",
]


def block_matrix(A, y) -> np.ndarray:
    """Assemble B(A, y); exactly symmetric whenever A is."""
    A = as_square_matrix(A)
    y = np.asarray(y, dtype=float)
    n = A.shape[0]
    if y.shape != (n,):
        raise DimensionMismatchError(f"vector of shape {y.shape} against a {n}x{n} matrix")
    B = np.empty((n + 1, n + 1))
    B[:n, :n] = A
    B[:n, n] = A @ y
    # materialised transpose runs through the same gemv kernel as A @ y,
    # so a symmetric A yields a bitwise symmetric block
    B[n, :n] = np.ascontiguousarray(A.T) @ y
    B[n, n] = float(y @ (A @ y))
    return B


def _split_point(p):
    if isinstance(p, HalfSpacePoint):
        return p.base.coords, p.height
    x, t = p
    return np.asarray(x, dtype=float), float(t)


def extension_jacobians(field: ExtensionField, X, T) -> np.ndarray:
    """DF at a batch of points, rows of X with heights T > 0; shape (m, n+1, n+1).

    Each point's matrix is bitwise independent of the batch it is
    evaluated in.  An overflowing ``x + t y`` or base Jacobian raises
    :class:`NonFiniteIntegrandError`, and a quadrature node at a point
    where the base map has no differential :class:`SingularPointError`,
    each naming the first bad row.
    """
    n = field.dim
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(f"expected base points of shape (m, {n}), got {X.shape}")
    if T.shape != (X.shape[0],):
        raise DimensionMismatchError(f"heights of shape {T.shape} for {X.shape[0]} base points")
    low = np.flatnonzero(T <= 0.0)
    if low.size:
        raise NonpositiveHeightError(
            f"row {low[0]}: lifted Jacobian needs height > 0, got {T[low[0]]}")
    nodes = field.scheme.nodes
    nnodes = nodes.shape[0]
    DF = np.empty((X.shape[0], n + 1, n + 1))
    for sl in _chunks(np.arange(X.shape[0]), nnodes):
        pts = X[sl, None, :] + T[sl, None, None] * nodes[None, :, :]
        try:
            A = evaluate_map_jacobian(field.spec, pts.reshape(-1, n)).reshape(sl.size, nnodes, n, n)
        except InvalidParameterError:
            _require_finite(pts, sl, "x + t y at a quadrature node")
            raise
        except SingularPointError as exc:
            _name_singular_row(field, pts, sl, exc)
            raise
        _require_finite(A, sl, "base Jacobian at a quadrature node")
        Ay = np.einsum("ckij,kj->cki", A, nodes)
        yA = np.einsum("ki,ckij->ckj", nodes, A)
        yAy = np.einsum("ki,cki->ck", nodes, Ay)
        DF[sl, :n, :n] = gaussian_expectation(field.scheme, A, axis=1)
        DF[sl, :n, n] = gaussian_expectation(field.scheme, Ay, axis=1)
        DF[sl, n, :n] = gaussian_expectation(field.scheme, yA, axis=1)
        DF[sl, n, n] = gaussian_expectation(field.scheme, yAy, axis=1)
    return DF


def _name_singular_row(field: ExtensionField, pts: np.ndarray, rows: np.ndarray,
                       exc: SingularPointError) -> None:
    """Re-raise ``exc`` naming the first of ``rows`` whose nodes ``pts`` hit it."""
    for i, row_pts in zip(rows, pts):
        try:
            evaluate_map_jacobian(field.spec, row_pts)
        except SingularPointError:
            raise SingularPointError(f"row {i}: {exc}") from exc


def extension_jacobian(field: ExtensionField, p) -> np.ndarray:
    """DF(x, t) for t > 0; ``p`` is a HalfSpacePoint or an (x, t) pair."""
    x, t = _split_point(p)
    return extension_jacobians(field, x[None, :], np.array([t]))[0]


def finite_difference_jacobian(F, p, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of an arbitrary vector map.

    ``F`` takes a single d-vector and returns a k-vector.  The default
    step is 1e-5 * max(1, |p|).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatchError(f"expected a single point, got shape {p.shape}")
    if h is None:
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
    """Largest singular value of a stack of matrices (full decomposition)."""
    return np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)[..., 0]


@dataclass(frozen=True, eq=False)
class AlphaAverage:
    """Unit-ball integral of ||Df(x + t y)|| dy around one half-space point."""

    value: float
    center: HalfSpacePoint
    rule: str

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise InvalidParameterError(f"norm average must be finite and >= 0, got {self.value}")


def unit_ball_norm_average(field: ExtensionField, p, rule: BallRule | None = None) -> AlphaAverage:
    """The local size functional alpha = integral over the unit y-ball of
    ||Df(x + t y)||; DF(x, t) is comparable to it above and below."""
    x, t = _split_point(p)
    if t <= 0.0:
        raise NonpositiveHeightError(f"norm average needs height > 0, got {t}")
    if rule is None:
        rule = ball_rule(field.dim)
    if rule.dim != field.dim:
        raise DimensionMismatchError(f"ball rule of dim {rule.dim} for a field of dim {field.dim}")
    jac = evaluate_map_jacobian(field.spec, x[None, :] + t * rule.nodes)
    norms = spectral_norms(jac)
    value = float(np.einsum("k,k->", rule.weights, norms))
    center = p if isinstance(p, HalfSpacePoint) else HalfSpacePoint(x, t)
    return AlphaAverage(value=value, center=center, rule=rule.descriptor())
