"""Differential of the lifted map.

The Jacobian of the Gaussian lift is the Gaussian average of a block
integrand built from the base Jacobian A = Df(x + t y):

    B(A, y) = [[ A,      A y   ],
               [ y^T A,  y^T A y ]]        ((n+1) x (n+1)),

so DF(x, t) = E[ B(Df(x + t y), y) ].  Like the lift, this module
evaluates Df once at x + t y and x - t y for the first half of the
reflection-paired nodes.  Under y -> -y the A and y^T A y blocks are even
and the A y and y^T A blocks odd, so with S = Df(x+ty) + Df(x-ty) and
D = Df(x+ty) - Df(x-ty) the weighted pair sums give

    E[A] from S,   E[A y] from D y,   E[y^T A] from y^T D,   E[y^T A y] from y^T S y.

It also provides a central-difference Jacobian as the independent
cross-check, batched spectral norms, and the unit-ball norm average that
controls the size of DF.
"""

from __future__ import annotations

import math

import numpy as np

from .ballrules import BallRule, ball_rule
from .core import evaluate_map_jacobian
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    NonpositiveHeightError,
    SingularPointError,
)
from .extension import ExtensionField, _batch, _chunks, _paired_points, _require_finite
from .quadrature import pair_expectation, paired_nodes

__all__ = [
    "extension_jacobian",
    "extension_jacobians",
    "finite_difference_jacobian",
    "spectral_norms",
    "unit_ball_norm_average",
]


@np.errstate(all="ignore")  # _require_finite names the row; a numpy warning only repeats it
def extension_jacobians(field: ExtensionField, X, T) -> np.ndarray:
    """DF at a batch of points, rows of X with heights T > 0; shape (m, n+1, n+1).

    Each point's matrix is bitwise independent of the batch it is
    evaluated in.  An overflowing ``x + t y``, base Jacobian or Gaussian
    average raises :class:`NonFiniteIntegrandError`, and a quadrature node
    at a point where the base map has no differential
    :class:`SingularPointError`, each naming the first bad row.
    """
    n = field.dim
    X, T = _batch(X, T, n)
    low = np.flatnonzero(T <= 0.0)
    if low.size:
        raise NonpositiveHeightError(
            f"row {low[0]}: lifted Jacobian needs height > 0, got {T[low[0]]}")
    scheme = field.scheme
    y = paired_nodes(scheme)
    DF = np.empty((X.shape[0], n + 1, n + 1))
    for sl in _chunks(np.arange(X.shape[0]), scheme.size):
        pts = _paired_points(X[sl], T[sl], y)
        try:
            A = evaluate_map_jacobian(field.spec, pts.reshape(-1, n)).reshape(pts.shape + (n,))
        except InvalidParameterError:
            _require_finite(pts, sl, "x + t y at a quadrature node")
            raise
        except SingularPointError as exc:
            _name_singular_row(field, pts, sl, exc)
            raise
        _require_finite(A, sl, "base Jacobian at a quadrature node")
        S, D = A[:, 0] + A[:, 1], A[:, 0] - A[:, 1]
        DF[sl, :n, :n] = pair_expectation(scheme, S, axis=1)
        DF[sl, :n, n] = pair_expectation(scheme, np.einsum("ckij,kj->cki", D, y), axis=1)
        DF[sl, n, :n] = pair_expectation(scheme, np.einsum("ki,ckij->ckj", y, D), axis=1)
        DF[sl, n, n] = pair_expectation(
            scheme, np.einsum("ki,cki->ck", y, np.einsum("ckij,kj->cki", S, y)), axis=1)
        _require_finite(DF[sl], sl, "Gaussian average")
    return DF


def _name_singular_row(field: ExtensionField, pts: np.ndarray, rows: np.ndarray,
                       exc: SingularPointError) -> None:
    """Re-raise ``exc`` naming the first of ``rows`` whose nodes ``pts`` hit it."""
    for i, row_pts in zip(rows, pts):
        try:
            evaluate_map_jacobian(field.spec, row_pts.reshape(-1, field.dim))
        except SingularPointError:
            raise SingularPointError(f"row {i}: {exc}") from exc


def extension_jacobian(field: ExtensionField, p) -> np.ndarray:
    """DF(x, t) for t > 0, at a point given as an (x, t) pair."""
    x, t = p
    return extension_jacobians(field, np.asarray(x, dtype=float)[None, :], np.array([float(t)]))[0]


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


def _base_jacobian_norms(spec, pts) -> np.ndarray:
    """||Df|| at each of ``pts``, with a non-finite Jacobian reported, not
    passed to the SVD (which fails to converge on it)."""
    with np.errstate(all="ignore"):
        jac = evaluate_map_jacobian(spec, pts)
    if not np.all(np.isfinite(jac)):
        raise NonFiniteIntegrandError("the map's Jacobian overflowed at an integration point")
    return spectral_norms(jac)


def unit_ball_norm_average(field: ExtensionField, p, rule: BallRule | None = None) -> float:
    """The local size functional alpha = integral over the unit y-ball of
    ||Df(x + t y)|| at the point ``p = (x, t)``; DF(x, t) is comparable to
    it above and below."""
    x, t = np.asarray(p[0], dtype=float), float(p[1])
    if t <= 0.0:
        raise NonpositiveHeightError(f"norm average needs height > 0, got {t}")
    if rule is None:
        rule = ball_rule(field.dim)
    if rule.dim != field.dim:
        raise DimensionMismatchError(f"ball rule of dim {rule.dim} for a field of dim {field.dim}")
    norms = _base_jacobian_norms(field.spec, x[None, :] + t * rule.nodes)
    value = float(np.einsum("k,k->", rule.weights, norms))
    if not math.isfinite(value):
        raise NonFiniteIntegrandError(f"norm average overflowed: {value}")
    return value
