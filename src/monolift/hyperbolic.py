"""Upper-half-space hyperbolic geometry diagnostics.

d(p, q) = arccosh(1 + |p - q|^2 / (2 t_p t_q)) for points with positive
height, computed as 2 asinh(|p - q| / (2 sqrt(t_p t_q))), which neither
squares |p - q| nor loses nearly equal points to the rounding of 1 + x.
Where that quotient passes the float range, asinh(x) is log 2x to
rounding, and d = 2 log|p - q| - log t_p - log t_q.
``vertical_comparison`` measures how far the lifted map is from
a hyperbolic isometry pointwise: the ratio ||DF(x, t)|| t / F_vert(x, t)
equals 1 exactly for the identity and for diagonal linear maps, and its
spread over a grid is the comparison constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import evaluate_map_jacobian
from .differential import spectral_norms
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    NonpositiveHeightError,
    SingularPointError,
    VanishingVerticalError,
)
from .extension import ExtensionField, extend_points, extension_jacobians
from .quadrature import check_allocation, check_integer

__all__ = [
    "hyperbolic_distances",
    "HyperbolicReport",
    "vertical_comparison",
    "sample_height_pairs",
    "BilipschitzReport",
    "bilipschitz_sample",
]


@np.errstate(all="ignore")  # an overflowing distance is reported by row; a warning only repeats it
def hyperbolic_distances(P, Q) -> np.ndarray:
    """Batch distance on (m, n+1) arrays whose last column is the height;
    a row whose difference p - q overflows raises
    :class:`NonFiniteIntegrandError`."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape or P.ndim != 2:
        raise DimensionMismatchError(f"batch shapes {P.shape} vs {Q.shape}")
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise InvalidParameterError("hyperbolic distance needs finite points")
    tp, tq = P[:, -1], Q[:, -1]
    if np.any(tp <= 0.0) or np.any(tq <= 0.0):
        raise NonpositiveHeightError("hyperbolic distance needs positive heights")
    # sqrt(t_p t_q) from the mantissas' product and half the exponent sum: the
    # product cannot overflow, and scaling by 2 scales the root by 2 exactly
    (mp, ep), (mq, eq) = np.frexp(tp), np.frexp(tq)
    half = (ep + eq) // 2
    root = np.ldexp(np.sqrt(np.ldexp(mp * mq, ep + eq - 2 * half)), half)
    dist = _row_norms(P - Q)
    x = dist / (2.0 * root)
    d = np.where(np.isinf(x), 2.0 * np.log(dist) - np.log(tp) - np.log(tq), 2.0 * np.arcsinh(x))
    bad = ~np.isfinite(d)
    if np.any(bad):
        raise NonFiniteIntegrandError(f"row {np.argmax(bad)}: hyperbolic distance overflowed")
    return d


@np.errstate(over="ignore")  # an overflowing row is redone below
def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``a``; overflowing rows are redone with ``np.hypot``."""
    a = a.reshape(len(a), -1)
    norms = np.sqrt(np.einsum("ki,ki->k", a, a))
    big = np.isinf(norms)
    norms[big] = np.hypot.reduce(a[big], axis=1, initial=0.0)
    return norms


def _lift_above_rounding(field: ExtensionField, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The lift of (X, T); :class:`VanishingVerticalError` unless every
    vertical part is above the rounding bound of the paired vertical sum.

    That sum is sum_i w_i <f(x + t y_i) - f(x - t y_i), y_i> over the first
    half of the nodes.  With L = E||Df(x + t y)||, E|y| <= sqrt(n) and
    E|y|^2 = n, the rounding of a pair term adds up to

    * eps L (sqrt(n) |x| + 2 n t) from the points x +- t y, each within
      eps (|x| + 2 t |y|) of its exact value;
    * (n + 2) eps (sqrt(n) |F_h| + 2 n t L) from the map values, each within
      (n + 2) eps |f| (a squared norm or n-term dot product, a power, a
      product), as |f(x + t y)| <= |F_h| + t L (|y| + sqrt(n));
    * (n + 1) n eps t L from the difference, of size <= 2 t L |y|, and the
      n-term dot product with y.

    So a vertical part at or below eps ((n + 2) sqrt(n) |F_h| + sqrt(n) L |x|
    + (3n + 7) n t L) cannot be told from zero.  The weighted sum over the
    pairs adds rounding relative to sum_i w_i |pair term|, which for a
    monotone map is the vertical part itself.

    L is estimated by the degree-3 Gaussian rule, weight 1/(2n) on each of
    y = +-sqrt(n) e_k, from Frobenius norms (>= the operator norm): 2n base
    Jacobians per row, where the averaged DF would cost the whole node set
    and understate L wherever Df turns.  A probe point where Df is undefined
    is left out of its row's mean; a row with no other raises
    :class:`SingularPointError`.
    """
    images = extend_points(field, X, T)
    n = field.dim
    rn = math.sqrt(n)
    steps = rn * np.abs(T)[:, None, None] * np.eye(n)
    pts = np.concatenate([X[:, None, :] + steps, X[:, None, :] - steps], axis=1).reshape(-1, n)
    defined = np.ones(pts.shape[0], dtype=bool)
    with np.errstate(all="ignore"):  # an overflowing Jacobian makes the bound infinite
        try:
            J = evaluate_map_jacobian(field.spec, pts)
        except SingularPointError:  # leave out the probe points where Df is undefined
            J = np.zeros((pts.shape[0], n, n))
            for i, p in enumerate(pts):
                try:
                    J[i] = evaluate_map_jacobian(field.spec, p[None])[0]
                except SingularPointError:
                    defined[i] = False
    probes = defined.reshape(-1, 2 * n).sum(axis=1)
    if not np.all(probes):
        raise SingularPointError(
            f"row {np.argmin(probes)}: Df is undefined at every probe point of the rounding bound")
    slope = _row_norms(J).reshape(-1, 2 * n).sum(axis=1) / probes
    bound = np.finfo(float).eps * (
        (n + 2) * rn * _row_norms(images[:, :n])
        + slope * (rn * _row_norms(X) + (3 * n + 7) * n * np.abs(T)))
    if not np.all(images[:, n] > bound):
        raise VanishingVerticalError("lift has a (numerically) vanishing vertical part")
    return images


@dataclass(frozen=True, eq=False)
class HyperbolicReport:
    """Pointwise vertical-comparison ratios over a grid.

    ``spread`` = max ratio / min ratio; it equals 1 exactly when the lift
    scales the vertical direction the same way everywhere.
    """

    points: np.ndarray    # (m, n) bases
    heights: np.ndarray   # (m,)
    norms: np.ndarray     # ||DF|| per point
    verticals: np.ndarray  # F_vert per point

    @property
    def ratios(self) -> np.ndarray:
        return self.norms * self.heights / self.verticals

    @property
    def spread(self) -> float:
        r = self.ratios
        return float(r.max() / r.min())

    def columns(self):
        dim = self.points.shape[1]
        return [f"x{i + 1}" for i in range(dim)] + ["t", "norm_df", "fvert", "ratio"]

    def rows(self):
        return np.column_stack([self.points, self.heights, self.norms,
                                self.verticals, self.ratios])


def vertical_comparison(field: ExtensionField, X, T) -> HyperbolicReport:
    """Evaluate ||DF(x, t)|| t / F_vert(x, t) over the given points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    if np.any(T <= 0.0):
        raise NonpositiveHeightError("comparison ratios need strictly positive heights")
    images = _lift_above_rounding(field, X, T)  # before the costlier Jacobians
    norms = spectral_norms(extension_jacobians(field, X, T))
    return HyperbolicReport(points=X, heights=T, norms=norms, verticals=images[:, -1])


def sample_height_pairs(dim: int, count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random embedded point pairs: bases uniform in [-5, 5]^dim, heights
    log-uniform in [0.1, 10]."""
    dim = check_integer(dim, "dim", 1)
    count = check_integer(count, "pair count", 1)
    seed = check_integer(seed, "seed", 0)
    check_allocation(2 * count * (dim + 1) * 8, f"{count} point pairs in dimension {dim + 1}")
    rng = np.random.default_rng(seed)

    def draw():
        base = rng.uniform(-5.0, 5.0, (count, dim))
        t = 10.0 ** rng.uniform(-1.0, 1.0, count)
        return np.column_stack([base, t])

    return draw(), draw()


@dataclass(frozen=True, eq=False)
class BilipschitzReport:
    """Hyperbolic distance distortion of a lift over sampled pairs."""

    d_source: np.ndarray
    d_image: np.ndarray
    skipped: int

    @property
    def ratios(self) -> np.ndarray:
        return self.d_image / self.d_source

    @property
    def lower(self) -> float:
        return float(self.ratios.min())

    @property
    def upper(self) -> float:
        return float(self.ratios.max())

    def json_dict(self) -> dict:
        return {
            "pairs": int(self.d_source.shape[0]),
            "skipped": self.skipped,
            "lower": self.lower,
            "upper": self.upper,
        }


def bilipschitz_sample(field: ExtensionField, P, Q) -> BilipschitzReport:
    """Compare d(F(p), F(q)) with d(p, q) over embedded point pairs.

    The pairs are checked as :func:`hyperbolic_distances` checks them before
    they are lifted.  Pairs at zero source distance are skipped and counted;
    image heights must stay above the rounding bound of
    :func:`_lift_above_rounding`, otherwise :class:`VanishingVerticalError`.
    """
    ds = hyperbolic_distances(P, Q)
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    FP = _lift_above_rounding(field, P[:, :-1], P[:, -1])
    FQ = _lift_above_rounding(field, Q[:, :-1], Q[:, -1])
    di = hyperbolic_distances(FP, FQ)
    keep = ds > 0.0
    skipped = int(P.shape[0] - keep.sum())
    return BilipschitzReport(d_source=ds[keep], d_image=di[keep], skipped=skipped)
