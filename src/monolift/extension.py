"""Gaussian lifting of maps on R^n to maps on R^{n+1}.

For a map f on R^n the lift F is defined on the open upper half-space by
averaging f against the standard Gaussian at scale t,

    F^i(x, t)     = E[ f^i(x + t y) ]          (i = 1..n),
    F^{n+1}(x, t) = E[ <f(x + t y), y> ],

where y is standard normal on R^n.  On the boundary the lift restricts to
F(x, 0) = (f(x), 0), and it propagates to negative heights by reflection:
the horizontal components are even in t, the vertical one is odd.

The quadrature nodes come in reflected pairs (y, -y), so f is evaluated
once, in one batch, at x + t y and x - t y for the first half of the nodes.
The weighted pair sums f(x + t y) + f(x - t y) give the horizontal part;
the pair differences, contracted with y as <f(x + t y) - f(x - t y), y>,
give the vertical part.  When f is monotone each such term is nonnegative,
so the vertical component is nonnegative for t > 0 term by term, not just
in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MapSpec, evaluate_map
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
)
from .quadrature import QuadratureScheme, default_scheme, pair_expectation, paired_nodes

__all__ = [
    "ExtensionField",
    "ExtensionTable",
    "gaussian_extension",
    "extend_point",
    "extend_points",
    "extend_grid",
    "full_space_map",
    "trivial_lift_map",
    "lattice_points",
]

# cap on points-per-chunk * nodes; keeps the intermediate arrays in cache.
# It also keeps each row's value bitwise independent of its batch: numpy's
# einsum reduces a one-row scalar integrand over the nodes in buffered blocks
# of 2^13 pairs, but several rows node by node.  The two orders agree up to
# 2^13 pairs, and under this cap only such schemes put several rows in a chunk.
# Measured with the paired reduction: at 2^16 or 2^17, rows of the 2^15- and
# 2^16-node QMC rules share a chunk, and their scalar integrands (F_vert and
# y^T A y) then differ in the last bits from the same rows lifted alone.
# Caps of 2^18 and 2^20 made the dim-2 and dim-3 lifts no faster.
_TARGET_EVALS = 1 << 15


def _chunks(rows: np.ndarray, nnodes: int):
    """Split row indices into runs of about ``_TARGET_EVALS`` node evaluations."""
    step = max(1, _TARGET_EVALS // nnodes)
    return (rows[i:i + step] for i in range(0, rows.size, step))


def _paired_points(x: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x + t y`` and ``x - t y`` for rows ``x``, heights ``t`` and the
    paired nodes ``y`` of a scheme, as one (c, 2, h, n) buffer.  ``x - t y`` is
    bitwise ``x + t (-y)``, the point at the reflected node."""
    c, (h, n) = x.shape[0], y.shape
    buf = np.empty((c, 2, h, n))
    np.multiply(t[:, None, None], y, out=buf[:, 1])
    # x repeated per node: broadcasting x itself would run numpy's inner
    # loop over only the n coordinates, 4-5x slower at n = 2
    xs = np.tile(x, (1, h)).reshape(c, h, n)
    np.add(xs, buf[:, 1], out=buf[:, 0])
    np.subtract(xs, buf[:, 1], out=buf[:, 1])
    return buf


def _require_finite(values: np.ndarray, rows: np.ndarray, what: str) -> None:
    """Raise naming the first of ``rows`` whose per-row ``values`` are not all finite."""
    if not np.all(np.isfinite(values)):
        ok = np.isfinite(values).reshape(rows.size, -1).all(axis=1)
        raise NonFiniteIntegrandError(
            f"row {rows[np.argmin(ok)]}: {what} overflowed")


def _batch(X, T, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``T`` as float arrays of shapes (m, n) and (m,), or raise."""
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(f"expected base points of shape (m, {n}), got {X.shape}")
    if T.shape != (X.shape[0],):
        raise DimensionMismatchError(f"heights of shape {T.shape} for {X.shape[0]} base points")
    return X, T


@dataclass(frozen=True, eq=False)
class ExtensionField:
    """A map spec paired with the quadrature scheme used to lift it."""

    spec: MapSpec
    scheme: QuadratureScheme

    def __post_init__(self):
        if self.spec.dim != self.scheme.dim:
            raise DimensionMismatchError(
                f"map of dim {self.spec.dim} paired with scheme of dim {self.scheme.dim}"
            )

    @property
    def dim(self) -> int:
        return self.spec.dim

    def descriptor(self) -> str:
        return f"{self.spec.digest()}/{self.scheme.descriptor()}"


def gaussian_extension(spec: MapSpec, scheme: QuadratureScheme | None = None,
                       seed: int = 0) -> ExtensionField:
    """Pair ``spec`` with a default (or given) quadrature scheme."""
    return ExtensionField(spec, scheme if scheme is not None else default_scheme(spec.dim, seed))


@np.errstate(all="ignore")  # _require_finite names the row; a numpy warning only repeats it
def extend_points(field: ExtensionField, X, T) -> np.ndarray:
    """Lift a batch of half-space points; rows of X with heights T.

    Heights of exactly 0 take the direct boundary path (f(x), 0); negative
    heights are computed at |t| and the vertical component is negated, so
    the reflection symmetry is exact by construction.  Each row's result is
    bitwise independent of the batch it is evaluated in.  An overflowing
    map or Gaussian average raises :class:`NonFiniteIntegrandError` naming
    the first bad row.
    """
    n = field.dim
    X, T = _batch(X, T, n)
    bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(T))
    if np.any(bad):
        raise InvalidParameterError(f"row {np.argmax(bad)}: points and heights must be finite")

    scheme = field.scheme
    y = paired_nodes(scheme)
    out = np.empty((X.shape[0], n + 1))

    boundary = np.flatnonzero(T == 0.0)
    if boundary.size:
        fx = evaluate_map(field.spec, X[boundary])
        _require_finite(fx, boundary, "map evaluation at t = 0")
        out[boundary, :n] = fx
        out[boundary, n] = 0.0

    for sl in _chunks(np.flatnonzero(T != 0.0), scheme.size):
        pts = _paired_points(X[sl], np.abs(T[sl]), y)
        try:
            fx = evaluate_map(field.spec, pts.reshape(-1, n)).reshape(pts.shape)
        except InvalidParameterError:
            _require_finite(pts, sl, "x + t y at a quadrature node")
            raise
        _require_finite(fx, sl, "map evaluation at a quadrature node")
        plus, minus = fx[:, 0], fx[:, 1]
        vert = pair_expectation(scheme, np.einsum("cnk,nk->cn", plus - minus, y), axis=1)
        out[sl, :n] = pair_expectation(scheme, plus + minus, axis=1)
        out[sl, n] = np.where(T[sl] < 0.0, -vert, vert)
        _require_finite(out[sl], sl, "Gaussian average")
    return out


def extend_point(field: ExtensionField, p) -> np.ndarray:
    """Lift a single point given as an (x, t) pair."""
    x, t = p
    return extend_points(field, np.asarray(x, dtype=float)[None, :], np.array([float(t)]))[0]


def full_space_map(field: ExtensionField):
    """The lift as a plain callable on R^{n+1} (height = last coordinate)."""
    n = field.dim

    def lifted(P):
        arr = np.asarray(P, dtype=float)
        flat = arr.reshape(-1, n + 1)
        out = extend_points(field, flat[:, :n], flat[:, n])
        return out.reshape(arr.shape)

    return lifted


def trivial_lift_map(spec: MapSpec):
    """The naive lift (x, t) -> (f(x), t), kept for refutation demos."""
    n = spec.dim

    def lifted(P):
        arr = np.asarray(P, dtype=float)
        flat = arr.reshape(-1, n + 1)
        out = np.concatenate([evaluate_map(spec, flat[:, :n]), flat[:, n:]], axis=1)
        return out.reshape(arr.shape)

    return lifted


@dataclass(frozen=True, eq=False)
class ExtensionTable:
    """Evaluated grid: one row per input point, heights last-but-(n+1)."""

    inputs: np.ndarray   # (m, n+1) as x_1..x_n, t
    outputs: np.ndarray  # (m, n+1) as F_1..F_n, F_vert

    @property
    def dim(self) -> int:
        return int(self.inputs.shape[1]) - 1

    def columns(self) -> list[str]:
        n = self.dim
        return [f"x{i + 1}" for i in range(n)] + ["t"] + [f"F{i + 1}" for i in range(n)] + ["Fn1"]

    def rows(self) -> np.ndarray:
        return np.concatenate([self.inputs, self.outputs], axis=1)


def extend_grid(field: ExtensionField, points) -> ExtensionTable:
    """Lift a list of (x, t) pairs, preserving order.

    Rows are checked one by one for their dimension, then lifted in one
    :func:`extend_points` batch.  Dimension, non-finite input and overflow
    errors name the offending row index.
    """
    embedded = []
    for i, (x, t) in enumerate(points):
        v = np.append(np.asarray(x, dtype=float), float(t))
        if v.size != field.dim + 1:
            raise DimensionMismatchError(f"row {i}: expected {field.dim} coordinates plus a height")
        embedded.append(v)
    inputs = np.array(embedded) if embedded else np.empty((0, field.dim + 1))
    return ExtensionTable(inputs, extend_points(field, inputs[:, :-1], inputs[:, -1]))


def lattice_points(dim: int = 2, bounds: tuple[float, float] = (-2.0, 2.0), nx: int = 9,
                   heights=(0.25, 0.5, 1.0, 2.0)) -> tuple[np.ndarray, np.ndarray]:
    """Default evaluation lattice: an nx^dim grid crossed with fixed heights."""
    axis = np.linspace(bounds[0], bounds[1], nx)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    base = np.stack([g.reshape(-1) for g in grids], axis=1)
    heights = np.asarray(heights, dtype=float)
    X = np.repeat(base, heights.size, axis=0)
    T = np.tile(heights, base.shape[0])
    return X, T
