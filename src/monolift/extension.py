"""Gaussian lifting of maps on R^n to maps on R^{n+1}.

For a map f on R^n the lift F is defined on the open upper half-space by
averaging f against the standard Gaussian at scale t,

    F^i(x, t)     = E[ f^i(x + t y) ]          (i = 1..n),
    F^{n+1}(x, t) = E[ <f(x + t y), y> ],

where y is standard normal on R^n.  On the boundary the lift restricts to
F(x, 0) = (f(x), 0), and it propagates to negative heights by reflection:
the horizontal components are even in t, the vertical one is odd.  When f
is monotone the vertical component is nonnegative for t > 0; with paired
quadrature nodes this holds term by term, not just in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HalfSpacePoint, MapSpec, evaluate_map
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
)
from .quadrature import QuadratureScheme, default_scheme, gaussian_expectation

__all__ = [
    "BILIPSCHITZ",
    "DELTA_MONOTONE",
    "ExtensionField",
    "ExtensionTable",
    "gaussian_extension",
    "extend_point",
    "extend_points",
    "extend_grid",
    "full_space_map",
    "trivial_lift_map",
    "compose_qcd_extension",
    "lattice_points",
]

BILIPSCHITZ = "bilipschitz"
DELTA_MONOTONE = "delta_monotone"

# cap on points-per-chunk * nodes; keeps the intermediate arrays in cache.
# It also keeps each row's value bitwise independent of its batch: numpy's
# einsum reduces a one-row scalar integrand over the nodes in buffered blocks
# of 2^13 pairs, but several rows node by node.  The two orders agree up to
# 2^13 pairs, and under this cap only such schemes put several rows in a chunk.
_TARGET_EVALS = 1 << 15


def _chunks(rows: np.ndarray, nnodes: int):
    """Split row indices into runs of about ``_TARGET_EVALS`` node evaluations."""
    step = max(1, _TARGET_EVALS // nnodes)
    return (rows[i:i + step] for i in range(0, rows.size, step))


def _require_finite(values: np.ndarray, rows: np.ndarray, what: str) -> None:
    """Raise naming the first of ``rows`` whose per-row ``values`` are not all finite."""
    if not np.all(np.isfinite(values)):
        ok = np.isfinite(values).reshape(rows.size, -1).all(axis=1)
        raise NonFiniteIntegrandError(
            f"row {rows[np.argmin(ok)]}: {what} overflowed")


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
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(f"expected base points of shape (m, {n}), got {X.shape}")
    if T.shape != (X.shape[0],):
        raise DimensionMismatchError(f"heights of shape {T.shape} for {X.shape[0]} base points")
    bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(T))
    if np.any(bad):
        raise InvalidParameterError(f"row {np.argmax(bad)}: points and heights must be finite")

    nodes = field.scheme.nodes
    nnodes = nodes.shape[0]
    out = np.empty((X.shape[0], n + 1))

    boundary = np.flatnonzero(T == 0.0)
    if boundary.size:
        fx = evaluate_map(field.spec, X[boundary])
        _require_finite(fx, boundary, "map evaluation at t = 0")
        out[boundary, :n] = fx
        out[boundary, n] = 0.0

    for sl in _chunks(np.flatnonzero(T != 0.0), nnodes):
        x = X[sl]
        t = np.abs(T[sl])
        pts = x[:, None, :] + t[:, None, None] * nodes[None, :, :]
        try:
            fx = evaluate_map(field.spec, pts.reshape(-1, n)).reshape(sl.size, nnodes, n)
        except InvalidParameterError:
            _require_finite(pts, sl, "x + t y at a quadrature node")
            raise
        _require_finite(fx, sl, "map evaluation at a quadrature node")
        horiz = gaussian_expectation(field.scheme, fx, axis=1)
        vert = gaussian_expectation(field.scheme, np.einsum("cnk,nk->cn", fx, nodes), axis=1)
        out[sl, :n] = horiz
        out[sl, n] = np.where(T[sl] < 0.0, -vert, vert)
        _require_finite(out[sl], sl, "Gaussian average")
    return out


def extend_point(field: ExtensionField, p) -> np.ndarray:
    """Lift a single point; ``p`` is a HalfSpacePoint or an (x, t) pair."""
    if isinstance(p, HalfSpacePoint):
        x, t = p.base.coords, p.height
    else:
        x, t = p
    x = np.asarray(x, dtype=float)
    return extend_points(field, x[None, :], np.array([float(t)]))[0]


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
    """Lift a list of half-space points, preserving order.

    Rows are checked one by one for their dimension, then lifted in one
    :func:`extend_points` batch.  Dimension, non-finite input and overflow
    errors name the offending row index.
    """
    embedded = []
    for i, p in enumerate(points):
        if isinstance(p, HalfSpacePoint):
            v = p.embedded()
        else:
            x, t = p
            v = np.append(np.asarray(x, dtype=float), float(t))
        if v.size != field.dim + 1:
            raise DimensionMismatchError(f"row {i}: expected {field.dim} coordinates plus a height")
        embedded.append(v)
    inputs = np.array(embedded) if embedded else np.empty((0, field.dim + 1))
    return ExtensionTable(inputs, extend_points(field, inputs[:, :-1], inputs[:, -1]))


def compose_qcd_extension(factors, scheme: QuadratureScheme, p) -> np.ndarray:
    """Lift a word of tagged factors to R^{n+1}, applied right-to-left.

    Each factor is a ``(tag, spec)`` pair.  ``delta_monotone`` factors get
    the Gaussian lift; ``bilipschitz`` factors act trivially on the height,
    (x, t) -> (g(x), t).  Restricted to t = 0 the result is the composed
    base map with zero height.
    """
    factors = list(factors)
    if not factors:
        raise InvalidParameterError("need at least one factor")
    if isinstance(p, HalfSpacePoint):
        cur = p.embedded()
    else:
        cur = np.asarray(p, dtype=float).copy()
    n = scheme.dim
    if cur.shape != (n + 1,):
        raise DimensionMismatchError(f"point of shape {cur.shape} for factors on R^{n}")
    for tag, spec in reversed(factors):
        if spec.dim != n:
            raise DimensionMismatchError(f"factor of dim {spec.dim} in a dim {n} composition")
        if tag == DELTA_MONOTONE:
            field = ExtensionField(spec, scheme)
            cur = extend_points(field, cur[None, :n], cur[n:n + 1])[0]
        elif tag == BILIPSCHITZ:
            cur = np.append(evaluate_map(spec, cur[:n]), cur[n])
        else:
            raise InvalidParameterError(f"unknown factor tag {tag!r}")
    return cur


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
