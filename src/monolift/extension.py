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

The Jacobian of the lift is the Gaussian average of a block integrand built
from the base Jacobian A = Df(x + t y):

    B(A, y) = [[ A,      A y   ],
               [ y^T A,  y^T A y ]]        ((n+1) x (n+1)),

so DF(x, t) = E[ B(Df(x + t y), y) ].  It is computed the same way: Df is
evaluated once at x + t y and x - t y for the first half of the nodes.
Under y -> -y the A and y^T A y blocks are even and the A y and y^T A
blocks odd, so with S = Df(x+ty) + Df(x-ty) and D = Df(x+ty) - Df(x-ty)
the weighted pair sums give

    E[A] from S,   E[A y] from D y,   E[y^T A] from y^T D,   E[y^T A y] from y^T S y.

One private generator, ``_paired_values``, builds the points x +- t y in
chunks and evaluates f (for ``extend_points``) or Df (for
``extension_jacobians``) there; each caller keeps only its contraction.

Every array of the hot loop is coordinate-major: the points x +- t y sit
in an (n, c, 2, h) buffer for c rows and h paired nodes, the kernels fill
one contiguous vector over the nodes per coordinate (or matrix entry),
the contractions with y are n multiply-adds of such vectors, and each
caller writes its integrands into (c, ..., h) arrays that
:func:`~monolift.quadrature.pair_expectation` reduces over the last axis
with no copy: one for the vector integrands and one for the scalar.

Bad input fails loudly, naming its first bad row, but each chunk of rows
is checked on (rows x n) data rather than node by node.  The points
x +- t y are checked before the kernel runs, from the exact per-row bound
|x_k| + |t| max|y_k| over the paired nodes.  The values of f (or Df) are
checked through the Gaussian averages, which any non-finite value makes
non-finite; only then are the values scanned, to name the row and whether
a value or only its average overflowed.  A chunk's bad point is named
before its bad values, and a bad value before an overflowing average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MapSpec, evaluate_map, map_jacobians, map_values
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    NonpositiveHeightError,
    SingularPointError,
)
from .quadrature import QuadratureScheme, default_scheme, pair_expectation, paired_nodes

__all__ = [
    "ExtensionField",
    "ExtensionTable",
    "gaussian_extension",
    "extend_point",
    "extend_points",
    "extension_jacobian",
    "extension_jacobians",
    "extend_grid",
    "full_space_map",
    "trivial_lift_map",
    "lattice_points",
]

# cap on points-per-chunk * nodes; keeps the intermediate arrays in cache.
# It also keeps each row's value bitwise independent of its batch: numpy's
# einsum reduces a lone output over the (contiguous, last) node axis in
# buffered blocks of 2^13 pairs, but several outputs each over the whole axis.
# The vector integrands (f's pair sums, the S rows, D y and y^T D) always
# have several outputs per row; the scalar ones (F_vert and y^T S y) have one
# per row, so one row alone and rows in a chunk take different orders beyond
# 2^13 pairs.  Under this cap only schemes of at most 2^13 pairs put several
# rows in a chunk.  Re-measured with the node axis last (numpy 2.4.6): at a
# cap of 2^17, rows of the 2^15- and 2^16-node QMC rules share a chunk, and
# their F_vert and y^T S y differ in the last bits from the same rows lifted
# alone, while every vector integrand stays equal.
# Caps of 2^18 and 2^20 made the dim-2 and dim-3 lifts no faster.
_TARGET_EVALS = 1 << 15


def _require_finite(values: np.ndarray, rows: np.ndarray, what: str) -> None:
    """Raise naming the first of ``rows`` whose per-row ``values`` are not all finite."""
    if not np.all(np.isfinite(values)):
        ok = np.isfinite(values).reshape(rows.size, -1).all(axis=1)
        raise NonFiniteIntegrandError(
            f"row {rows[np.argmin(ok)]}: {what} overflowed")


def _require_finite_average(average: np.ndarray, rows: np.ndarray, plus: np.ndarray,
                            minus: np.ndarray, what: str) -> None:
    """Raise if the Gaussian ``average`` of ``rows`` is not all finite.

    The first row with a non-finite value in ``plus`` or ``minus`` is named
    as "``what`` at a quadrature node"; if there is none, the first row with
    a non-finite average as "Gaussian average".

    Every value enters the horizontal part (the A block) once, through a pair
    sum with a weight, and inf * w, inf - inf, 0 * inf and NaN all stay
    non-finite; so a non-finite value always makes its row's average
    non-finite, and the values are scanned only when an average is.
    """
    if np.all(np.isfinite(average)):
        return
    for row, p, m in zip(rows, plus, minus):
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(m))):
            raise NonFiniteIntegrandError(f"row {row}: {what} at a quadrature node overflowed")
    _require_finite(average, rows, "Gaussian average")


def _batch(X, T, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``T`` as finite float arrays of shapes (m, n) and (m,), or raise."""
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionMismatchError(f"expected base points of shape (m, {n}), got {X.shape}")
    if T.shape != (X.shape[0],):
        raise DimensionMismatchError(f"heights of shape {T.shape} for {X.shape[0]} base points")
    bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(T))
    if np.any(bad):
        raise InvalidParameterError(f"row {np.argmax(bad)}: points and heights must be finite")
    return X, T


def _contract_nodes(A: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = sum_k A[..., k] * y[:, k]`` for A of shape (c, h, n): n
    multiply-adds over contiguous node vectors, summed in order of k."""
    np.multiply(A[..., 0], y[:, 0], out=out)
    for k in range(1, A.shape[-1]):
        out += A[..., k] * y[:, k]
    return out


def _contract_difference(plus: np.ndarray, minus: np.ndarray, y: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """``_contract_nodes(plus - minus, y, out)`` with the same bits, formed
    one coordinate at a time in one (c, h) scratch array rather than from a
    (c, h, n) difference."""
    np.subtract(plus[..., 0], minus[..., 0], out=out)
    out *= y[:, 0]
    term = np.empty_like(out)
    for k in range(1, plus.shape[-1]):
        np.subtract(plus[..., k], minus[..., k], out=term)
        term *= y[:, k]
        out += term
    return out


def _paired_values(field: ExtensionField, kernel, X: np.ndarray, T: np.ndarray,
                   rows: np.ndarray):
    """Evaluate ``kernel`` (``map_values`` or ``map_jacobians``) at
    x + |t| y and x - |t| y for ``rows`` of (X, T) and the paired nodes y.

    Yields ``(chunk, plus, minus)`` per run of rows of about
    ``_TARGET_EVALS`` node evaluations; ``plus`` and ``minus`` are views of
    the values at the two points, of shape (c, h, ...) for h paired nodes,
    with one contiguous vector over the nodes per coordinate (or entry).
    Callers drop them before the next chunk, so that only one chunk's
    points or values are held at a time.
    x - t y is bitwise x + t (-y), the point at the reflected node.

    Each chunk's points are checked once, from an (c, n) bound rather than
    a scan of every node: a row whose x + t y or x - t y has a non-finite
    coordinate raises :class:`NonFiniteIntegrandError`, and a node where the
    kernel is undefined :class:`SingularPointError`, each naming the first
    bad row.  The values are not checked here; each caller checks its
    averages with :func:`_require_finite_average`, which names a row with
    a non-finite value before one whose average alone overflowed.
    """
    n = field.dim
    y = paired_nodes(field.scheme)
    h = y.shape[0]
    ymax = np.abs(y).max(axis=0)
    step = max(1, _TARGET_EVALS // field.scheme.size)
    for i in range(0, rows.size, step):
        sl = rows[i:i + step]
        x, t = X[sl], np.abs(T[sl])[:, None]
        # exact: the node attaining ymax_k puts one of its points at
        # +-fl(|x_k| + fl(|t| ymax_k)), and rounding is monotone
        _require_finite(np.abs(x) + t * ymax, sl, "x + t y at a quadrature node")
        buf = np.empty((n, sl.size, 2, h))
        xs, ty = x.T[:, :, None], buf[:, :, 1]
        np.multiply(t, y.T[:, None, :], out=ty)
        np.add(xs, ty, out=buf[:, :, 0])
        np.subtract(xs, ty, out=ty)
        pts = buf.transpose(1, 2, 3, 0)
        try:
            values = kernel(field.spec, pts.reshape(-1, n))
        except SingularPointError as exc:
            for row, row_pts in zip(sl, pts):
                try:
                    kernel(field.spec, row_pts.reshape(-1, n))
                except SingularPointError:
                    raise SingularPointError(f"row {row}: {exc}") from exc
            raise
        del buf, ty, pts  # the generator's frame would hold the points through the yield
        values = values.reshape((sl.size, 2, h) + values.shape[1:])
        yield sl, values[:, 0], values[:, 1]
        del values


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
    scheme = field.scheme
    y = paired_nodes(scheme)
    h = y.shape[0]
    out = np.empty((X.shape[0], n + 1))

    boundary = np.flatnonzero(T == 0.0)
    if boundary.size:
        fx = map_values(field.spec, X[boundary])
        _require_finite(fx, boundary, "map evaluation at t = 0")
        out[boundary, :n] = fx
        out[boundary, n] = 0.0

    rows = np.flatnonzero(T != 0.0)
    for sl, plus, minus in _paired_values(field, map_values, X, T, rows):
        # pair sums <f(x+ty) - f(x-ty), y> and f(x+ty) + f(x-ty), node axis last
        vert = pair_expectation(
            scheme, _contract_difference(plus, minus, y, np.empty((sl.size, h))), axis=1)
        out[sl, n] = np.where(T[sl] < 0.0, -vert, vert)
        out[sl, :n] = pair_expectation(
            scheme, np.add(plus, minus, out=np.empty((sl.size, n, h)).transpose(0, 2, 1)), axis=1)
        _require_finite_average(out[sl], sl, plus, minus, "map evaluation")
        del plus, minus  # see _paired_values
    return out


def extend_point(field: ExtensionField, p) -> np.ndarray:
    """Lift a single point given as an (x, t) pair."""
    x, t = p
    return extend_points(field, np.asarray(x, dtype=float)[None, :], np.array([float(t)]))[0]


@np.errstate(all="ignore")  # _require_finite names the row; a numpy warning only repeats it
def extension_jacobians(field: ExtensionField, X, T) -> np.ndarray:
    """DF at a batch of points, rows of X with heights T > 0; shape (m, n+1, n+1).

    DF(x, t) = E[B(Df(x + t y), y)] for the block integrand B of the
    module docstring.  Each point's matrix is bitwise independent of the
    batch it is evaluated in.  A non-finite point or height raises
    :class:`InvalidParameterError`, an overflowing ``x + t y``, base
    Jacobian or Gaussian average :class:`NonFiniteIntegrandError`, and a
    quadrature node at a point where the base map has no differential
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
    h = y.shape[0]
    DF = np.empty((X.shape[0], n + 1, n + 1))
    for sl, plus, minus in _paired_values(field, map_jacobians, X, T, np.arange(X.shape[0])):
        # pair sums of the block integrand, node axis last: the rows of S,
        # then D y and y^T D in one array, and the scalar y^T S y
        blocks = np.empty((sl.size, n + 2, n, h))
        S = np.add(plus, minus, out=blocks[:, :n].transpose(0, 3, 1, 2))
        D = plus - minus
        Sy = np.empty((sl.size, n, h))
        for i in range(n):
            _contract_nodes(D[..., i, :], y, blocks[:, n, i])
            _contract_nodes(D[..., i], y, blocks[:, n + 1, i])
            _contract_nodes(S[..., i, :], y, Sy[:, i])
        E = pair_expectation(scheme, blocks, axis=-1)
        DF[sl, :n, :n], DF[sl, :n, n], DF[sl, n, :n] = E[:, :n], E[:, n], E[:, n + 1]
        DF[sl, n, n] = pair_expectation(
            scheme, _contract_nodes(Sy.transpose(0, 2, 1), y, np.empty((sl.size, h))), axis=-1)
        _require_finite_average(DF[sl], sl, plus, minus, "base Jacobian")
        del plus, minus, blocks, S, D, Sy  # see _paired_values
    return DF


def extension_jacobian(field: ExtensionField, p) -> np.ndarray:
    """DF(x, t) for t > 0, at a point given as an (x, t) pair."""
    x, t = p
    return extension_jacobians(field, np.asarray(x, dtype=float)[None, :], np.array([float(t)]))[0]


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
    heights = np.asarray(heights, dtype=float)
    if nx < 1 or heights.size == 0:
        raise InvalidParameterError(
            f"a lattice needs nx >= 1 and at least one height, got nx = {nx}")
    axis = np.linspace(bounds[0], bounds[1], nx)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    base = np.stack([g.reshape(-1) for g in grids], axis=1)
    X = np.repeat(base, heights.size, axis=0)
    T = np.tile(heights, base.shape[0])
    return X, T
