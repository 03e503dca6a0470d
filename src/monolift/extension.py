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

One private driver, ``_pair_averages``, builds the points x +- t y and
evaluates f (for ``extend_points``) or Df (for ``extension_jacobians``)
there, in pieces of a run of rows times one node block of
:func:`~monolift.quadrature.pair_blocks` (at most 2^13 paired nodes).  Each
caller passes only its contraction of a piece into pair sums, which
:func:`~monolift.quadrature.pair_expectation` reduces one block at a time.
So a row's bits do not depend on its batch or on how it is split, and the
working set is one piece whatever the rule's size.

Every array of the hot loop is coordinate-major: the points x +- t y of a
piece, for c rows and the b paired nodes of a block, sit in one buffer;
the kernels fill one contiguous vector over the piece per coordinate (or
matrix entry); the contractions with y are n multiply-adds of (c, b)
arrays; and each caller hands on its integrands as (c, ..., b) arrays that
are reduced over the last axis with no copy: one for the vector integrands
and one for the scalar.  The buffer is the kernel's to overwrite (the
contract of :func:`~monolift.core.map_values`).  The lift keeps no array of
pair sums beside its values: <f(x + t y) - f(x - t y), y> is formed into a
(c, b) array, and then the pair sums overwrite the f(x + t y) half, a
(c, n, b) view.  So for an elementwise map, whose values overwrite the
points, a piece's working set is its points plus a few vectors over its
nodes; a map that mixes coordinates returns its values in an array of the
points' shape and layout.  The Jacobian path's n x n values per point
cannot overwrite the points, so its kernels return their own array and its
pair sums go to a new one.

The buffer's layout follows the block length, and either layout gives the
same bits.  A block of at most ``_SPLIT_PAIRS`` = 2048 pairs (the default
rules of dims 1 and 2) is laid out (n, 2, c, b) in split halves: for each
coordinate, the plus points of all c rows as one (c, b) block, then the
minus points.  A longer block (dims 3 and 4) is laid out (n, c, 2, b), each
row's plus and minus points side by side.  The reason is how numpy (2.4.6)
iterates a pass over a (c, b) half:

- strided, as one half of the side-by-side layout: through its buffers,
  at about 1.4 ns an element, while a row is at most a quarter of the
  8192-element buffer; one loop per row above that, at about 0.5 ns;
- contiguous, as one half of the split layout: one long loop, at about
  0.3 ns, unless an operand broadcasts a column over the rows, as in the
  passes that build the points; then through its buffers, at about 0.9 ns,
  whatever the row length.

So short rows, such as dim 2's 89 rows of 184 pairs, are faster split, and
long ones, such as dim 3's 5 rows of 2944, side by side.  On a 2-vCPU KVM
Xeon, a lift in split halves took 0.74-0.87 of the time side by side at
2047 and 2048 pairs, and 1.05-1.21 of it at 2068 to 3478 pairs.

Bad input fails loudly, naming its first bad row, but each run of rows
is checked on (rows x n) data rather than node by node.  The points
x +- t y are checked before the kernel runs, from the exact per-row bound
|x_k| + |t| max|y_k| over the paired nodes.  The values of f (or Df) are
checked through the Gaussian averages, which any non-finite value makes
non-finite.  Only if an average is non-finite, or the kernel meets a node
where Df is undefined, are the run's rows evaluated again one at a time,
naming the first row with such a node or value, or else the first whose
average overflowed.  A run's bad point is named before all of these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MapSpec, combine, evaluate_map, map_jacobians, map_values
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    NonpositiveHeightError,
    SingularPointError,
)
from .quadrature import (
    QuadratureScheme,
    check_allocation,
    check_integer,
    default_scheme,
    pair_blocks,
    pair_expectation,
    paired_nodes,
)

__all__ = [
    "ExtensionField",
    "ExtensionTable",
    "gaussian_extension",
    "extend_points",
    "extension_jacobian",
    "extension_jacobians",
    "extend_grid",
    "full_space_map",
    "trivial_lift_map",
    "lattice_points",
]

# cap on the node evaluations of one piece of the lift (a run of rows times
# one node block); keeps the intermediate arrays in cache.  A rule of more
# than 2^13 pairs takes two rows per piece; a smaller rule is one block, and
# takes as many rows as fit.  Each row's bits are independent of its batch
# at any cap, because no einsum reduces more than one block of 2^13 pairs
# (quadrature.pair_blocks), the size at which numpy's einsum buffers a lone
# output's reduction; caps of 2^18 and 2^20 made the dim-2 and dim-3 lifts
# no faster.
_TARGET_EVALS = 1 << 15

# blocks of at most this many pairs lay a piece's points out in split
# halves (see _paired_kernel and the module docstring)
_SPLIT_PAIRS = 2048


def _require_finite(values: np.ndarray, rows: np.ndarray, what: str) -> None:
    """Raise naming the first of ``rows`` whose per-row ``values`` are not all finite."""
    if not np.all(np.isfinite(values)):
        ok = np.isfinite(values).reshape(rows.size, -1).all(axis=1)
        raise NonFiniteIntegrandError(
            f"row {rows[np.argmin(ok)]}: {what} overflowed")


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


def _contract_difference(plus: np.ndarray, minus: np.ndarray, y: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """``out = sum_k (plus - minus)[..., k] * y[:, k]`` for arrays of shape
    (c, b, n) (values of f, or one row or column of Df), with the bits of
    :func:`~monolift.core.combine` on the difference, formed one coordinate
    at a time in one (c, b) scratch array rather than from a (c, b, n)
    difference."""
    np.subtract(plus[..., 0], minus[..., 0], out=out)
    out *= y[:, 0]
    term = np.empty_like(out)
    for k in range(1, plus.shape[-1]):
        np.subtract(plus[..., k], minus[..., k], out=term)
        term *= y[:, k]
        out += term
    return out


def _paired_kernel(field: ExtensionField, kernel, X: np.ndarray, T: np.ndarray,
                   run: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``kernel(spec, P)`` at the points P = x + |t| y and x - |t| y for the
    ``run`` rows of (X, T) and the paired nodes ``y`` of one block, as the
    (c, b, ...) values at the plus points and at the minus points.  P is a
    view of a new buffer, one contiguous vector over the piece per
    coordinate, which the kernel may overwrite; x - t y is bitwise
    x + t (-y), the point at the reflected node.

    A block of at most ``_SPLIT_PAIRS`` pairs is laid out (n, 2, c, b) in
    split halves, all plus points and then all minus points, so that a pass
    over a half runs over one contiguous block; a longer block is laid out
    (n, c, 2, b), each row's plus and minus points side by side, where a
    pass over a half runs one loop per row.  The module docstring gives the
    measured reason."""
    n, c, b = field.dim, run.size, y.shape[0]
    split = b <= _SPLIT_PAIRS
    shape = (2, c, b) if split else (c, 2, b)
    buf = np.empty((n,) + shape)
    P = buf if split else buf.swapaxes(1, 2)  # (n, 2, c, b) either way
    ty = P[:, 1]
    np.multiply(np.abs(T[run])[:, None], y.T[:, None, :], out=ty)
    xs = X[run].T[:, :, None]
    np.add(xs, ty, out=P[:, 0])
    np.subtract(xs, ty, out=ty)
    values = kernel(field.spec, buf.reshape(n, -1).T)
    values = values.reshape(shape + values.shape[1:])
    plus, minus = values if split else values.swapaxes(0, 1)
    return plus, minus


def _pair_averages(field: ExtensionField, kernel, X: np.ndarray, T: np.ndarray,
                   rows: np.ndarray, contract, what: str) -> list[np.ndarray]:
    """Gaussian averages, over ``rows`` of (X, T), of the pair sums that
    ``contract(plus, minus, y)`` makes from ``kernel`` (``map_values`` or
    ``map_jacobians``) at x + |t| y and x - |t| y.

    ``plus`` and ``minus`` are the kernel's (c, b, ...) values at one
    piece's points and ``y`` its (b, n) paired nodes; ``contract`` returns
    a tuple of (c, ..., b) pair-sum arrays, node axis last with unit
    stride, which may overwrite ``plus``, and the driver returns a
    (len(rows), ...) average of each from :func:`~monolift.quadrature.pair_expectation`.
    A piece is a run of rows times one of the :func:`~monolift.quadrature.pair_blocks`,
    at most ``_TARGET_EVALS`` evaluations.  Bad rows are named in the order of
    the module docstring; a bad value is reported as "``what`` at a quadrature node".
    """
    scheme, y = field.scheme, paired_nodes(field.scheme)
    blocks = pair_blocks(scheme)
    # the nodes are closed under negation, so their largest coordinate k
    # is the largest |y_k| over the paired nodes, read without a copy
    ymax = scheme.nodes.max(axis=0)
    step = max(1, _TARGET_EVALS // (2 * (blocks[0].stop - blocks[0].start)))

    def name_bad_row(run):
        for j in range(run.size):
            row = run[j:j + 1]
            for block in blocks:
                try:
                    values = np.stack(_paired_kernel(field, kernel, X, T, row, y[block]), axis=1)
                except SingularPointError as exc:
                    raise SingularPointError(f"row {row[0]}: {exc}") from exc
                _require_finite(values, row, f"{what} at a quadrature node")

    averages = None
    # an empty batch takes one empty run, which gives the averages' shapes
    for i in range(0, max(rows.size, 1), step):
        run = rows[i:i + step]
        # exact: the node attaining ymax_k puts one of its points at
        # +-fl(|x_k| + fl(|t| ymax_k)), and rounding is monotone
        _require_finite(np.abs(X[run]) + np.abs(T[run])[:, None] * ymax, run,
                        "x + t y at a quadrature node")

        def piece_sums(block):  # the run's piece on one block, into pair sums
            return contract(*_paired_kernel(field, kernel, X, T, run, y[block]), y[block])

        try:
            totals = pair_expectation(scheme, piece_sums)
        except SingularPointError:
            name_bad_row(run)
            raise
        if not all(np.all(np.isfinite(total)) for total in totals):
            name_bad_row(run)
            _require_finite(np.concatenate([t.reshape(run.size, -1) for t in totals], axis=1),
                            run, "Gaussian average")
        if averages is None:
            averages = [np.empty((rows.size,) + total.shape[1:]) for total in totals]
        for average, total in zip(averages, totals):
            average[i:i + step] = total
    return averages


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


def gaussian_extension(spec: MapSpec, scheme: QuadratureScheme | None = None) -> ExtensionField:
    """Pair ``spec`` with a default (or given) quadrature scheme."""
    return ExtensionField(spec, scheme if scheme is not None else default_scheme(spec.dim))


@np.errstate(all="ignore")  # _require_finite names the row; a numpy warning only repeats it
def extend_points(field: ExtensionField, X, T) -> np.ndarray:
    """Lift a batch of half-space points; rows of X with heights T.

    Heights of exactly 0 take the direct boundary path (f(x), 0); negative
    heights are computed at |t| and the vertical component is negated, so
    the reflection symmetry is exact by construction.  Each row's result is
    bitwise independent of the batch it is evaluated in.  An overflowing
    point x + t y, map value or Gaussian average raises
    :class:`NonFiniteIntegrandError` naming its row, in the order of the
    module docstring: in one run of rows, a later row's bad point or value
    is named before an earlier row's overflowing average.
    """
    n = field.dim
    X, T = _batch(X, T, n)
    out = np.empty((X.shape[0], n + 1))

    boundary = np.flatnonzero(T == 0.0)
    if boundary.size:
        fx = map_values(field.spec, X[boundary])
        _require_finite(fx, boundary, "map evaluation at t = 0")
        out[boundary, :n] = fx
        out[boundary, n] = 0.0

    def contract(plus, minus, y):
        # <f(x+ty) - f(x-ty), y> first; then the pair sums f(x+ty) + f(x-ty)
        # overwrite the plus half, a (c, n, b) view with the node axis last
        vert = _contract_difference(plus, minus, y, np.empty(plus.shape[:2]))
        return np.add(plus, minus, out=plus).transpose(0, 2, 1), vert

    rows = np.flatnonzero(T != 0.0)
    horiz, vert = _pair_averages(field, map_values, X, T, rows, contract, "map evaluation")
    out[rows, :n] = horiz
    out[rows, n] = np.where(T[rows] < 0.0, -vert, vert)
    return out


@np.errstate(all="ignore")  # _require_finite names the row; a numpy warning only repeats it
def extension_jacobians(field: ExtensionField, X, T) -> np.ndarray:
    """DF at a batch of points, rows of X with heights T > 0; shape (m, n+1, n+1).

    DF(x, t) = E[B(Df(x + t y), y)] for the block integrand B of the
    module docstring.  Each point's matrix is bitwise independent of the
    batch it is evaluated in.  A non-finite point or height raises
    :class:`InvalidParameterError`, an overflowing ``x + t y``, base
    Jacobian or Gaussian average :class:`NonFiniteIntegrandError`, and a
    quadrature node at a point where the base map has no differential
    :class:`SingularPointError`, each naming its row in the order of the
    module docstring: in one run of rows, a later row's bad point or value
    is named before an earlier row's overflowing average.
    """
    n = field.dim
    X, T = _batch(X, T, n)
    low = np.flatnonzero(T <= 0.0)
    if low.size:
        raise NonpositiveHeightError(
            f"row {low[0]}: lifted Jacobian needs height > 0, got {T[low[0]]}")
    def contract(plus, minus, y):
        # pair sums of the block integrand, node axis last: the rows of S,
        # then D y and y^T D in one array, and the scalar y^T S y
        c, b = plus.shape[:2]
        sums = np.empty((c, n + 2, n, b))
        S = np.add(plus, minus, out=sums[:, :n].transpose(0, 3, 1, 2))
        Sy = np.empty((c, n, b))
        for i in range(n):
            _contract_difference(plus[..., i, :], minus[..., i, :], y, sums[:, n, i])
            _contract_difference(plus[..., i], minus[..., i], y, sums[:, n + 1, i])
            combine(np.moveaxis(S[..., i, :], -1, 0), y.T, Sy[:, i])
        return sums, combine(np.moveaxis(Sy, 1, 0), y.T, np.empty((c, b)))

    E, yAy = _pair_averages(field, map_jacobians, X, T, np.arange(X.shape[0]), contract,
                            "base Jacobian")
    DF = np.empty((X.shape[0], n + 1, n + 1))
    DF[:, :n, :n], DF[:, :n, n], DF[:, n, :n], DF[:, n, n] = E[:, :n], E[:, n], E[:, n + 1], yAy
    return DF


def extension_jacobian(field: ExtensionField, p) -> np.ndarray:
    """DF(x, t) for t > 0, at a point given as an (x, t) pair."""
    x, t = p
    return extension_jacobians(field, np.asarray(x, dtype=float)[None, :], np.array([float(t)]))[0]


def _half_space_map(n: int, lift):
    """``lift(X, T)``, on (m, n) bases and (m, 1) heights, as a plain
    callable on arrays of shape (..., n+1) (height = last coordinate)."""

    def lifted(P):
        arr = np.asarray(P, dtype=float)
        flat = arr.reshape(-1, n + 1)
        return lift(flat[:, :n], flat[:, n:]).reshape(arr.shape)

    return lifted


def full_space_map(field: ExtensionField):
    """The lift as a plain callable on R^{n+1} (height = last coordinate)."""
    return _half_space_map(field.dim, lambda X, T: extend_points(field, X, T[:, 0]))


def trivial_lift_map(spec: MapSpec):
    """The naive lift (x, t) -> (f(x), t), kept for refutation demos."""
    return _half_space_map(
        spec.dim, lambda X, T: np.concatenate([evaluate_map(spec, X), T], axis=1))


@dataclass(frozen=True, eq=False)
class ExtensionTable:
    """Evaluated grid: one row per input point, in the columns x_1..x_n, t,
    F_1..F_n, F_vert of :meth:`columns`."""

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
    errors name the offending row index.  The CLI lifts its arrays with
    :func:`extend_points` directly; this list form stays only because the
    benchmark (``perfbench/micro.py`` and ``perfbench/tracing.py``) imports it.
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
    if not np.all(np.isfinite(bounds)):
        raise InvalidParameterError(f"grid bounds must be finite, got {tuple(bounds)}")
    dim = check_integer(dim, "lattice dim", 1)
    nx = check_integer(nx, "lattice nx", 1)
    heights = np.asarray(heights, dtype=float)
    if heights.size == 0:
        raise InvalidParameterError("a lattice needs at least one height")
    check_allocation(nx**dim * heights.size * (dim + 1) * 8,
                     f"a {nx}^{dim} lattice at {heights.size} heights")
    axis = np.linspace(bounds[0], bounds[1], nx)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    base = np.stack([g.reshape(-1) for g in grids], axis=1)
    X = np.repeat(base, heights.size, axis=0)
    T = np.tile(heights, base.shape[0])
    return X, T
