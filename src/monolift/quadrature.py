"""Integration against the standard Gaussian density on R^n.

The tensor Gauss-Hermite rule keeps only the nodes whose product weight is
at least 1e-16 of the largest (20 of 20 nodes at the default order 20 in
dim 1, 368 of 400 in dim 2, 5888 of 8000 in dim 3), in C order, with the
kept weights renormalised.  So it integrates polynomials through its
degree to about 1e-14 relative, not exactly: at the defaults
gaussian_expectation puts E[y y^T] within 6e-15 of I.

Node sets are built once per scheme, are exactly symmetric under
``y -> -y`` (the second half of the node array is the bitwise negation of
the first half, reversed), and carry probability weights.  Expectations
are accumulated over (+y, -y) pairs, so odd integrands cancel exactly in
floating point, not just up to rounding.  The pairing rule lives here:
:func:`paired_nodes` gives one node of each pair (and the centre node of an
odd count), and :func:`pair_expectation` weights the pair sums
g(y) + g(-y) at them.  :func:`gaussian_expectation` forms those sums from
values at all N nodes; the lift and its Jacobian form them from the map
evaluated only at x + t y and x - t y (x - t y is bitwise the point at the
reflected node): f(x+ty) + f(x-ty) for the even parts of the integrand and
<f(x+ty) - f(x-ty), y> for the odd ones.

The nodes are stored coordinate-major: ``scheme.nodes`` has shape (N, n)
but contiguous columns, so each coordinate of the :func:`paired_nodes` is
one contiguous vector over the nodes.  :func:`gaussian_expectation`
reduces its pair sums C-ordered, so its bits do not depend on the layout a
caller holds its values in.

There is one reduction rule, applied by :func:`pair_expectation` alone.
The paired nodes are cut into the :func:`pair_blocks`, runs of at most 2^13
consecutive nodes; each block's weighted pair sums are one einsum, the block
sums are added left to right, and the centre node of an odd count is added
last.  einsum reduces up to 2^13 contiguous terms per output in one pass
whether it has one output or many, so a result's bits depend neither on how
many rows share the reduction nor on whether the caller holds all the pair
sums (:func:`gaussian_expectation`) or forms one block at a time (the lift,
whose working set is then one block whatever the rule's size).  Rules of at
most 2^13 pairs are one block.

Sobol points come from :func:`sobol_points`, which draws scipy's scrambled
Sobol rule bit for bit with numpy alone: the Joe-Kuo direction numbers are
read from the table scipy ships beside its Sobol engine, once per process
on the first draw, and nothing imports ``scipy.stats``.  ``scipy.special``
(``ndtri``) is imported inside the quasi-random builder, so only
quasi-random Gaussian rules load it.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidParameterError,
    ResolutionError,
)

__all__ = [
    "TENSOR_HERMITE",
    "QUASI_RANDOM",
    "QuadratureScheme",
    "build_scheme",
    "check_allocation",
    "check_integer",
    "default_scheme",
    "gaussian_expectation",
    "pair_blocks",
    "pair_expectation",
    "paired_nodes",
    "sobol_points",
]

TENSOR_HERMITE = "tensor_hermite"
QUASI_RANDOM = "quasi_random"

# the most bytes one array set may take: a rule's nodes plus weights, a lattice,
# or a sample of pairs, triples or matrices
_MAX_ALLOCATION_BYTES = 256 << 20
_SOBOL_BITS = 30           # bits per Sobol coordinate, scipy's default
_SCRAMBLE_DIMS = 256       # dimensions per block of the scramble's (dims, 30, 30) draw
# paired nodes per block of the node reduction: numpy's einsum buffers a lone
# output's reduction in blocks of this size, so no einsum here reduces more
_BLOCK_PAIRS = 1 << 13


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Immutable node/weight set for the standard normal on R^dim."""

    dim: int
    method: str
    resolution: int
    seed: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.nodes.shape[0])

    def descriptor(self) -> str:
        return f"{self.method}:r{self.resolution}:seed{self.seed}:dim{self.dim}"


def _hermite_1d(order: int):
    # probabilists' Gauss-Hermite, then exact symmetrisation: antisymmetrise
    # the nodes and symmetrise the weights so reversal is a bitwise negation;
    # past order ~370 the weights overflow, which build_scheme reports
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite_e.hermegauss(order)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w / w.sum()


def _tensor_arrays(dim: int, order: int):
    x, w = _hermite_1d(order)
    # the product rule less its nodes of weight under 1e-16 of the largest, which
    # add nothing to any sum (P. Jaeckel, A note on multivariate Gauss-Hermite
    # quadrature, 2005).  Node (i, j, ..) weighs ((w_i w_j) ..), multiplied in
    # np.multiply.outer's order, so a slab of the first index has the full
    # product's bits.  The slabs, of about 2^13 nodes or one first index, are
    # counted, then written into the kept arrays: no full-size temporary.
    # NaN weights are kept, for build_scheme to report.
    floor = 1e-16 * functools.reduce(np.multiply, [w.max()] * dim)
    step = max(1, (1 << 13) // order ** (dim - 1))

    def slabs():  # the first indices of a slab, its weights, and which are kept
        for i in range(0, order, step):
            s = functools.reduce(np.multiply.outer, [w[i:i + step]] + [w] * (dim - 1))
            yield slice(i, i + step), s, ~(s < floor)

    size = sum(int(np.count_nonzero(keep)) for _, _, keep in slabs())
    nodes, weights = np.empty((dim, size)), np.empty(size)  # coordinate-major
    a = 0
    for first, s, keep in slabs():
        k = np.flatnonzero(keep)
        b = a + k.size
        for row, axis, index in zip(nodes[:, a:b], [x[first]] + [x] * (dim - 1),
                                    np.unravel_index(k, s.shape)):
            np.take(axis, index, out=row)
        np.take(s, k, out=weights[a:b])
        a = b
    # C order and a symmetric floor: kept node K-1-k has the reversed multi-index
    # of kept node k, so it is -node k bitwise
    weights /= weights.sum()
    return nodes.T, weights


@functools.cache
def _sobol_table():
    """Each dimension's primitive polynomial and first direction numbers, from
    the Joe-Kuo table (S. Joe and F. Y. Kuo, SIAM J. Sci. Comput. 30, 2008)
    that scipy ships beside its Sobol engine.  Read once per process, on the
    first Sobol draw, and kept as uint32 (1.6 MB), as scipy's engine keeps it."""
    import scipy  # the package only, for the path of its table

    path = os.path.join(os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        arrays = table["poly"].astype(np.uint32), table["vinit"].astype(np.uint32)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=4)
def _sobol_directions(dim: int) -> np.ndarray:
    """Unscrambled direction numbers of the first ``dim`` dimensions, 30 per
    dimension; read-only, uint32.

    Number j of a dimension whose primitive polynomial has degree m and inner
    coefficients a_1 .. a_{m-1} follows the Bratley-Fox recurrence
    v_j = v_{j-m} ^ (v_{j-m} << m) ^ XOR_k a_k (v_{j-k} << k) from the table's
    first m numbers; the first dimension is all ones.  Each v_j is below
    2^(j+1), and is stored shifted left by 29 - j, to fill 30 bits.
    """
    poly, vinit = (a[:dim] for a in _sobol_table())
    degree = np.frexp(poly)[1] - 1          # 0 for the first dimension's polynomial, 1
    top = int(degree.max())
    tap = np.arange(top)[:, None]
    # taps[k] gates v_{j-1-k} << (k+1): polynomial bit m-1-k, always set at k = m-1
    taps = ((poly >> np.maximum(degree - 1 - tap, 0)) & 1 & (tap < degree)).astype(np.uint32)
    v = np.zeros((_SOBOL_BITS, dim), dtype=np.uint32)   # v[j, d], number j of dimension d
    v[:top] = vinit[:, :top].T
    v[:, 0] = 1
    dims = np.arange(dim)
    for j in range(1, _SOBOL_BITS):
        new = v[j - degree, dims]  # v_{j-m}; dimensions with m > j keep their table entry
        for k in range(min(j, top)):
            new ^= (v[j - 1 - k] << (k + 1)) * taps[k]
        np.copyto(v[j], new, where=(degree > 0) & (degree <= j))
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)[:, None]
    out = np.ascontiguousarray(v.T)
    out.flags.writeable = False
    return out


def sobol_points(dim: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` (>= 1) points of scipy's scrambled Sobol rule:
    ``scipy.stats.qmc.Sobol(d=dim, scramble=True, seed=seed).random(count)``,
    bit for bit, drawn with numpy alone.  The (count, dim) result is the
    transpose of a coordinate-major array, where scipy's is C-ordered.

    The scramble is scipy's: from ``np.random.default_rng(seed)`` a digital
    shift of 30 random bits per dimension, then per dimension a random lower
    triangular 30 x 30 bit matrix with a unit diagonal (a linear matrix
    scramble) applied to every direction number over GF(2).  Point i is the
    shift XOR the scrambled numbers at the set bits of the Gray code of i,
    built by doubling: points [2^k, 2^(k+1)) are points [0, 2^k) reversed,
    XOR number k.  A ``dim`` beyond the table (21201 dimensions) raises
    :class:`InvalidParameterError`.
    """
    most = len(_sobol_table()[0])
    if dim > most:
        raise InvalidParameterError(f"Sobol rules have at most {most} dimensions, got {dim}")
    directions = _sobol_directions(dim)
    rng = np.random.default_rng(seed)
    top_first = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # bit i counted from the top
    shift = (rng.integers(0, 2, (dim, _SOBOL_BITS), dtype=np.uint32)
             @ (np.uint32(1) << np.arange(_SOBOL_BITS, dtype=np.uint32)))
    scrambled = np.empty((dim, _SOBOL_BITS), dtype=np.uint32)
    unit = np.eye(_SOBOL_BITS, dtype=np.uint32)
    for s in range(0, dim, _SCRAMBLE_DIMS):  # the draws continue one stream, as one draw would
        e = min(s + _SCRAMBLE_DIMS, dim)
        lower = np.tril(rng.integers(0, 2, (e - s, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32), -1)
        columns = ((lower | unit) << top_first[:, None]).sum(axis=1, dtype=np.uint32)
        bits = (directions[s:e, :, None] >> top_first) & 1
        scrambled[s:e] = np.bitwise_xor.reduce(bits * columns[:, None, :], axis=2)
    points = np.empty((dim, count), dtype=np.uint32)
    points[:, 0] = shift
    n = 1
    for k in range((count - 1).bit_length()):
        e = min(2 * n, count)
        np.bitwise_xor(points[:, n - 1::-1][:, :e - n], scrambled[:, k, None], out=points[:, n:e])
        n = e
    return points.T * (1.0 / (1 << _SOBOL_BITS))


def _quasi_arrays(dim: int, count: int, seed: int):
    from scipy.special import ndtri

    half = count // 2
    u = np.clip(sobol_points(dim, half, seed), 1e-16, 1.0 - 1e-16)
    z = ndtri(u).T
    nodes = np.empty((dim, count))  # coordinate-major
    nodes[:, :half] = z
    np.negative(z[:, ::-1], out=nodes[:, half:])
    weights = np.full(count, 1.0 / count)
    return nodes.T, weights


def build_scheme(dim: int, method: str, resolution: int, seed: int = 0) -> QuadratureScheme:
    """Build a deterministic Gaussian quadrature scheme.

    ``tensor_hermite`` uses a per-axis Gauss-Hermite rule of order
    ``resolution`` (>= 2); ``quasi_random`` uses ``resolution`` (>= 16,
    rounded up to a power of two, which Sobol points need for their balance)
    scrambled-Sobol points pushed through the normal inverse CDF and
    symmetrised.  A rule whose nodes plus weights would pass 256 MiB raises
    :class:`DimensionOverflowError` before anything is allocated, for either
    method.  A resolution whose rule has non-finite nodes or weights raises
    :class:`ResolutionError`.  A ``dim`` or ``resolution`` that is not a
    positive integer, or a ``seed`` that is not a non-negative one, raises
    :class:`InvalidParameterError` for either method.
    """
    dim = check_integer(dim, "dim", 1)
    resolution = check_integer(resolution, "resolution", 1)
    seed = check_integer(seed, "scheme seed", 0)
    if method == TENSOR_HERMITE:
        if resolution < 2:
            raise ResolutionError(f"tensor_hermite needs resolution >= 2, got {resolution}")
        size, rule = resolution**dim, f"tensor rule with {resolution}^{dim} nodes"
    elif method == QUASI_RANDOM:
        if resolution < 16:
            raise ResolutionError(f"quasi_random needs resolution >= 16, got {resolution}")
        resolution = 1 << (resolution - 1).bit_length()  # also even, as node pairing needs
        size, rule = resolution, f"quasi-random rule with {resolution} nodes"
    else:
        raise InvalidParameterError(f"unknown quadrature method {method!r}")
    check_allocation(size * (dim + 1) * 8, f"the nodes and weights of a {rule}")
    nodes, weights = (_tensor_arrays(dim, resolution) if method == TENSOR_HERMITE
                      else _quasi_arrays(dim, resolution, seed))
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ResolutionError(
            f"{method} at resolution {resolution} gives non-finite nodes or weights")
    return QuadratureScheme(dim, method, resolution, seed, nodes, weights)


def check_allocation(nbytes: int, what: str) -> None:
    """Raise :class:`DimensionOverflowError` when ``what`` would take more than
    the 256 MiB budget.  Callers check before they allocate anything."""
    if nbytes > _MAX_ALLOCATION_BYTES:
        raise DimensionOverflowError(
            f"{what} would take {nbytes / 2**20:.0f} MiB, "
            f"over the {_MAX_ALLOCATION_BYTES >> 20} MiB budget")


def check_integer(value, what: str, least: int) -> int:
    """``value`` as an ``int``; :class:`InvalidParameterError` unless it is an
    integer (a Python or numpy one, not a bool) of at least ``least``, 0 or 1.

    A float count or seed would otherwise fail later inside numpy with a
    ``TypeError``, or be truncated; a numpy integer comes back as an ``int``,
    so digests and JSON do not depend on its type.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        bound = "a non-negative integer" if least == 0 else "a positive integer"
        raise InvalidParameterError(f"{what} must be {bound}, got {value}")
    return int(value)


def default_scheme(dim: int, seed: int = 0, method: str | None = None,
                   resolution: int | None = None) -> QuadratureScheme:
    """The scheme with the defaults filled in: the tensor rule up to dim 3
    and the quasi-random rule beyond, of order 20 and 2^16 nodes."""
    if method is None:
        method = TENSOR_HERMITE if dim <= 3 else QUASI_RANDOM
    if resolution is None:
        resolution = 20 if method == TENSOR_HERMITE else 2**16
    return build_scheme(dim, method, resolution, seed)


def paired_nodes(scheme: QuadratureScheme) -> np.ndarray:
    """One node of each reflected pair: ``nodes[:N//2]``, then the centre
    node y = 0 when the node count N is odd."""
    return scheme.nodes[:(scheme.size + 1) // 2]


def pair_blocks(scheme: QuadratureScheme) -> list[slice]:
    """The blocks of the node reduction, in order: runs of at most 2^13
    consecutive :func:`paired_nodes`; the last holds the centre node of an
    odd node count."""
    h = (scheme.size + 1) // 2
    return [slice(a, min(a + _BLOCK_PAIRS, h)) for a in range(0, h, _BLOCK_PAIRS)]


def pair_expectation(scheme: QuadratureScheme, block_sums) -> list[np.ndarray]:
    """E[g] for each integrand g whose pair sums ``g(y) + g(-y)`` at the
    :func:`paired_nodes` of each of the :func:`pair_blocks` come back, as a
    tuple of arrays along a last axis of unit stride, from one call of
    ``block_sums(block)`` per block, in order.  Each tuple is dropped before
    the next call.  A block's pairs are weighted in one einsum, each with
    its first node's weight, and added to the totals; the centre node's sum
    2 g(0) is weighted with half the centre weight and added last.
    """
    half = scheme.size // 2
    totals = None
    for block in pair_blocks(scheme):
        sums = block_sums(block)
        pairs = min(block.stop, half) - block.start
        if pairs > 0:
            w = scheme.weights[block.start:block.start + pairs]
            parts = [np.einsum("...n,n->...", s[..., :pairs], w) for s in sums]
            totals = parts if totals is None else [t + p for t, p in zip(totals, parts)]
        if block.stop > half:
            totals = [t + (0.5 * scheme.weights[half]) * s[..., pairs]
                      for t, s in zip(totals, sums)]
        del sums  # drop the block before the next is made
    return totals


def gaussian_expectation(scheme: QuadratureScheme, values, axis: int = 0):
    """Weighted node sum, accumulated over (+y, -y) pairs.

    ``values`` holds per-node evaluations along ``axis``.  Because node
    ``i`` pairs with node ``N-1-i`` (its exact negation) and the pair sum
    is formed before weighting (:func:`pair_expectation`), any integrand
    with ``g(-y) == -g(y)`` bitwise sums to exactly zero.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = scheme.size
    if v.shape[-1] != n:
        raise DimensionMismatchError(f"got {v.shape[-1]} node values for a scheme of size {n}")
    k = (n + 1) // 2
    sums = np.add(v[..., :k], v[..., ::-1][..., :k], out=np.empty(v.shape[:-1] + (k,)))
    return pair_expectation(scheme, lambda block: (sums[..., block],))[0]
