"""Integration against the standard Gaussian density on R^n.

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
one contiguous vector over the nodes.  :func:`pair_expectation` reduces
along a contiguous last (node) axis, so its bits do not depend on the
layout a caller holds its values in.

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
    "default_scheme",
    "gaussian_expectation",
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
    # coordinate-major, written axis by axis from the grid's broadcast views:
    # no full-size temporaries, so the peak stays near the budgeted bytes
    nodes = np.empty((dim, order**dim))
    for row, axis in zip(nodes, np.meshgrid(*([x] * dim), indexing="ij", copy=False)):
        row.reshape(axis.shape)[...] = axis
    # C order: node N-1-i has the reversed multi-index of node i, so it is -node i bitwise
    weights = functools.reduce(np.multiply.outer, [w] * dim).reshape(-1)
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
    :class:`ResolutionError`; a negative ``seed`` raises
    :class:`InvalidParameterError` for either method.
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidParameterError(f"dim must be a positive integer, got {dim!r}")
    resolution, seed = int(resolution), int(seed)
    if seed < 0:
        raise InvalidParameterError(f"scheme seed must be a non-negative integer, got {seed}")
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


def pair_expectation(scheme: QuadratureScheme, pair_sums):
    """E[g] from the pair sums ``g(y) + g(-y)`` at the :func:`paired_nodes`.

    ``pair_sums`` holds them along its last axis, the node axis; at the
    centre node the pair sum is 2 g(0), weighted with half the centre
    weight.  Each pair is weighted once, with the weight of its first node.
    The sums are made contiguous (no copy when the caller built them so),
    so the result does not depend on the caller's layout.
    """
    s = np.ascontiguousarray(pair_sums)
    half = scheme.size // 2
    out = np.einsum("...n,n->...", s[..., :half], scheme.weights[:half])
    if scheme.size % 2:
        out = out + (0.5 * scheme.weights[half]) * s[..., half]
    return out


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
    return pair_expectation(scheme, sums)
