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

``scipy.stats`` and ``scipy.special`` are imported inside the Sobol builder,
not at module level: they cost most of a process's start-up, and only
quasi-random rules use them.
"""

from __future__ import annotations

import functools
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
    "default_scheme",
    "gaussian_expectation",
    "pair_expectation",
    "paired_nodes",
]

TENSOR_HERMITE = "tensor_hermite"
QUASI_RANDOM = "quasi_random"

# bytes of a tensor rule's nodes plus weights, order**dim * (dim + 1) * 8
_MAX_TENSOR_BYTES = 256 << 20
_SYMMETRY_BLOCK = 1 << 16  # node rows per block of the reversal-symmetry check


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
    nbytes = order**dim * (dim + 1) * 8
    if nbytes > _MAX_TENSOR_BYTES:
        raise DimensionOverflowError(
            f"tensor rule with {order}^{dim} nodes needs {nbytes / 2**20:.0f} MiB of nodes and "
            f"weights, over the {_MAX_TENSOR_BYTES >> 20} MiB budget"
        )
    x, w = _hermite_1d(order)
    # coordinate-major, written axis by axis from the grid's broadcast views:
    # no full-size temporaries, so the peak stays near the budgeted bytes
    nodes = np.empty((dim, order**dim))
    for row, axis in zip(nodes, np.meshgrid(*([x] * dim), indexing="ij", copy=False)):
        row.reshape(axis.shape)[...] = axis
    weights = functools.reduce(np.multiply.outer, [w] * dim).reshape(-1)
    weights /= weights.sum()
    return nodes.T, weights


def _quasi_arrays(dim: int, count: int, seed: int):
    from scipy.special import ndtri
    from scipy.stats import qmc

    half = count // 2
    engine = qmc.Sobol(d=dim, scramble=True, seed=seed)
    u = engine.random(half)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
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
    rounded up to even) scrambled-Sobol points pushed through the normal
    inverse CDF and symmetrised.  A resolution whose rule has non-finite
    nodes or weights raises :class:`ResolutionError`; a negative ``seed``
    raises :class:`InvalidParameterError` for either method.
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidParameterError(f"dim must be a positive integer, got {dim!r}")
    resolution, seed = int(resolution), int(seed)
    if seed < 0:
        raise InvalidParameterError(f"scheme seed must be a non-negative integer, got {seed}")
    if method == TENSOR_HERMITE:
        if resolution < 2:
            raise ResolutionError(f"tensor_hermite needs resolution >= 2, got {resolution}")
        nodes, weights = _tensor_arrays(dim, resolution)
    elif method == QUASI_RANDOM:
        if resolution < 16:
            raise ResolutionError(f"quasi_random needs resolution >= 16, got {resolution}")
        resolution += resolution & 1  # node pairing requires an even count
        nodes, weights = _quasi_arrays(dim, resolution, seed)
    else:
        raise InvalidParameterError(f"unknown quadrature method {method!r}")
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ResolutionError(
            f"{method} at resolution {resolution} gives non-finite nodes or weights")
    _require_reversal_symmetry(nodes)
    return QuadratureScheme(dim, method, resolution, seed, nodes, weights)


def _require_reversal_symmetry(nodes: np.ndarray) -> None:
    """Raise unless ``nodes[::-1]`` is bitwise ``-nodes``, which the paired sum
    in :func:`gaussian_expectation` relies on.  Checked block by block, with
    no full-size temporary; for finite floats x + y == 0 exactly iff y == -x.
    """
    half = (nodes.shape[0] + 1) // 2
    rev = nodes[::-1]
    for s in range(0, half, _SYMMETRY_BLOCK):
        e = min(s + _SYMMETRY_BLOCK, half)
        if np.any(nodes[s:e] + rev[s:e]):
            raise RuntimeError(f"quadrature node set lost reversal symmetry near node {s}")


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


def pair_expectation(scheme: QuadratureScheme, pair_sums, axis: int = 0):
    """E[g] from the pair sums ``g(y) + g(-y)`` at the :func:`paired_nodes`.

    ``pair_sums`` holds them along ``axis``; at the centre node the pair
    sum is 2 g(0), weighted with half the centre weight.  Each pair is
    weighted once, with the weight of its first node.  The node axis is
    moved last and made contiguous (no copy when the caller built it so),
    so the result does not depend on the caller's layout.
    """
    s = np.ascontiguousarray(np.moveaxis(pair_sums, axis, -1))
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
    return pair_expectation(scheme, sums, axis=-1)
