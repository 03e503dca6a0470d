"""Quadrature rules on the closed unit ball.

Dimension 2 gets a polar product rule (Gauss-Legendre radially, trapezoid
in the angle, which is spectrally accurate on the circle).  Higher
dimensions fall back to quasirandom rejection sampling from the enclosing
cube, with 2^15 Sobol points scrambled under seed 0
(:func:`~monolift.quadrature.sobol_points`), so every rule is deterministic.
The ball's share of the cube falls fast with the dimension: 3 points are
kept in dim 13, and none from dim 14 on, which raises.
The cube points are checked against the shared 256 MiB budget before they
are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .quadrature import check_allocation, sobol_points

__all__ = ["BallRule", "ball_rule", "ball_integral"]

_RADIAL = 32             # Gauss-Legendre radii (twice as many points in dim 1)
_ANGULAR = 64            # trapezoid angles in dim 2
_LOG2_SOBOL_POINTS = 15  # 2^15 cube points drawn in dim >= 3, before rejection


@dataclass(frozen=True, eq=False)
class BallRule:
    """Nodes inside the unit ball of R^dim; weights sum to ~vol(B^dim)."""

    dim: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def ball_rule(dim: int) -> BallRule:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidParameterError(f"dim must be a positive integer, got {dim!r}")
    if dim == 1:
        x, w = np.polynomial.legendre.leggauss(2 * _RADIAL)
        return BallRule(1, x[:, None], w)
    if dim == 2:
        return _polar_rule()
    return _cube_rejection_rule(dim)


def _polar_rule():
    x, u = np.polynomial.legendre.leggauss(_RADIAL)
    r = 0.5 * (x + 1.0)          # Gauss-Legendre mapped to [0, 1]
    wr = 0.5 * u * r             # area element r dr
    theta = 2.0 * np.pi * np.arange(_ANGULAR) / _ANGULAR
    wt = 2.0 * np.pi / _ANGULAR
    nodes = np.stack(
        [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()],
        axis=1,
    )
    weights = np.repeat(wr, _ANGULAR) * wt
    return BallRule(2, nodes, weights)


def _cube_rejection_rule(dim):
    count = 1 << _LOG2_SOBOL_POINTS
    check_allocation(count * dim * 8, f"the {count} cube points of a ball rule in dimension {dim}")
    # C order: einsum's bits for each point's |u|^2 depend on the layout
    u = np.ascontiguousarray(2.0 * sobol_points(dim, count, 0) - 1.0)
    keep = np.einsum("ki,ki->k", u, u) <= 1.0
    if not np.any(keep):
        raise InvalidParameterError(f"the ball rule in dimension {dim} keeps none of its "
                                    f"{count} cube points inside the unit ball")
    nodes = u[keep]
    # each point carries the cube's volume 2^dim over the count, a float up to dim 1024
    weights = np.full(nodes.shape[0], 2.0 ** (dim - _LOG2_SOBOL_POINTS))
    return BallRule(dim, nodes, weights)


def ball_integral(rule: BallRule, density, center, radius):
    """Integrate ``density`` over B(center, r) for each r of ``radius``, a float
    or an array (the result has its shape); ``density`` is called once, on the
    points of all the balls as one (-1, dim) array."""
    radius = np.asarray(radius, dtype=float)
    pts = np.asarray(center, dtype=float) + radius[..., None, None] * rule.nodes
    vals = np.asarray(density(pts.reshape(-1, rule.dim)), dtype=float).reshape(pts.shape[:-1])
    out = radius**rule.dim * np.einsum("...k,k->...", vals, rule.weights)
    return float(out) if out.ndim == 0 else out
