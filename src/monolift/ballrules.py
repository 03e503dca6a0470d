"""Quadrature rules on the closed unit ball.

Dimension 2 gets a polar product rule (Gauss-Legendre radially, trapezoid
in the angle, which is spectrally accurate on the circle).  Higher
dimensions fall back to quasirandom rejection sampling from the enclosing
cube, with Sobol points scrambled under seed 0, so every rule is
deterministic.  Only that fallback imports ``scipy.stats``, inside the
function, so building a rule in dimension 1 or 2 does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = ["BallRule", "ball_rule", "ball_integral"]

_RADIAL = 32             # Gauss-Legendre radii (twice as many points in dim 1)
_ANGULAR = 64            # trapezoid angles in dim 2
_SOBOL_POINTS = 2**15    # cube points drawn in dim >= 3, before rejection


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
    from scipy.stats import qmc

    engine = qmc.Sobol(d=dim, scramble=True, seed=0)
    u = 2.0 * engine.random(_SOBOL_POINTS) - 1.0
    keep = np.einsum("ki,ki->k", u, u) <= 1.0
    nodes = u[keep]
    weights = np.full(nodes.shape[0], 2.0**dim / _SOBOL_POINTS)
    return BallRule(dim, nodes, weights)


def ball_integral(rule: BallRule, density, center, radius: float) -> float:
    """Integrate ``density`` over the ball B(center, radius)."""
    center = np.asarray(center, dtype=float)
    pts = center[None, :] + radius * rule.nodes
    vals = np.asarray(density(pts), dtype=float)
    return float(radius**rule.dim * np.einsum("k,k->", rule.weights, vals))

