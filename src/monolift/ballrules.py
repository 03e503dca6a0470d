"""Quadrature rules on the closed unit ball.

Dimension 2 gets a polar product rule (Gauss-Legendre radially, trapezoid
in the angle, which is spectrally accurate on the circle).  Higher
dimensions fall back to quasirandom rejection sampling from the enclosing
cube.  All rules are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .errors import InvalidParameterError

__all__ = ["BallRule", "ball_rule", "ball_integral"]


@dataclass(frozen=True, eq=False)
class BallRule:
    """Nodes inside the unit ball of R^dim; weights sum to ~vol(B^dim)."""

    dim: int
    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.nodes.shape[0])

    def descriptor(self) -> str:
        return f"{self.kind}:n{self.size}:seed{self.seed}:dim{self.dim}"


def ball_rule(dim: int, seed: int = 0, radial: int = 32, angular: int = 64,
              qmc_points: int = 2**15) -> BallRule:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidParameterError(f"dim must be a positive integer, got {dim!r}")
    if dim == 1:
        x, w = np.polynomial.legendre.leggauss(2 * radial)
        return BallRule(1, "gauss_legendre", x[:, None], w, seed)
    if dim == 2:
        return _polar_rule(radial, angular, seed)
    return _cube_rejection_rule(dim, qmc_points, seed)


def _polar_rule(radial, angular, seed):
    x, u = np.polynomial.legendre.leggauss(radial)
    r = 0.5 * (x + 1.0)          # Gauss-Legendre mapped to [0, 1]
    wr = 0.5 * u * r             # area element r dr
    theta = 2.0 * np.pi * np.arange(angular) / angular
    wt = 2.0 * np.pi / angular
    nodes = np.stack(
        [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()],
        axis=1,
    )
    weights = np.repeat(wr, angular) * wt
    return BallRule(2, "polar_product", nodes, weights, seed)


def _cube_rejection_rule(dim, count, seed):
    engine = qmc.Sobol(d=dim, scramble=True, seed=seed)
    u = 2.0 * engine.random(count) - 1.0
    keep = np.einsum("ki,ki->k", u, u) <= 1.0
    nodes = u[keep]
    weights = np.full(nodes.shape[0], 2.0**dim / count)
    return BallRule(dim, "sobol_rejection", nodes, weights, seed)


def ball_integral(rule: BallRule, density, center, radius: float) -> float:
    """Integrate ``density`` over the ball B(center, radius)."""
    center = np.asarray(center, dtype=float)
    pts = center[None, :] + radius * rule.nodes
    vals = np.asarray(density(pts), dtype=float)
    return float(radius**rule.dim * np.einsum("k,k->", rule.weights, vals))

