"""Doubling behaviour of pullback-style densities.

The density of interest is ||Df(x)|| (operator norm of the differential),
integrated over balls.  ``doubling_report`` tabulates mass(2B) / mass(B)
over a grid of centers and radii, and ``gaussian_moment_ratio`` compares
moments of the measure against the mass of the unit ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ballrules import ball_integral, ball_rule
from .core import MapSpec, evaluate_map_jacobian
from .differential import spectral_norms
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    ZeroMassError,
)
from .quadrature import QuadratureScheme, default_scheme, gaussian_expectation

__all__ = [
    "lebesgue_density",
    "jacobian_norm_density",
    "DoublingReport",
    "doubling_report",
    "MomentRatio",
    "gaussian_moment_ratio",
]


def lebesgue_density():
    """Constant density 1 in any dimension (so masses are plain volumes)."""

    def density(pts):
        pts = np.asarray(pts, dtype=float)
        return np.ones(pts.shape[:-1])

    return density


def jacobian_norm_density(spec: MapSpec):
    """x -> ||Df(x)|| as a batch density; a non-finite Df raises
    :class:`NonFiniteIntegrandError` rather than reaching the SVD (which
    fails to converge on it)."""

    def density(pts):
        with np.errstate(all="ignore"):
            jac = evaluate_map_jacobian(spec, pts)
        if not np.all(np.isfinite(jac)):
            raise NonFiniteIntegrandError("the map's Jacobian overflowed at an integration point")
        return spectral_norms(jac)

    return density


@dataclass(frozen=True, eq=False)
class DoublingReport:
    """Masses of B and 2B over a centers x radii grid.

    ``constant_hat`` is the largest observed ratio mass(2B)/mass(B); a
    nonpositive or non-finite ball mass aborts the report.
    """

    centers: np.ndarray   # (m, dim)
    radii: np.ndarray     # (k,)
    masses: np.ndarray    # (m, k)
    masses_doubled: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        for masses in (self.masses, self.masses_doubled):
            if not (np.all(np.isfinite(masses)) and np.all(masses > 0.0)):
                raise ZeroMassError("ball masses must be finite and positive")

    @property
    def constant_hat(self) -> float:
        return float(self.ratios.max())

    def columns(self):
        dim = self.centers.shape[1]
        head = ["cx", "cy"] if dim == 2 else [f"c{i + 1}" for i in range(dim)]
        return head + ["r", "mass", "mass2x", "ratio"]

    def rows(self):
        m, k = self.masses.shape
        return np.column_stack([np.repeat(self.centers, k, axis=0), np.tile(self.radii, m),
                                self.masses.ravel(), self.masses_doubled.ravel(),
                                self.ratios.ravel()])


@np.errstate(all="ignore")  # the mass check reports an overflow; a numpy warning only repeats it
def doubling_report(density, centers, radii) -> DoublingReport:
    """Tabulate mass(B(c, 2r)) / mass(B(c, r)) over all (c, r) pairs.

    Both balls reuse one set of scaled unit-ball nodes, so for the
    constant density the ratio is exactly 2^dim in floating point.  Each
    (center, radius) takes one :func:`ball_integral` call over (r, 2r), so
    the memory held does not grow with the number of radii.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if centers.size == 0 or radii.size == 0:
        raise InvalidParameterError("doubling needs at least one center and one radius")
    if np.any(radii <= 0.0) or not np.all(np.isfinite(radii)):
        raise InvalidParameterError("radii must be positive and finite")
    if not np.all(np.isfinite(centers)):
        raise InvalidParameterError("centers must be finite")
    rule = ball_rule(centers.shape[1])
    masses, doubled = np.moveaxis(np.array(
        [[ball_integral(rule, density, c, (r, 2.0 * r)) for r in radii] for c in centers]), -1, 0)
    return DoublingReport(centers, radii, masses, doubled, doubled / masses)


@dataclass(frozen=True)
class MomentRatio:
    """integral of |y|^p (restricted to a half space if asked) against the
    density's Gaussian-weighted mass, divided by the density's unit-ball mass."""

    p: float
    integral: float
    ball_mass: float

    @property
    def ratio(self) -> float:
        return self.integral / self.ball_mass


@np.errstate(all="ignore")  # a non-finite integral or mass is reported; a numpy warning only repeats it
def gaussian_moment_ratio(density, p: float, dim: int,
                          halfspace_normal=None,
                          scheme: QuadratureScheme | None = None) -> MomentRatio:
    """E[|y|^p rho(y) (1_{<y, xi> >= 0} if xi given)] / mass_rho(B(0, 1)).

    The numerator is a Gaussian expectation; the denominator integrates
    the same density over the unit ball, so constants cancel for the
    Lebesgue density up to the normalising volume.  A half-space normal
    must be finite and nonzero.  A numerator that overflows raises
    :class:`NonFiniteIntegrandError`.
    """
    if not p >= 0.0:
        raise InvalidParameterError(f"moment exponent must be nonnegative, got {p}")
    if scheme is None:
        scheme = default_scheme(dim)
    if scheme.dim != dim:
        raise DimensionMismatchError(f"scheme dim {scheme.dim} vs requested dim {dim}")
    y = scheme.nodes
    vals = np.linalg.norm(y, axis=1) ** p * np.asarray(density(y), dtype=float)
    if halfspace_normal is not None:
        xi = np.asarray(halfspace_normal, dtype=float)
        if xi.shape != (dim,):
            raise DimensionMismatchError(f"normal shape {xi.shape} vs dim {dim}")
        if not (np.all(np.isfinite(xi)) and np.any(xi != 0.0)):
            raise InvalidParameterError(f"half-space normal must be finite and nonzero, got {xi.tolist()}")
        vals = np.where(y @ xi >= 0.0, vals, 0.0)
    integral = float(gaussian_expectation(scheme, vals))
    if not np.isfinite(integral):
        raise NonFiniteIntegrandError(f"Gaussian moment of order {p} overflowed")
    mass = ball_integral(ball_rule(dim), density, np.zeros(dim), 1.0)
    if not (np.isfinite(mass) and mass > 0.0):
        raise ZeroMassError("unit-ball mass must be finite and positive")
    return MomentRatio(p=float(p), integral=integral, ball_mass=mass)
