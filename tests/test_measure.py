"""Doubling reports and Gaussian moment ratios."""

import math
import tracemalloc

import numpy as np
import pytest

from monolift import (
    ball_integral,
    ball_rule,
    convex_gradient_quartic_map,
    doubling_report,
    gaussian_moment_ratio,
    jacobian_norm_density,
    lebesgue_density,
    power_radial_map,
    build_scheme,
)
from monolift.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    ZeroMassError,
)

from conftest import monotone_gallery_2d, spec_id


def test_lebesgue_doubling_dim2_exact():
    # shared scaled nodes make the volume ratio exactly 2^dim
    report = doubling_report(lebesgue_density(), [[0.0, 0.0], [3.0, -1.0]], [0.5, 1.0, 2.0])
    assert np.all(report.ratios == 4.0)
    assert report.constant_hat == 4.0


def test_lebesgue_doubling_exact_at_any_radius():
    # r^2 and (2r)^2 are both correctly rounded squares, so their ratio is
    # exactly 4; a libm pow(r, 2) missed it by an ulp at these radii
    radii = [2.13385565026647, 29.402575362981953]
    assert np.all(doubling_report(lebesgue_density(), [[0.0, 0.0]], radii).ratios == 4.0)


def test_lebesgue_doubling_dim3():
    report = doubling_report(lebesgue_density(), [[0.0, 0.0, 0.0]], [1.0])
    assert report.ratios[0, 0] == pytest.approx(8.0, abs=1e-12)


def test_radial_density_doubling_exact():
    # ||Df|| = 2|x| for |x|x; centered at 0 the mass scales like r^3
    density = jacobian_norm_density(power_radial_map(2, 1.0))
    report = doubling_report(density, [[0.0, 0.0]], [0.25, 1.0, 4.0])
    assert np.allclose(report.ratios, 8.0, atol=1e-12)


@pytest.mark.parametrize("spec", monotone_gallery_2d(), ids=spec_id)
def test_gallery_doubling_constants_finite(spec, rng):
    density = jacobian_norm_density(spec)
    centers = rng.uniform(-5.0, 5.0, (8, 2))
    radii = np.geomspace(1e-2, 1e2, 5)
    report = doubling_report(density, centers, radii)
    assert np.all(np.isfinite(report.ratios))
    # doubling can only grow the mass of a nonnegative density
    assert np.all(report.ratios >= 1.0)
    assert math.isfinite(report.constant_hat)


def test_doubling_report_table_layout():
    report = doubling_report(lebesgue_density(), [[1.0, 2.0]], [1.0, 2.0])
    assert report.columns() == ["cx", "cy", "r", "mass", "mass2x", "ratio"]
    rows = report.rows()
    assert rows.shape == (2, 6)
    assert np.array_equal(rows[:, 0], [1.0, 1.0])
    report3 = doubling_report(lebesgue_density(), [[0.0, 0.0, 0.0]], [1.0])
    assert report3.columns()[:3] == ["c1", "c2", "c3"]


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_integral_of_radii_is_the_scalar_calls(dim):
    rule = ball_rule(dim)
    density = jacobian_norm_density(convex_gradient_quartic_map(dim, 1.0, 0.5))
    center = np.linspace(-0.7, 0.4, dim)
    radii = np.array([0.3, 0.77, 1.9, 3.1, 1e-3])
    many = ball_integral(rule, density, center, radii)
    assert many.shape == radii.shape
    assert np.array_equal(many, [ball_integral(rule, density, center, float(r)) for r in radii])
    assert np.array_equal(ball_integral(rule, density, center, radii.reshape(1, 5, 1)),
                          many.reshape(1, 5, 1))
    assert isinstance(ball_integral(rule, density, center, 0.3), float)


def test_ball_rule_budget_is_checked_before_drawing():
    # 2^15 cube points in dim 2000 would take 500 MiB
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflowError, match="256 MiB"):
            ball_rule(2000)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim, rtol", [(2, 0.0), (3, 1e-13)])
def test_doubling_masses_are_the_ball_integrals(dim, rtol):
    # one call per (center, radius) sums each ball as the per-ball call does
    # in dim 2; the 17142-node dim-3 rule takes einsum's other summation order
    rule = ball_rule(dim)
    density = jacobian_norm_density(convex_gradient_quartic_map(dim, 1.0, 0.5))
    centers = np.random.default_rng(4).uniform(-2.0, 2.0, (3, dim))
    radii = np.array([0.5, 0.77, 1.9])
    report = doubling_report(density, centers, radii)
    single = np.array([[ball_integral(rule, density, c, float(r)) for r in radii]
                       for c in centers])
    doubled = np.array([[ball_integral(rule, density, c, 2.0 * float(r)) for r in radii]
                        for c in centers])
    np.testing.assert_allclose(report.masses, single, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(report.masses_doubled, doubled, rtol=rtol, atol=0.0)


def test_doubling_memory_does_not_grow_with_the_radii():
    # one ball_integral call per (center, radius), over (r, 2r): the peak is
    # that of one pair of balls, however many radii are asked for
    density = jacobian_norm_density(convex_gradient_quartic_map(2, 1.0, 0.5))

    def peak(count):
        tracemalloc.start()
        try:
            doubling_report(density, [[0.3, -0.2]], np.linspace(0.5, 2.0, count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # the first call also allocates state that later calls reuse
    assert peak(40) < 1.25 * peak(2)


def test_doubling_errors():
    with pytest.raises(ZeroMassError):
        doubling_report(lambda pts: np.zeros(len(pts)), [[0.0, 0.0]], [1.0])
    with pytest.raises(InvalidParameterError):
        doubling_report(lebesgue_density(), [[0.0, 0.0]], [-1.0])
    # Lebesgue measure gives a ball its volume wherever it is centred
    for center in ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(InvalidParameterError, match="centers must be finite"):
            doubling_report(lebesgue_density(), [[0.0, 0.0], center], [1.0])
    # ||Df|| overflows at the ball nodes: reported before the SVD sees it
    with pytest.raises(NonFiniteIntegrandError):
        doubling_report(jacobian_norm_density(power_radial_map(2, 1.0)), [[0.0, 0.0]], [1e200])
    with pytest.raises(ZeroMassError):
        doubling_report(lebesgue_density(), [[0.0, 0.0]], [1e300])


def test_moment_ratio_lebesgue_constants():
    r = gaussian_moment_ratio(lebesgue_density(), 0.0, 2)
    assert r.integral == pytest.approx(1.0, abs=1e-12)
    assert r.ball_mass == pytest.approx(math.pi, abs=1e-12)
    assert r.ratio == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_moment_ratio_second_moment():
    r = gaussian_moment_ratio(lebesgue_density(), 2.0, 2)
    assert r.integral == pytest.approx(2.0, abs=1e-10)
    assert r.ratio == pytest.approx(2.0 / math.pi, abs=1e-10)


def test_moment_ratio_halfspace_splits_in_two():
    full = gaussian_moment_ratio(lebesgue_density(), 0.0, 2)
    half = gaussian_moment_ratio(lebesgue_density(), 0.0, 2, halfspace_normal=[1.0, 0.0])
    assert half.integral == pytest.approx(0.5, abs=1e-12)
    assert half.ball_mass == full.ball_mass


@pytest.mark.parametrize("spec", monotone_gallery_2d(), ids=spec_id)
def test_moment_sandwich_for_jacobian_densities(spec):
    # the weighted moments and the unit-ball mass stay within fixed factors
    # of each other for every monotone gallery member
    density = jacobian_norm_density(spec)
    for p in (0.0, 1.0, 2.0):
        full = gaussian_moment_ratio(density, p, 2)
        half = gaussian_moment_ratio(density, p, 2, halfspace_normal=[0.6, -0.8])
        assert 1e-3 < full.ratio < 1e3
        assert 0.0 < half.integral <= full.integral + 1e-15


def test_moment_ratio_errors():
    with pytest.raises(InvalidParameterError):
        gaussian_moment_ratio(lebesgue_density(), -1.0, 2)
    with pytest.raises(DimensionMismatchError):
        gaussian_moment_ratio(lebesgue_density(), 1.0, 2, halfspace_normal=[1.0, 0.0, 0.0])
    # a NaN normal keeps no node, and a zero one keeps every node
    for normal in ([math.nan, 0.0], [math.inf, 1.0], [0.0, 0.0], [-0.0, 0.0]):
        with pytest.raises(InvalidParameterError, match="half-space normal must be finite and nonzero"):
            gaussian_moment_ratio(lebesgue_density(), 1.0, 2, halfspace_normal=normal)
    with pytest.raises(DimensionMismatchError):
        gaussian_moment_ratio(lebesgue_density(), 1.0, 2, scheme=build_scheme(3, "tensor_hermite", 6))
    with pytest.raises(InvalidParameterError):
        gaussian_moment_ratio(lebesgue_density(), math.nan, 2)
    with pytest.raises(NonFiniteIntegrandError):
        gaussian_moment_ratio(lebesgue_density(), 2000.0, 2)
    with pytest.raises(NonFiniteIntegrandError):
        gaussian_moment_ratio(jacobian_norm_density(power_radial_map(2, 1.0)), 1000.0, 2)
