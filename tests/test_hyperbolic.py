"""Half-space metric, vertical comparison, bilipschitz sampling."""

import math

import numpy as np
import pytest

from monolift import (
    bilipschitz_sample,
    compose_maps,
    evaluate_map,
    gaussian_extension,
    hyperbolic_distances,
    identity_map,
    linear_map,
    planar_rotation_map,
    power_radial_map,
    sample_height_pairs,
    translation_map,
    vertical_comparison,
)
from monolift.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    NonpositiveHeightError,
    SingularPointError,
    VanishingVerticalError,
)


def test_vertical_segment_distances():
    # along a vertical line the metric is |log(t1 / t0)|
    d = hyperbolic_distances([[0.0, 0.0, 1.0], [2.0, -1.0, 1.0]],
                             [[0.0, 0.0, math.e], [2.0, -1.0, math.e**2]])
    assert d == pytest.approx([1.0, 2.0], abs=1e-12)
    assert hyperbolic_distances([[0.0, 1.0]], [[0.0, math.e]]) == pytest.approx([1.0], abs=1e-12)


def test_distance_identity_and_symmetry(rng):
    P = np.column_stack([rng.uniform(-5, 5, (500, 2)), 10.0 ** rng.uniform(-2, 2, 500)])
    Q = np.column_stack([rng.uniform(-5, 5, (500, 2)), 10.0 ** rng.uniform(-2, 2, 500)])
    assert np.all(hyperbolic_distances(P, P) == 0.0)
    assert np.array_equal(hyperbolic_distances(P, Q), hyperbolic_distances(Q, P))


def test_triangle_inequality(rng):
    P = np.column_stack([rng.uniform(-5, 5, (1000, 2)), 10.0 ** rng.uniform(-2, 2, 1000)])
    Q = np.column_stack([rng.uniform(-5, 5, (1000, 2)), 10.0 ** rng.uniform(-2, 2, 1000)])
    R = np.column_stack([rng.uniform(-5, 5, (1000, 2)), 10.0 ** rng.uniform(-2, 2, 1000)])
    dpq = hyperbolic_distances(P, Q)
    dqr = hyperbolic_distances(Q, R)
    dpr = hyperbolic_distances(P, R)
    assert np.all(dpr <= dpq + dqr + 1e-12)


def test_distance_guards():
    with pytest.raises(NonpositiveHeightError):
        hyperbolic_distances([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])
    with pytest.raises(NonpositiveHeightError):
        hyperbolic_distances([[0.0, 0.0, 1.0]], [[0.0, 0.0, -2.0]])
    with pytest.raises(DimensionMismatchError):
        hyperbolic_distances([[0.0, 1.0]], [[0.0, 0.0, 1.0]])


def test_vertical_comparison_identity():
    # DF = diag(1, 1, 2) and F_vert = 2t, so the ratio is 1 everywhere
    field = gaussian_extension(identity_map(2))
    X = np.array([[0.0, 0.0], [2.0, -3.0], [-1.0, 4.0]])
    report = vertical_comparison(field, X, np.array([0.3, 1.0, 2.5]))
    assert np.allclose(report.ratios, 1.0, atol=1e-8)
    assert report.spread == pytest.approx(1.0, abs=1e-8)
    assert report.columns() == ["x1", "x2", "t", "norm_df", "fvert", "ratio"]
    assert report.rows().shape == (3, 6)


def test_vertical_comparison_diagonal_linear():
    # DF = diag(2, 3, 5): norm 5 against vertical 5t
    field = gaussian_extension(linear_map(np.diag([2.0, 3.0])))
    report = vertical_comparison(field, np.array([[1.0, 1.0]]), np.array([0.7]))
    assert report.ratios[0] == pytest.approx(1.0, abs=1e-8)


def test_vertical_comparison_curved_map():
    field = gaussian_extension(power_radial_map(2, 1.0))
    X = np.array([[0.5, 0.5], [2.0, 0.0], [-1.0, 1.5], [0.1, -0.2]])
    report = vertical_comparison(field, X, np.array([0.25, 0.5, 1.0, 2.0]))
    assert np.all(np.isfinite(report.ratios))
    assert report.spread >= 1.0
    assert math.isfinite(report.spread)


def test_vertical_comparison_guards():
    field = gaussian_extension(identity_map(2))
    with pytest.raises(NonpositiveHeightError):
        vertical_comparison(field, np.zeros((1, 2)), np.array([0.0]))
    with pytest.raises(DimensionMismatchError):
        vertical_comparison(field, np.zeros((2, 2)), np.array([1.0]))
    # a quarter turn averages to zero vertical motion
    degenerate = gaussian_extension(planar_rotation_map(math.pi / 2))
    with pytest.raises(VanishingVerticalError):
        vertical_comparison(degenerate, np.array([[1.0, 0.0]]), np.array([1.0]))


def test_vertical_comparison_singular_probe_points():
    # the rounding bound probes Df at x +- sqrt(n) t e_k; a probe point at a
    # singularity is left out, and only a row with no other is refused
    f = power_radial_map(1, -0.5)
    report = vertical_comparison(gaussian_extension(f), np.array([[1.0], [3.0]]),
                                 np.array([1.0, 1.0]))
    assert np.all(report.verticals > 0.0)
    # P o (y -> y - P(2)) o P is singular at 0 and at 2: both probes of x = 1, t = 1
    g = compose_maps(f, translation_map(-evaluate_map(f, np.array([[2.0]]))[0]), f)
    with pytest.raises(SingularPointError, match="row 1: Df is undefined at every probe point"):
        vertical_comparison(gaussian_extension(g), np.array([[3.0], [1.0]]),
                            np.array([1.0, 1.0]))


def test_sample_height_pairs():
    P, Q = sample_height_pairs(2, 300, seed=5)
    for arr in (P, Q):
        assert arr.shape == (300, 3)
        assert np.all(arr[:, -1] >= 0.1) and np.all(arr[:, -1] <= 10.0)
        assert np.all(np.abs(arr[:, :2]) <= 5.0)
    assert not np.array_equal(P, Q)
    with pytest.raises(InvalidParameterError):
        sample_height_pairs(2, 0)


def test_sample_height_pairs_rejects_a_negative_seed():
    # numpy's generator would raise its own ValueError on it
    with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer, got -1"):
        sample_height_pairs(2, 5, seed=-1)


def test_metric_invariant_under_exact_dilation():
    # scaling every coordinate by a power of two is exact in floating
    # point, and the metric is dilation invariant, bit for bit
    rng = np.random.default_rng(3)
    P = np.column_stack([rng.uniform(-5, 5, (200, 2)), 10.0 ** rng.uniform(-2, 2, 200)])
    Q = np.column_stack([rng.uniform(-5, 5, (200, 2)), 10.0 ** rng.uniform(-2, 2, 200)])
    assert np.array_equal(hyperbolic_distances(2.0 * P, 2.0 * Q), hyperbolic_distances(P, Q))


def test_bilipschitz_identity_vertical_pairs():
    # the identity lift doubles heights, and vertical hyperbolic distances
    # are invariant under t -> 2t; only quadrature ulps remain
    field = gaussian_extension(identity_map(2))
    t = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    s = np.array([0.5, 2.0, 8.0, 0.125, 1.0])
    base = np.tile([1.5, -0.5], (5, 1))
    P = np.column_stack([base, t])
    Q = np.column_stack([base, s])
    report = bilipschitz_sample(field, P, Q)
    assert np.allclose(report.ratios, 1.0, atol=1e-12)
    assert report.upper - report.lower < 1e-12


def test_bilipschitz_skips_coincident_pairs():
    field = gaussian_extension(identity_map(2))
    P, Q = sample_height_pairs(2, 50, seed=6)
    Q[:10] = P[:10]
    report = bilipschitz_sample(field, P, Q)
    assert report.skipped == 10
    assert report.d_source.shape == (40,)
    d = report.json_dict()
    assert d["pairs"] == 40 and d["skipped"] == 10


def test_bilipschitz_power_map_bounds():
    field = gaussian_extension(power_radial_map(2, 1.0))
    P, Q = sample_height_pairs(2, 1000, seed=7)
    report = bilipschitz_sample(field, P, Q)
    assert report.skipped == 0
    assert 0.0 < report.lower <= report.upper
    assert report.upper < 2.0
    assert math.isfinite(report.upper)


def test_bilipschitz_rejects_boundary_images():
    degenerate = gaussian_extension(planar_rotation_map(math.pi / 2))
    P, Q = sample_height_pairs(2, 20, seed=8)
    with pytest.raises(VanishingVerticalError, match="vanishing vertical part"):
        bilipschitz_sample(degenerate, P, Q)
    # pairs are checked before they are lifted: heights <= 0, a 1-D batch and
    # batches of different lengths fail as the hyperbolic distance fails
    field = gaussian_extension(identity_map(2))
    for height in (0.0, -1.0):
        with pytest.raises(NonpositiveHeightError):
            bilipschitz_sample(field, np.column_stack([P[:, :-1], np.full(20, height)]), Q)
    with pytest.raises(DimensionMismatchError):
        bilipschitz_sample(field, P[0], Q[0])
    with pytest.raises(DimensionMismatchError):
        bilipschitz_sample(field, P, Q[:-1])


def test_quarter_turn_rejected_where_its_image_is_small():
    # near x = 0 the horizontal part cancels, and at t = 10 it is small next
    # to t ||Df||: only the t-dependent part of the rounding bound tells the
    # quarter turn's F_vert (rounding noise of order eps t) from a real one
    degenerate = gaussian_extension(planar_rotation_map(math.pi / 2))
    for x, t in [((0.0, 0.0), 1.0), ((1e-6, 0.0), 1.0), ((0.5, 0.0), 10.0)]:
        with pytest.raises(VanishingVerticalError):
            vertical_comparison(degenerate, [x], [t])
        with pytest.raises(VanishingVerticalError):
            bilipschitz_sample(degenerate, [[*x, t]], [[*x, 2.0 * t]])


def test_small_vertical_parts_are_kept():
    # only a vertical part within rounding of the image point counts as
    # vanishing: F_vert = n t of the identity at t = 1e-8, and the 2e-14 t
    # of a map scaled down to 1e-14, are real and must pass
    X = np.array([[1.0, 0.5], [-3.0, 2.0]])
    T = np.full(2, 1e-8)
    identity = gaussian_extension(identity_map(2))
    report = vertical_comparison(identity, X, T)
    assert np.allclose(report.verticals, 2.0 * T, rtol=1e-6)
    assert np.allclose(report.ratios, 1.0, rtol=1e-6)
    pairs = bilipschitz_sample(identity, np.column_stack([X, T]), np.column_stack([X, 4.0 * T]))
    assert np.allclose(pairs.ratios, 1.0, rtol=1e-6)
    tiny = gaussian_extension(linear_map(1e-14 * np.eye(2)))
    report = vertical_comparison(tiny, X, np.ones(2))
    assert np.allclose(report.ratios, 1.0, rtol=1e-6)


def test_large_lifts_are_not_vanishing():
    # |F| past 1e154 squares past the float range; the vanishing bound must
    # not overflow, so 1e200 I compares as 1e150 I does
    X, T = np.array([[1.0, 0.5], [-1.5, 2.0], [0.0, 0.0]]), np.array([0.25, 1.0, 2.0])
    ratios = [vertical_comparison(gaussian_extension(linear_map(s * np.eye(2))), X, T).ratios
              for s in (1e150, 1e200)]
    assert np.allclose(ratios[1], ratios[0], rtol=1e-12, atol=0.0)
    # ... and in pairs, where |F(p) - F(q)|^2 and F_vert(p) F_vert(q) overflow
    P, Q = sample_height_pairs(2, 4, seed=1)
    ratios = [bilipschitz_sample(gaussian_extension(linear_map(s * np.eye(2))), P, Q).ratios
              for s in (1e150, 1e200)]
    assert np.allclose(ratios[1], ratios[0], rtol=1e-12, atol=0.0)


def test_distance_overflow_names_its_row():
    # a quotient |p - q| / (2 sqrt(t_p t_q)) past the float range takes the
    # closed form 2 log|p - q| - log t_p - log t_q, where asinh(x) = log 2x
    P = np.array([[0.0, 1.0], [0.0, 1e-10], [0.0, 1.0]])
    Q = np.array([[1.0, 2.0], [1e300, 1e-10], [0.0, 2.0]])
    d = hyperbolic_distances(P, Q)
    assert d[1] == pytest.approx(2.0 * math.log(1e300) - 2.0 * math.log(1e-10), rel=1e-15)
    assert d[1] == pytest.approx(1427.6027576563, rel=1e-12)
    assert np.array_equal(d[[0, 2]], hyperbolic_distances(P[[0, 2]], Q[[0, 2]]))
    # two heights near the subnormal range pass it at unit separation
    d = hyperbolic_distances(np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1e-320]]),
                             np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 1e-320]]))
    assert d[2] == pytest.approx(-2.0 * math.log(1e-320), rel=1e-15)
    # only a difference p - q that itself overflows has no distance
    with pytest.raises(NonFiniteIntegrandError, match="row 1: hyperbolic distance overflowed"):
        hyperbolic_distances([[0.0, 1.0], [-1e308, 1.0]], [[1.0, 2.0], [1e308, 1.0]])
    with pytest.raises(InvalidParameterError, match="finite points"):
        hyperbolic_distances(P, np.where(Q == 1e300, math.nan, Q))
    # a separation of 1e200, or a height of 1e-320 against 1, is a finite distance
    d = hyperbolic_distances([[0.0, 1.0], [0.0, 1.0]], [[1e200, 1.0], [0.0, 1e-320]])
    assert d == pytest.approx([200.0 * math.log(100.0), -math.log(1e-320)], rel=1e-12)


def test_nearly_equal_points_keep_their_distance():
    # arccosh(1 + |p - q|^2 / (2 t_p t_q)) rounds 1 + 5e-19 to 1 and gives 0
    d = hyperbolic_distances([[0.0, 1.0], [3.0, 2.0]], [[1e-9, 1.0], [3.0, 2.0 + 2e-12]])
    assert d == pytest.approx([1e-9, 1e-12], rel=1e-9)
