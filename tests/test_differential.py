"""Lifted Jacobian, spectral norms, and the unit-ball size functional."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from monolift import (
    ball_integral,
    ball_rule,
    build_scheme,
    compose_maps,
    extension_jacobian,
    extension_jacobians,
    finite_difference_jacobian,
    full_space_map,
    gaussian_extension,
    identity_map,
    linear_map,
    power_radial_map,
    spectral_norms,
    translation_map,
    unit_ball_norm_average,
    vertical_comparison,
)
from monolift.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    NonpositiveHeightError,
    SingularPointError,
)

from conftest import gallery_3d, monotone_gallery_2d, spec_id


def test_lifted_jacobian_identity():
    DF = extension_jacobian(gaussian_extension(identity_map(2)), ([0.3, -0.7], 0.9))
    assert np.allclose(DF, np.diag([1.0, 1.0, 2.0]), atol=1e-10)


def test_lifted_jacobian_linear():
    A = np.array([[1.0, -0.4], [0.6, 1.2]])
    DF = extension_jacobian(gaussian_extension(linear_map(A)), ([2.0, 1.0], 0.5))
    want = np.zeros((3, 3))
    want[:2, :2] = A
    want[2, 2] = np.trace(A)
    assert np.allclose(DF, want, atol=1e-8)


@pytest.mark.parametrize("spec", monotone_gallery_2d(), ids=spec_id)
def test_lifted_jacobian_matches_finite_differences(spec):
    field = gaussian_extension(spec)
    G = full_space_map(field)
    for p in ([0.5, 0.8, 0.6], [-1.2, 0.3, 1.5], [2.0, -2.0, 0.25]):
        DF = extension_jacobian(field, (p[:2], p[2]))
        FD = finite_difference_jacobian(G, np.asarray(p))
        assert np.max(np.abs(DF - FD)) <= 1e-4 * max(1.0, np.max(np.abs(DF)))


@pytest.mark.parametrize("spec", gallery_3d()[:3], ids=spec_id)
def test_lifted_jacobian_matches_finite_differences_3d(spec):
    field = gaussian_extension(spec)
    G = full_space_map(field)
    p = np.array([0.4, -0.9, 1.1, 0.8])
    DF = extension_jacobian(field, (p[:3], p[3]))
    FD = finite_difference_jacobian(G, p)
    assert np.max(np.abs(DF - FD)) <= 1e-4 * max(1.0, np.max(np.abs(DF)))


def test_finite_differences_exact_on_affine():
    M = np.array([[2.0, 1.0], [0.0, -3.0]])
    J = finite_difference_jacobian(lambda v: M @ v + np.array([1.0, 2.0]), np.array([0.4, -0.6]))
    assert np.allclose(J, M, atol=1e-10)
    with pytest.raises(DimensionMismatchError):
        finite_difference_jacobian(lambda v: v, np.zeros((2, 2)))


def test_jacobian_height_guard():
    field = gaussian_extension(identity_map(2))
    with pytest.raises(NonpositiveHeightError):
        extension_jacobian(field, ([0.0, 0.0], 0.0))
    with pytest.raises(NonpositiveHeightError):
        extension_jacobian(field, ([0.0, 0.0], -1.0))


def test_jacobian_singular_node():
    # the order-3 tensor rule has a node at the origin, where the base
    # Jacobian of |x|^{-1/2} x blows up
    field = gaussian_extension(power_radial_map(2, -0.5), build_scheme(2, "tensor_hermite", 3))
    with pytest.raises(SingularPointError):
        extension_jacobian(field, ([0.0, 0.0], 1.0))


def test_jacobian_singular_node_names_row():
    field = gaussian_extension(power_radial_map(2, -0.5), build_scheme(2, "tensor_hermite", 3))
    with pytest.raises(SingularPointError, match="row 1: power_radial has no differential"):
        vertical_comparison(field, [[1.0, 1.0], [0.0, 0.0]], [1.0, 1.0])
    # the origin is reached only through the inner map of a composition
    inner = compose_maps(power_radial_map(2, -0.5), translation_map([1.0, 0.0]))
    field = gaussian_extension(inner, build_scheme(2, "tensor_hermite", 3))
    with pytest.raises(SingularPointError, match="row 2"):
        extension_jacobians(field, [[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0]], [1.0, 1.0, 1.0])


def test_jacobian_names_overflowing_row():
    field = gaussian_extension(power_radial_map(2, 1.0))
    with pytest.raises(NonFiniteIntegrandError, match="row 1: x \\+ t y"):
        extension_jacobians(field, [[0.0, 0.0], [1.7e308, 0.0]], [1.0, 1e308])
    with pytest.raises(NonFiniteIntegrandError, match="row 1: base Jacobian"):
        extension_jacobians(field, [[0.0, 0.0], [1e200, 0.0]], [1.0, 1.0])
    # a finite base Jacobian whose y-weighted Gaussian average overflows
    field = gaussian_extension(linear_map([[1e308, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteIntegrandError, match="row 0: Gaussian average"):
        extension_jacobians(field, [[0.0, 0.0]], [1.0])


def test_operator_norm_closed_forms():
    theta = 0.7
    R = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    mats = np.array([[[0.0, 3.0], [0.0, 0.0]], R, np.diag([1.0, 2.0]), np.zeros((2, 2))])
    assert np.allclose(spectral_norms(mats), [3.0, 1.0, 2.0, 0.0], atol=1e-12)
    assert spectral_norms(np.diag([1.0, 1.0, 2.0])) == pytest.approx(2.0, abs=1e-12)


def test_spectral_norms_matches_svd(rng):
    mats = rng.standard_normal((20, 3, 3))
    assert np.allclose(spectral_norms(mats), np.linalg.svd(mats, compute_uv=False)[:, 0], atol=1e-12)


def sigma_max_50_digits(m) -> float:
    """Largest singular value of a 2x2 matrix from its invariants, in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c, d = (Decimal(float(v)) for v in np.ravel(m))
        frob = a * a + b * b + c * c + d * d
        det = a * d - b * c
        return float(((frob + (frob * frob - 4 * det * det).sqrt()) / 2).sqrt())


def test_spectral_norms_2x2_closed_form(rng):
    # the closed form against a 50-digit value and the SVD, on random, rank-one,
    # zero and subnormal matrices at scales up to 1e+-300, with no warning
    eps = np.finfo(float).eps
    u, v = rng.standard_normal((2, 40, 2))
    base = np.concatenate([rng.standard_normal((200, 2, 2)), u[:, :, None] * v[:, None, :],
                           np.zeros((1, 2, 2))])
    extreme = np.array([np.diag([1e308, 1.0]), [[1e300, -1e-300], [5e-324, 1e300]],
                        [[5e-324, 0.0], [-5e-324, 1e-310]], [[0.0, 5e-324], [0.0, 0.0]],
                        [[np.finfo(float).max, 0.0], [0.0, -np.finfo(float).max]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mats in [base * scale for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300)] + [extreme]:
            got = spectral_norms(mats)
            ref = np.array([sigma_max_50_digits(m) for m in mats])
            assert np.all(np.abs(got - ref) <= 4 * eps * ref + 5e-324)
            svd = np.linalg.svd(mats, compute_uv=False)[:, 0]
            assert np.all(np.abs(got - svd) <= 8 * eps * svd + 5e-324)
        assert spectral_norms(np.array([[0.0, 3.0], [4.0, 0.0]])) == 4.0


def test_norm_average_constant_jacobians():
    # ||Df|| constant makes alpha = const * vol(B^n), and the polar rule
    # integrates constants exactly
    a = unit_ball_norm_average(gaussian_extension(identity_map(2)), ([3.0, -1.0], 0.7))
    assert a == pytest.approx(math.pi, abs=1e-12)
    a = unit_ball_norm_average(gaussian_extension(linear_map(np.diag([2.0, 3.0]))), ([0.0, 0.0], 1.0))
    assert a == pytest.approx(3.0 * math.pi, abs=1e-12)


def test_norm_average_radial_growth():
    # ||Df|| = 2|x| for |x|x, so at center 0, height 1 the integral is
    # 2 * int_0^1 r * 2 pi r dr = 4 pi / 3; radial Gauss rule is exact on r^2
    a = unit_ball_norm_average(gaussian_extension(power_radial_map(2, 1.0)), ([0.0, 0.0], 1.0))
    assert a == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)


def test_norm_average_dim3_rejection_rule():
    a = unit_ball_norm_average(gaussian_extension(identity_map(3)), ([0.0, 0.0, 0.0], 1.0))
    assert a == pytest.approx(4.0 * math.pi / 3.0, abs=1e-2)


def test_norm_average_guards():
    field = gaussian_extension(identity_map(2))
    with pytest.raises(NonpositiveHeightError):
        unit_ball_norm_average(field, ([0.0, 0.0], 0.0))
    # a Jacobian that overflows, and finite norms whose average overflows
    with pytest.raises(NonFiniteIntegrandError, match="Jacobian overflowed"):
        unit_ball_norm_average(gaussian_extension(power_radial_map(2, 1.0)), ([1e200, 0.0], 1.0))
    with pytest.raises(NonFiniteIntegrandError, match="norm average overflowed"):
        unit_ball_norm_average(gaussian_extension(linear_map(np.diag([1e308, 1.0]))),
                               ([0.0, 0.0], 1.0))


@pytest.mark.parametrize("spec", monotone_gallery_2d(), ids=spec_id)
def test_jacobian_alpha_comparability(spec):
    # ||DF|| and the unit-ball average bound each other up to fixed factors
    field = gaussian_extension(spec)
    for p in ([0.6, 0.2, 0.5], [-1.5, 2.0, 1.0]):
        DF = extension_jacobian(field, (p[:2], p[2]))
        alpha = unit_ball_norm_average(field, (p[:2], p[2]))
        ratio = spectral_norms(DF) / alpha
        assert math.isfinite(ratio) and ratio > 0
        assert 1e-3 < ratio < 1e3


@pytest.mark.parametrize("spec", monotone_gallery_2d(), ids=spec_id)
def test_jacobian_quadratic_form_lower_bound(spec, rng):
    # monotone maps lift to Jacobians whose symmetric part stays positive
    # on the unit sphere, with margin proportional to alpha
    field = gaussian_extension(spec)
    DF = extension_jacobian(field, ([0.7, -0.4], 0.8))
    alpha = unit_ball_norm_average(field, ([0.7, -0.4], 0.8))
    W = rng.standard_normal((1000, 3))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    quad = np.einsum("ki,ij,kj->k", W, DF, W)
    assert np.min(quad) / alpha > 1e-3


def test_ball_rule_and_integral():
    r2 = ball_rule(2)
    assert np.sum(r2.weights) == pytest.approx(math.pi, abs=1e-12)
    assert np.max(np.linalg.norm(r2.nodes, axis=1)) <= 1.0
    assert ball_integral(r2, lambda p: np.ones(len(p)), [5.0, 5.0], 2.0) == pytest.approx(
        4.0 * math.pi, abs=1e-10)
    with pytest.raises(InvalidParameterError):
        ball_rule(0)
