"""The lift against closed forms, at the default quadrature schemes.

For the power-radial map f(x) = |x|^p x the lift is closed-form in every
dimension through Kummer's function M = 1F1 (DLMF 13.2), with
lambda = |x|^2 / (2 t^2):

    horizontal  x t^p 2^{p/2} G(n/2 + p/2 + 1) / G(n/2 + 1) M(-p/2, n/2 + 1, -lambda)
    vertical    t (n + p) t^p 2^{p/2} G((n + p)/2) / G(n/2) M(-p/2, n/2, -lambda)

(the vertical part by Stein's identity E[<f(x+ty), y>] = t E[div f(x+ty)]).
A linear map lifts to (Ax, t tr A), whose Jacobian is [[A, 0], [0, tr A]].
"""

import numpy as np
import pytest
from scipy.special import gammaln, hyp1f1

from monolift import (
    default_scheme,
    extend_points,
    extension_jacobians,
    gaussian_extension,
    linear_map,
    power_radial_map,
)

# Default-scheme error, max over 200 points of |F - F_exact|_inf / |F_exact|_inf,
# with x uniform in [-2, 2]^n and t uniform in [0.1, 2] (rng seed 0).  Dims 1-3
# use the order-20 tensor Gauss-Hermite rule, dim 4 the 2^16-node QMC rule.
# Each tolerance is 3x the measured error.
MEASURED = {
    (1, 1.0): 2.8e-3, (1, 0.5): 5.1e-3, (1, -0.5): 4.8e-2,
    (2, 1.0): 3.2e-4, (2, 0.5): 6.1e-4, (2, -0.5): 6.0e-3,
    (3, 1.0): 5.2e-5, (3, 0.5): 9.4e-5, (3, -0.5): 1.1e-3,
    (4, 1.0): 2.7e-5, (4, 0.5): 2.8e-5, (4, -0.5): 4.0e-5,
}
# Linear maps, A standard normal from rng seed n: exact up to rounding on the
# tensor rules (measured <= 4.3e-15, so 1e-14 stands in for the error there);
# the QMC rule's second moments are not exact (measured 8.4e-5).
LINEAR_MEASURED = {1: 1e-14, 2: 1e-14, 3: 1e-14, 4: 8.4e-5}
# Lifted Jacobians, max over the first 40 sample points of
# max|DF - DF_exact| / max|DF_exact|.  Linear maps (A as above) on the
# order-20 tensor rule and the 2^16-node QMC rule of each dimension: the
# tensor rules are exact up to rounding (measured <= 2.6e-15 for n <= 3, so
# 1e-14 stands in; 2.0e-14 for n = 4), the QMC rules miss E[y^T A y] = tr A.
LINEAR_JACOBIAN_MEASURED = {
    (1, "tensor_hermite"): 1e-14, (1, "quasi_random"): 5.4e-5,
    (2, "tensor_hermite"): 1e-14, (2, "quasi_random"): 3.6e-5,
    (3, "tensor_hermite"): 1e-14, (3, "quasi_random"): 1.6e-4,
    (4, "tensor_hermite"): 2.0e-14, (4, "quasi_random"): 6.8e-5,
}
# Power-radial maps on the default schemes, against a central difference
# (step 1e-5) of the closed form; steps 1e-5 and 1e-4 agree to 5e-8, so the
# figures are the quadrature error of DF.  |x|^{-1/2} x has a singular Df at
# 0, which the order-20 tensor rules of dims 1 and 2 do not resolve (measured
# 1.8 and 1.6e-1, too loose to catch a wrong block), so those two are left out.
JACOBIAN_MEASURED = {
    (1, 1.0): 1.8e-2, (1, 0.5): 5.4e-2,
    (2, 1.0): 1.7e-3, (2, 0.5): 4.7e-3,
    (3, 1.0): 1.8e-4, (3, 0.5): 4.6e-4, (3, -0.5): 1.3e-2,
    (4, 1.0): 4.0e-5, (4, 0.5): 3.3e-5, (4, -0.5): 1.2e-4,
}
JACOBIAN_POINTS = 40


def power_radial_lift(X, T, p):
    n = X.shape[1]
    lam = np.einsum("ki,ki->k", X, X) / (2.0 * T * T)
    scale = T**p * 2.0 ** (p / 2.0)
    horiz = scale * np.exp(gammaln(n / 2 + p / 2 + 1) - gammaln(n / 2 + 1)) \
        * hyp1f1(-p / 2, n / 2 + 1, -lam)
    vert = T * (n + p) * scale * np.exp(gammaln((n + p) / 2) - gammaln(n / 2)) \
        * hyp1f1(-p / 2, n / 2, -lam)
    return np.column_stack([X * horiz[:, None], vert])


def power_radial_jacobian(X, T, p, h=1e-5):
    """Central difference of :func:`power_radial_lift` in (x, t); (m, n+1, n+1)."""
    P = np.column_stack([X, T])
    n = X.shape[1]
    cols = []
    for j in range(n + 1):
        e = np.zeros(n + 1)
        e[j] = h
        up, down = P + e, P - e
        cols.append((power_radial_lift(up[:, :n], up[:, n], p)
                     - power_radial_lift(down[:, :n], down[:, n], p)) / (2.0 * h))
    return np.stack(cols, axis=2)


def max_rel_err(F, exact):
    axes = tuple(range(1, F.ndim))
    return float(np.max(np.max(np.abs(F - exact), axis=axes) / np.max(np.abs(exact), axis=axes)))


def sample(n):
    rng = np.random.default_rng(0)
    return rng.uniform(-2.0, 2.0, (200, n)), rng.uniform(0.1, 2.0, 200)


def test_closed_form_identity_case():
    # p = 0 is the identity, whose lift is (x, n t)
    X, T = sample(3)
    assert np.allclose(power_radial_lift(X, T, 0.0), np.column_stack([X, 3 * T]), rtol=1e-14)


@pytest.mark.parametrize("n,p", sorted(MEASURED), ids=lambda v: str(v))
def test_power_radial_lift_matches_kummer(n, p):
    X, T = sample(n)
    F = extend_points(gaussian_extension(power_radial_map(n, p)), X, T)
    assert max_rel_err(F, power_radial_lift(X, T, p)) <= 3.0 * MEASURED[n, p]


@pytest.mark.parametrize("n", sorted(LINEAR_MEASURED))
def test_linear_lift_matches_closed_form(n):
    X, T = sample(n)
    A = np.random.default_rng(n).standard_normal((n, n))
    F = extend_points(gaussian_extension(linear_map(A)), X, T)
    exact = np.column_stack([X @ A.T, T * np.trace(A)])
    assert max_rel_err(F, exact) <= 3.0 * LINEAR_MEASURED[n]


@pytest.mark.parametrize("n,method", sorted(LINEAR_JACOBIAN_MEASURED), ids=lambda v: str(v))
def test_linear_lift_jacobian_matches_closed_form(n, method):
    X, T = sample(n)
    X, T = X[:JACOBIAN_POINTS], T[:JACOBIAN_POINTS]
    A = np.random.default_rng(n).standard_normal((n, n))
    field = gaussian_extension(linear_map(A), default_scheme(n, method=method))
    exact = np.zeros((X.shape[0], n + 1, n + 1))
    exact[:, :n, :n] = A
    exact[:, n, n] = np.trace(A)
    DF = extension_jacobians(field, X, T)
    assert max_rel_err(DF, exact) <= 3.0 * LINEAR_JACOBIAN_MEASURED[n, method]


@pytest.mark.parametrize("n,p", sorted(JACOBIAN_MEASURED), ids=lambda v: str(v))
def test_power_radial_jacobian_matches_kummer(n, p):
    X, T = sample(n)
    X, T = X[:JACOBIAN_POINTS], T[:JACOBIAN_POINTS]
    DF = extension_jacobians(gaussian_extension(power_radial_map(n, p)), X, T)
    assert max_rel_err(DF, power_radial_jacobian(X, T, p)) <= 3.0 * JACOBIAN_MEASURED[n, p]
