"""The lift against closed forms, at the default quadrature schemes.

For the power-radial map f(x) = |x|^p x the lift is closed-form in every
dimension through Kummer's function M = 1F1 (DLMF 13.2), with
lambda = |x|^2 / (2 t^2):

    horizontal  x t^p 2^{p/2} G(n/2 + p/2 + 1) / G(n/2 + 1) M(-p/2, n/2 + 1, -lambda)
    vertical    t (n + p) t^p 2^{p/2} G((n + p)/2) / G(n/2) M(-p/2, n/2, -lambda)

(the vertical part by Stein's identity E[<f(x+ty), y>] = t E[div f(x+ty)]).
A linear map lifts to (Ax, t tr A).
"""

import numpy as np
import pytest
from scipy.special import gammaln, hyp1f1

from monolift import extend_points, gaussian_extension, linear_map, power_radial_map

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


def power_radial_lift(X, T, p):
    n = X.shape[1]
    lam = np.einsum("ki,ki->k", X, X) / (2.0 * T * T)
    scale = T**p * 2.0 ** (p / 2.0)
    horiz = scale * np.exp(gammaln(n / 2 + p / 2 + 1) - gammaln(n / 2 + 1)) \
        * hyp1f1(-p / 2, n / 2 + 1, -lam)
    vert = T * (n + p) * scale * np.exp(gammaln((n + p) / 2) - gammaln(n / 2)) \
        * hyp1f1(-p / 2, n / 2, -lam)
    return np.column_stack([X * horiz[:, None], vert])


def max_rel_err(F, exact):
    return float(np.max(np.max(np.abs(F - exact), axis=1) / np.max(np.abs(exact), axis=1)))


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
