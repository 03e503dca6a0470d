"""Closed-form Gaussian lift of the power-radial map f(x) = |x|^p x.

With lambda = |x|^2 / (2 t^2) and M = Kummer's confluent hypergeometric
function 1F1 (DLMF 13.2):

    horizontal  x t^p 2^{p/2} G(n/2 + p/2 + 1) / G(n/2 + 1) M(-p/2, n/2 + 1, -lambda)
    vertical    t (n + p) t^p 2^{p/2} G((n + p)/2) / G(n/2) M(-p/2, n/2, -lambda)

The vertical part follows from Stein's identity E[<f(x+ty), y>] = t E[div f(x+ty)].
For p = 0 (the identity) the lift is (x, n t).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, hyp1f1


def power_radial_lift(X, T, p: float) -> np.ndarray:
    """Exact F(x, t) for rows of X (shape (m, n)) at heights T > 0, shape (m, n+1)."""
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    n = X.shape[1]
    lam = np.einsum("ki,ki->k", X, X) / (2.0 * T * T)
    scale = T**p * 2.0 ** (p / 2.0)
    horiz = scale * np.exp(gammaln(n / 2 + p / 2 + 1) - gammaln(n / 2 + 1)) \
        * hyp1f1(-p / 2, n / 2 + 1, -lam)
    vert = T * (n + p) * scale * np.exp(gammaln((n + p) / 2) - gammaln(n / 2)) \
        * hyp1f1(-p / 2, n / 2, -lam)
    return np.column_stack([X * horiz[:, None], vert])


def max_rel_err(F, exact) -> float:
    """max over rows of |F - F_exact|_inf / |F_exact|_inf."""
    F = np.asarray(F, dtype=float)
    return float(np.max(np.max(np.abs(F - exact), axis=1) / np.max(np.abs(exact), axis=1)))
