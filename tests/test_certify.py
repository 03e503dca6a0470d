"""Monotonicity constants, the singular-value claim, profiles, demos."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from monolift import certify
from monolift import (
    DeltaCertificate,
    PairConfig,
    TripleConfig,
    batch_map,
    claim_check,
    claim_constant,
    composition_monotonicity_demo,
    full_space_map,
    gaussian_extension,
    identity_map,
    linear_map,
    matrix_delta,
    matrix_delta_lower_many,
    matrix_delta_many,
    matrix_gamma,
    planar_rotation_map,
    power_radial_map,
    quasisymmetry_profile,
    rotation_matrix,
    sample_pairs,
    trivial_extension_witness,
    trivial_lift_map,
    two_point_delta,
)
from monolift.errors import (
    DegenerateMapError,
    DegenerateTripleError,
    DimensionMismatchError,
    InvalidParameterError,
    ZeroMatrixError,
)

C1 = (2.0 - math.sqrt(3.0)) ** 2
# frozen two-point ratio of the naive lift along the adversarial pair at
# R = 400, computed once from the closed form (see trivial_extension_witness)
WITNESS_RATIO_400 = 0.09975062343994139


def pair_ratio(G, a, b):
    """Two-point ratio of a full-space map on one explicit pair."""
    fa, fb = G(np.asarray(a, float)), G(np.asarray(b, float))
    d, df = np.asarray(a, float) - b, fa - fb
    return float(np.dot(df, d) / (np.linalg.norm(df) * np.linalg.norm(d)))


# ---------------------------------------------------------------------------
# matrix constants

@pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8])
def test_matrix_delta_rotations(theta):
    assert matrix_delta(rotation_matrix(theta)) == pytest.approx(math.cos(theta), abs=1e-9)


def test_matrix_delta_special_cases():
    assert matrix_delta(np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    # reflection: v along the flipped axis gives v^T A v / |Av| = -1
    assert matrix_delta(np.diag([1.0, -1.0])) == pytest.approx(-1.0, abs=1e-9)
    assert matrix_delta(np.array([[5.0]])) == 1.0
    assert matrix_delta(np.array([[-2.0]])) == -1.0


def test_matrix_delta_dim3_embedded_rotation():
    # block rotation in a 3x3 frame exercises the eigenvalue-pencil path
    theta = math.pi / 5
    A = np.eye(3)
    A[:2, :2] = rotation_matrix(theta)
    assert matrix_delta(A) == pytest.approx(math.cos(theta), abs=1e-9)


def test_matrix_delta_dim3_diagonal():
    assert matrix_delta(np.diag([1.0, 2.0, 3.0])) == pytest.approx(
        matrix_delta_many(np.diag([1.0, 2.0, 3.0])[None])[0], abs=0.0)
    assert matrix_delta(np.eye(3)) == pytest.approx(1.0, abs=1e-9)


def test_matrix_delta_many_consistency(rng):
    mats = rng.standard_normal((40, 2, 2)) + 1.5 * np.eye(2)
    many = matrix_delta_many(mats)
    singles = np.array([matrix_delta(m) for m in mats])
    assert np.allclose(many, singles, atol=1e-12)


def test_matrix_delta_errors():
    with pytest.raises(ZeroMatrixError):
        matrix_delta(np.zeros((2, 2)))
    with pytest.raises(InvalidParameterError):
        matrix_delta(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        matrix_delta_many(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        matrix_delta(np.zeros((2, 3)))


def dense_sweep_delta(A, angles=1 << 14, zoom=1 << 10):
    """min of v^T A v / |A v| on a dense half-circle grid, then a finer grid
    about the best angle; every value is attained, so it bounds delta above."""
    A = np.asarray(A, float)

    def ratios(theta):
        V = np.stack([np.cos(theta), np.sin(theta)])
        AV = A @ V
        r = np.linalg.norm(AV, axis=0)
        q = np.einsum("ik,ik->k", AV, V)
        return np.where(r > 1e-14 * np.abs(A).max(), q / np.where(r > 0.0, r, 1.0), np.inf)

    theta = np.pi * np.arange(angles) / angles
    h = ratios(theta)
    width = np.pi / angles
    fine = theta[np.argmin(h)] + np.linspace(-width, width, zoom + 1)
    return float(min(h.min(), ratios(fine).min()))


@pytest.mark.parametrize("A, expected", [
    (np.diag([1.0, 4.0]), 0.8),
    ([[2.0, 1.0], [1.0, 2.0]], math.sqrt(3.0) / 2.0),
    (np.diag([3.0, 3.0]), 1.0),
])
def test_matrix_delta_spd_closed_form(A, expected):
    assert matrix_delta(A) == pytest.approx(expected, abs=1e-15)


def test_matrix_delta_spd_eigenvalue_formula(rng):
    # SPD: delta = 2 sqrt(l1 l2) / (l1 + l2) from the eigenvalues
    for _ in range(50):
        Q = rotation_matrix(rng.uniform(0.0, math.pi))
        lam = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        A = Q @ np.diag(lam) @ Q.T
        expected = 2.0 * math.sqrt(lam[0] * lam[1]) / (lam[0] + lam[1])
        assert matrix_delta(A) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("s", [1e-200, 0.5, 1.0, 7.0, 1e200])
@pytest.mark.parametrize("theta", [0.0, 0.3, -1.1, math.pi / 2, 2.0, -3.0, math.pi])
def test_matrix_delta_conformal(s, theta):
    # s R(theta) turns every v by theta: the ratio is cos(theta) everywhere
    assert matrix_delta(s * rotation_matrix(theta)) == pytest.approx(math.cos(theta), abs=1e-14)


def rank1_delta(u, w):
    c = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
    return -1.0 if c <= 0.0 else -math.sqrt(1.0 - c * c)


def test_matrix_delta_rank_one(rng):
    # A = u w^T: the infimum is the limit at the kernel direction w-perp
    assert matrix_delta([[1.0, 1.0], [0.0, 0.0]]) == pytest.approx(-math.sqrt(0.5), abs=1e-15)
    assert matrix_delta([[1.0, -1.0], [-1.0, 1.0]]) == 0.0      # u = w
    assert matrix_delta([[-1.0, -1.0], [0.0, 0.0]]) == -1.0     # u.w < 0
    assert matrix_delta([[0.0, 1.0], [0.0, 0.0]]) == -1.0       # u.w = 0
    for _ in range(200):
        u, w = rng.standard_normal(2), rng.standard_normal(2)
        A = np.outer(u, w)
        assert matrix_delta(A) == pytest.approx(rank1_delta(u, w), abs=1e-12)
        assert matrix_delta(A) <= dense_sweep_delta(A) + 1e-12


def test_matrix_delta_near_singular():
    # sigma_min / sigma_max ~ 5e-10: the minimum sits in a turn of width
    # ~1e-9 rad next to the kernel of the rank-1 part, just above its limit
    eps = 2.0 ** -30
    A = np.array([[1.0, 1.0], [0.0, eps]])
    d = matrix_delta(A)
    assert -math.sqrt(0.5) < d < -math.sqrt(0.5) + 1e-4
    assert d <= dense_sweep_delta(A) + 1e-12
    assert dense_sweep_delta(A) - d < 1e-9
    assert matrix_delta([[1.0, 1.0], [0.0, 1e-9]]) <= dense_sweep_delta([[1.0, 1.0], [0.0, 1e-9]]) + 1e-12
    # det < 0: the eigenvector (1, -1 - eps) of the eigenvalue -eps attains
    # -1 (exactly representable here), which a grid misses
    B = np.array([[1.0, 1.0], [0.0, -eps]])
    v = np.array([1.0, -1.0 - eps])
    assert np.array_equal(B @ v, -eps * v)
    assert float(v @ (B @ v) / (np.linalg.norm(v) * np.linalg.norm(B @ v))) == pytest.approx(-1.0, abs=1e-15)
    assert matrix_delta(B) == -1.0
    assert dense_sweep_delta(B) > -0.8


def decimal_delta_2x2(A):
    """The 2x2 closed form evaluated in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, b, c, d = (decimal.Decimal(float(x)) for x in np.ravel(A))
        det = a * d - b * c
        re, im = (a + d) / 2, abs(c - b) / 2
        anti = (((a - d) / 2) ** 2 + ((b + c) / 2) ** 2).sqrt()
        if det < 0 or (re <= 0 and im <= anti):
            return -1.0
        return float((re * det.sqrt() - im * anti) / (re * re + im * im))


def test_matrix_delta_near_singular_full_accuracy(rng):
    # sigma_min / sigma_max from 1e-13 to 1e-3: a determinant formed in
    # plain floating point would be off by ~1e-16 sigma_max^2, which moves
    # delta by ~1e-16 / sqrt(sigma_min / sigma_max), up to 1e-10 here
    for _ in range(300):
        U = rotation_matrix(rng.uniform(0.0, 2.0 * math.pi))
        V = rotation_matrix(rng.uniform(0.0, 2.0 * math.pi))
        A = U @ np.diag([1.0, 10.0 ** rng.uniform(-13.0, -3.0)]) @ V.T
        assert matrix_delta(A) == pytest.approx(decimal_delta_2x2(A), abs=2e-15)


@pytest.mark.parametrize("A", [
    np.diag([1.0, -1.0]),
    [[0.0, 1.0], [1.0, 0.0]],
    [[math.cos(0.8), math.sin(0.8)], [math.sin(0.8), -math.cos(0.8)]],
    3.0 * np.diag([-1.0, 1.0]),
    np.diag([1.0, -1.0]) + 1e-13 * np.eye(2),   # almost no conformal part
    -np.eye(2),
    [[-1.0, 5.0], [0.0, -2.0]],                 # det > 0, negative eigenvalues
])
def test_matrix_delta_reflections_and_negative_eigenvalues(A):
    assert matrix_delta(A) == -1.0


def test_matrix_delta_scale_invariant(rng):
    mats = rng.standard_normal((100, 2, 2))
    base = matrix_delta_many(mats)
    for s in (2.0 ** -900, 0.125, 2.0 ** 900):
        assert np.array_equal(matrix_delta_many(s * mats), base)
    assert np.allclose(matrix_delta_many(1e300 * mats), base, atol=1e-15)
    assert np.allclose(matrix_delta_many(1e-300 * mats), base, atol=1e-15)


def test_matrix_delta_2x2_never_above_dense_sweep(rng):
    # every sweep value is attained, so the exact constant is never above
    # it; on well-conditioned matrices the refined sweep is also tight
    mats = np.concatenate([
        rng.standard_normal((150, 2, 2)),
        rng.standard_normal((150, 2, 2)) + rng.uniform(0.5, 3.0, 150)[:, None, None] * np.eye(2),
    ])
    deltas = matrix_delta_many(mats)
    for A, d in zip(mats, deltas):
        ref = dense_sweep_delta(A)
        assert d <= ref + 1e-12
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[0] <= 100.0 * sv[1]:
            assert ref - d <= 1e-9


def test_matrix_gamma_closed_forms():
    assert matrix_gamma(np.diag([1.0, 3.0])) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert matrix_gamma(np.eye(4)) == pytest.approx(1.0, abs=1e-10)
    theta = 0.3
    assert matrix_gamma(rotation_matrix(theta)) == pytest.approx(math.cos(theta), abs=1e-10)
    with pytest.raises(ZeroMatrixError):
        matrix_gamma(np.zeros((2, 2)))


def test_delta_gamma_claim_chain(rng):
    # for delta > 0: gamma <= delta and gamma >= delta * c(delta)
    mats = rng.standard_normal((300, 2, 2)) + rng.uniform(0.5, 2.5, 300)[:, None, None] * np.eye(2)
    deltas = matrix_delta_many(mats)
    for A, d in zip(mats, deltas):
        if d <= 0.0:
            continue
        g = matrix_gamma(A)
        assert d >= g - 1e-9
        assert g >= d * claim_constant(min(d, 1.0)) - 1e-9


def fibonacci_sphere(count):
    """Fibonacci lattice on the unit sphere in R^3."""
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def dense_sphere_delta(mats, points, keep=16, steps=300):
    """Least v^T A v / (|Av| |v|) over ``points`` on the unit sphere, then
    projected-gradient polish from the ``keep`` best points of each matrix.

    Every value is attained, so it bounds delta above.  Directions with
    |Av| < 1e-3 ||A|| are skipped: there the ratio's rounding error, about
    n eps ||A|| / |Av|, could exceed the 1e-12 tolerance it is compared with.
    """
    mats = np.asarray(mats, float)
    floor = 1e-3 * np.linalg.norm(mats, 2, axis=(1, 2))[:, None]

    def ratio(A, V, floor):
        AV = np.einsum("mij,mkj->mki", A, V)
        r = np.linalg.norm(AV, axis=2)
        ok = r >= floor
        return np.where(ok, np.einsum("mki,mki->mk", AV, V) / np.where(ok, r, 1.0), np.inf)

    best = np.empty((len(mats), keep, mats.shape[1]))
    for s in range(0, len(mats), 32):
        A = mats[s:s + 32]
        h = ratio(A, np.broadcast_to(points, (len(A),) + points.shape), floor[s:s + 32])
        best[s:s + 32] = points[np.argsort(h, axis=1)[:, :keep]]
    V, h = best, ratio(mats, best, floor)
    S = mats + np.swapaxes(mats, 1, 2)
    step = np.full(h.shape, 0.05)
    for _ in range(steps):
        AV = np.einsum("mij,mkj->mki", mats, V)
        q = np.einsum("mki,mki->mk", AV, V)
        r = np.maximum(np.linalg.norm(AV, axis=2), floor)
        g = np.einsum("mij,mkj->mki", S, V) / r[:, :, None]
        g -= (q / r**3)[:, :, None] * np.einsum("mji,mkj->mki", mats, AV)
        g -= np.einsum("mki,mki->mk", g, V)[:, :, None] * V
        W = V - step[:, :, None] * g
        W /= np.linalg.norm(W, axis=2, keepdims=True)
        hw = ratio(mats, W, floor)
        better = hw < h
        V = np.where(better[:, :, None], W, V)
        h = np.where(better, hw, h)
        step = np.where(better, np.minimum(1.25 * step, 1.0), 0.5 * step)
    return h.min(axis=1)


def oracle_matrices(n, rng, each=60):
    """Gaussian, shifted-Gaussian, near-symmetric, near-singular and
    rank-deficient n x n matrices."""
    def orthogonal():
        return np.linalg.qr(rng.standard_normal((n, n)))[0]

    gauss = rng.standard_normal((each, n, n))
    shifted = rng.standard_normal((each, n, n)) + rng.uniform(0.5, 3.0, each)[:, None, None] * np.eye(n)
    near_symmetric, near_singular, rank_deficient = [], [], []
    for _ in range(each):
        Q, lam = orthogonal(), 10.0 ** rng.uniform(-2.0, 2.0, n)
        K = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8.0, -1.0) * lam.max()
        near_symmetric.append(Q @ np.diag(lam) @ Q.T + K - K.T)
        s = np.sort(10.0 ** rng.uniform(-3.0, 0.0, n))[::-1]
        s[-1] = 10.0 ** rng.uniform(-13.0, -6.0)
        near_singular.append(orthogonal() @ np.diag(s) @ orthogonal().T)
        r = int(rng.integers(1, n))
        rank_deficient.append(rng.standard_normal((n, r)) @ rng.standard_normal((r, n)))
    return np.concatenate([gauss, shifted, np.array(near_symmetric),
                           np.array(near_singular), np.array(rank_deficient)])


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_delta_bounds_against_dense_reference(n):
    rng = np.random.default_rng([2026, n])
    mats = oracle_matrices(n, rng)
    if n == 3:
        points = fibonacci_sphere(16384)
    else:
        points = rng.standard_normal((16384, n))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    lower, upper = matrix_delta_lower_many(mats), matrix_delta_many(mats)
    assert np.array_equal(upper, matrix_delta_many(mats))
    assert np.all(upper <= dense_sphere_delta(mats, points) + 1e-12)
    assert np.all(lower <= upper)
    tight = upper >= 0.05
    assert tight.sum() >= 60
    assert np.all(upper[tight] - lower[tight] <= 1e-9)


def attained_sphere_delta(A, points, keep=4):
    """Least v^T A v / (|Av| |v|) over ``points``, then BFGS from the ``keep``
    best points; the ratio is scale-invariant, so BFGS runs in all of R^n.

    Every value is attained, so it bounds delta above.  As in
    dense_sphere_delta, directions with |Av| < 1e-3 ||A|| |v| are skipped.
    """
    floor = 1e-3 * np.linalg.norm(A, 2)
    S, G = A + A.T, A.T @ A

    def ratio(V):
        AV = V @ A.T
        r = np.linalg.norm(AV, axis=-1) * np.linalg.norm(V, axis=-1)
        ok = r >= floor * np.linalg.norm(V, axis=-1) ** 2
        return np.where(ok, np.einsum("...i,...i", AV, V) / np.where(ok, r, 1.0), np.inf)

    def ratio_and_grad(x):
        Ax = A @ x
        r, s, q = np.linalg.norm(Ax), np.linalg.norm(x), x @ Ax
        grad = S @ x / (r * s) - q * (G @ x) / (r**3 * s) - q * x / (r * s**3)
        return q / (r * s), grad

    h = ratio(points)
    best = h.min()
    for x0 in points[np.argsort(h)[:keep]]:
        x = minimize(ratio_and_grad, x0, jac=True, method="BFGS", options={"gtol": 1e-13}).x
        best = min(best, float(ratio(x)))
    return best


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_delta_lower_many_tight_against_attained_ratios(n):
    # from above: an attained ratio within 1e-12 of the certified lower bound
    # pins delta, and the searched value, on every row where the bound is tight
    rng = np.random.default_rng([2026, n])
    mats = oracle_matrices(n, rng)
    if n == 3:
        points = fibonacci_sphere(16384)
    else:
        points = rng.standard_normal((16384, n))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    lower, value = matrix_delta_lower_many(mats), matrix_delta_many(mats)
    tight = np.flatnonzero(lower >= 0.05)
    assert len(tight) >= 60
    attained = np.array([attained_sphere_delta(mats[k], points) for k in tight])
    assert np.all(attained - lower[tight] >= -1e-12)
    assert np.all(attained - lower[tight] <= 1e-12)
    assert np.all(np.abs(attained - value[tight]) <= 1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_delta_spd_eigenvalue_formula_higher_dims(n, rng):
    # SPD: delta = 2 sqrt(l_min l_max) / (l_min + l_max), attained by a mix
    # of the two extreme eigenvectors (the pencil's lowest eigenvalue is double)
    for _ in range(50):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = 10.0 ** rng.uniform(-3.0, 3.0, n)
        A = Q @ np.diag(lam) @ Q.T
        expected = 2.0 * math.sqrt(lam.min() * lam.max()) / (lam.min() + lam.max())
        lower, upper = matrix_delta_lower_many(A[None]), matrix_delta_many(A[None])
        assert upper[0] == pytest.approx(expected, abs=1e-12)
        assert lower[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_delta_block_rotations_higher_dims(n):
    for theta in np.linspace(0.0, math.pi, 13):
        A = np.eye(n)
        A[:2, :2] = rotation_matrix(theta)
        assert matrix_delta(A) == pytest.approx(math.cos(theta), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_delta_kernel_limits_higher_dims(n, rng):
    # A = u w^T: the infimum is the limit at the kernel w-perp, as for n = 2
    for _ in range(100):
        u, w = rng.standard_normal(n), rng.standard_normal(n)
        assert matrix_delta(np.outer(u, w)) == pytest.approx(rank1_delta(u, w), abs=1e-12)
    # diag(1, ..., 1, 0): every attained ratio is positive, the infimum 0 sits at e_n
    assert matrix_delta(np.diag([1.0] * (n - 1) + [0.0])) == 0.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matrix_delta_lower_many_rows_are_batch_independent(n, rng):
    # a mixed stack: Gaussian matrices (mostly P not positive definite), shifted
    # ones (mostly positive definite) and rank-one ones
    mats = np.concatenate([rng.standard_normal((20, n, n)),
                           rng.standard_normal((20, n, n)) + 2.0 * np.eye(n),
                           [np.outer(rng.standard_normal(n), rng.standard_normal(n))
                            for _ in range(5)]])
    mats = mats[rng.permutation(len(mats))]
    lower = matrix_delta_lower_many(mats)
    alone = np.array([matrix_delta_lower_many(m[None])[0] for m in mats])
    assert np.array_equal(lower, alone)
    spd = np.linalg.eigvalsh(mats + np.swapaxes(mats, 1, 2))[:, 0] > 0.0
    assert 0 < spd.sum() < len(mats)
    assert np.all(lower[spd] > -1.0)
    # not positive definite in the symmetric part: exactly -1, not searched
    assert np.all(lower[~spd] == -1.0)
    assert np.all(lower <= matrix_delta_many(mats))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_pencil_search_serves_both_constants(n, rng):
    # positive definite, indefinite and rank-one rows: the lower bound never
    # passes the searched value, and where sym A is positive definite the two
    # are the same best c(mu), apart from the lower bound's rounding allowance
    mats = np.concatenate([rng.standard_normal((30, n, n)) + 3.0 * np.eye(n),
                           rng.standard_normal((30, n, n)),
                           [np.outer(rng.standard_normal(n), rng.standard_normal(n))
                            for _ in range(10)]])
    lower, value = matrix_delta_lower_many(mats), matrix_delta_many(mats)
    spd = np.linalg.eigvalsh(mats + np.swapaxes(mats, 1, 2))[:, 0] > 0.0
    assert 20 <= spd.sum() <= 50
    assert np.all(lower <= value)
    assert np.all(value[spd] - lower[spd] <= 1e-13)


def test_matrix_delta_lower_many_guards():
    assert np.array_equal(matrix_delta_lower_many(-np.eye(3)[None].repeat(3, axis=0)), [-1.0] * 3)
    assert np.array_equal(matrix_delta_lower_many([[[2.0]], [[-0.5]]]), [1.0, -1.0])
    assert matrix_delta_lower_many([rotation_matrix(0.3)])[0] == matrix_delta(rotation_matrix(0.3))
    with pytest.raises(ZeroMatrixError):
        matrix_delta_lower_many(np.zeros((1, 3, 3)))
    with pytest.raises(InvalidParameterError):
        matrix_delta_lower_many(np.full((1, 3, 3), math.nan))
    with pytest.raises(DimensionMismatchError):
        matrix_delta_lower_many(np.zeros((3, 2)))


def test_matrix_delta_many_dim3_bitwise_equals_single_calls(rng):
    mats = np.concatenate([rng.standard_normal((30, 3, 3)),
                           rng.standard_normal((30, 3, 3)) + 2.0 * np.eye(3)])
    many = matrix_delta_many(mats)
    assert np.array_equal(many, [matrix_delta(m) for m in mats])


# ---------------------------------------------------------------------------
# the claim constant and the brute-force check

def test_claim_constant_values():
    assert claim_constant(1.0) == pytest.approx(C1, abs=1e-10)
    grid = np.geomspace(1e-8, 1.0, 50)
    vals = claim_constant(grid)
    assert vals.shape == (50,)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[0] > 0.0
    assert isinstance(claim_constant(0.5), float)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.0000001, math.nan, math.inf])
def test_claim_constant_domain(bad):
    with pytest.raises(InvalidParameterError):
        claim_constant(bad)


@pytest.mark.parametrize("floor", [0.0, -0.5, 1.0000001, math.nan, math.inf])
def test_claim_check_floor_domain(floor):
    with pytest.raises(InvalidParameterError):
        claim_check(dims=(2,), count=10, delta_floor=floor)


def test_negative_seeds_are_rejected_before_sampling():
    # numpy's generator would raise its own ValueError on them
    for make in (lambda: PairConfig(dim=2, seed=-1), lambda: TripleConfig(dim=2, seed=-1),
                 lambda: claim_check(dims=(2,), count=5, seed=-1),
                 lambda: composition_monotonicity_demo(0.1, 0.2, pairs=10, seed=-3)):
        with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer"):
            make()


def test_claim_check_small_run():
    report = claim_check(dims=(2, 3), count=400, seed=3)
    assert report.total_violations == 0
    d = report.json_dict()
    assert set(d) == {"count", "seed", "delta_floor", "dims", "total_violations"}
    for stats in report.stats:
        assert stats.qualified > 0
        assert stats.worst_gap > 0.0  # strict margin, not just non-violation
        assert stats.sampled == 400


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [3, 4])
def test_blocked_search_is_one_call_on_the_stack(n, rng, monkeypatch):
    # blocks of 7 rows, a short last one included, give the bits of one call
    mats = np.concatenate([rng.standard_normal((25, n, n)),
                           rng.standard_normal((25, n, n)) + 2.0 * np.eye(n)])
    mats = mats[rng.permutation(len(mats))]
    monkeypatch.setattr(certify, "_SEARCH_BLOCK", len(mats))
    lower, value = matrix_delta_lower_many(mats), matrix_delta_many(mats)
    monkeypatch.setattr(certify, "_SEARCH_BLOCK", 7)
    assert np.array_equal(matrix_delta_lower_many(mats), lower)
    assert np.array_equal(matrix_delta_many(mats), value)


def test_claim_check_working_set_is_the_input_plus_one_block():
    # five blocks of matrices: the peak is the input stack, one stack-sized
    # temporary (the shifted or the qualified matrices) and one block's search
    block = certify._SEARCH_BLOCK
    one = np.random.default_rng(0).standard_normal((block, 3, 3)) + 2.0 * np.eye(3)
    block_peak = traced_peak(lambda: matrix_delta_lower_many(one))
    count = 5 * block
    peak = traced_peak(lambda: claim_check(dims=(3,), count=count))
    assert peak < 2 * count * 9 * 8 + block_peak


# ---------------------------------------------------------------------------
# two-point certificates

@pytest.mark.parametrize("make", [
    lambda: PairConfig(dim=2, box=math.nan),
    lambda: PairConfig(dim=2, box=0.0),
    lambda: PairConfig(dim=2, log_radius_range=(1.0, -1.0)),
    lambda: PairConfig(dim=2, log_radius_range=(-math.inf, 0.0)),
    lambda: PairConfig(dim=2, log_radius_range=(0.0, 309.0)),
    lambda: TripleConfig(dim=2, box=math.inf),
    lambda: TripleConfig(dim=2, box=math.nan),
    lambda: TripleConfig(dim=2, box=0.0),
    lambda: TripleConfig(dim=2, box=-1.0),
    # boxes whose float spacing is not far below the smallest separation
    lambda: PairConfig(dim=2, box=1e17),
    lambda: PairConfig(dim=2, box=1e3, log_radius_range=(-8.0, 0.0)),
    lambda: TripleConfig(dim=2, box=1e17),
    lambda: TripleConfig(dim=2, box=1e6),  # ulp 1.2e-10 against separations down to 1e-3
    # counts below one
    lambda: PairConfig(dim=2, pairs=-1),
    lambda: PairConfig(dim=2, pairs=0),
    lambda: PairConfig(dim=2, pairs=10, crossing_pairs=-1),
    lambda: TripleConfig(dim=2, triples=-1),
    lambda: TripleConfig(dim=2, buckets=0),
    lambda: PairConfig(dim=3, witness_radii=(25.0, -1.0)),
    lambda: PairConfig(dim=3, witness_radii=(math.inf,)),
])
def test_sampling_configs_reject_bad_ranges(make):
    with pytest.raises(InvalidParameterError):
        make()


def test_two_point_overflowing_separations_are_named():
    cfg = PairConfig(dim=2, pairs=50, seed=0, log_radius_range=(300.0, 301.0))
    with pytest.raises(InvalidParameterError, match="pair separations overflow"):
        two_point_delta(batch_map(identity_map(2)), cfg)


def test_two_point_identity():
    cert = two_point_delta(batch_map(identity_map(2)), PairConfig(dim=2, pairs=2000, seed=1))
    assert cert.delta_hat == pytest.approx(1.0, abs=1e-12)
    assert cert.samples == 2000 and cert.skipped == 0


def test_two_point_rotation_matches_matrix_constant():
    theta = math.pi / 4
    cert = two_point_delta(batch_map(planar_rotation_map(theta)),
                           PairConfig(dim=2, pairs=5000, seed=2))
    assert cert.delta_hat == pytest.approx(math.cos(theta), abs=1e-9)


def test_two_point_witness_recompute():
    spec = power_radial_map(2, 1.0)
    cert = two_point_delta(batch_map(spec), PairConfig(dim=2, pairs=3000, seed=4))
    recomputed = pair_ratio(lambda p: np.asarray(batch_map(spec)(p[None, :]))[0],
                            cert.witness_a, cert.witness_b)
    assert recomputed == pytest.approx(cert.delta_hat, abs=1e-12)


def test_two_point_skips_collapsed_pairs():
    cfg = PairConfig(dim=2, pairs=4000, seed=5, log_radius_range=(-3.0, 0.0), box=2.0)
    cert = two_point_delta(lambda X: np.round(X), cfg)
    assert cert.skipped > 0
    assert cert.samples + cert.skipped == 4000
    with pytest.raises(DegenerateMapError):
        two_point_delta(lambda X: np.zeros_like(X), PairConfig(dim=2, pairs=50, seed=0))


def test_delta_certificate_validation():
    with pytest.raises(InvalidParameterError):
        DeltaCertificate(1.5, np.zeros(2), np.ones(2), 1, 0, 0)


def test_sample_pairs_structure():
    cfg = PairConfig(dim=3, pairs=100, seed=6, crossing_pairs=40, witness_radii=(25.0, 400.0))
    A, B = sample_pairs(cfg)
    assert A.shape == B.shape == (100 + 40 + 8, 3)
    assert np.all(A[100:140, -1] > 0.0)
    assert np.all(B[100:140, -1] < 0.0)
    # witness block: base points at distance ~R from the origin
    assert np.allclose(np.abs(A[140:, 0]), [25.0] * 4 + [400.0] * 4)


def test_trivial_witness_frozen_ratio():
    a, b = trivial_extension_witness(400.0)
    G = trivial_lift_map(power_radial_map(2, 1.0))
    assert pair_ratio(lambda p: G(p), a, b) == pytest.approx(WITNESS_RATIO_400, abs=1e-12)
    assert pair_ratio(lambda p: G(p), b, a) == pytest.approx(WITNESS_RATIO_400, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        trivial_extension_witness(100.0, dim=2)


def test_trivial_lift_refuted_by_witness_family():
    G = trivial_lift_map(power_radial_map(2, 1.0))
    cfg = PairConfig(dim=3, pairs=200, seed=7, witness_radii=(400.0,))
    cert = two_point_delta(G, cfg)
    assert cert.delta_hat <= 0.1


def test_gaussian_lift_of_rotation_stays_positive():
    # same adversarial family that breaks the naive lift, plus crossing
    # pairs; the Gaussian lift keeps every sampled ratio positive
    G = full_space_map(gaussian_extension(planar_rotation_map(math.pi / 4)))
    cfg = PairConfig(dim=3, pairs=400, seed=8, crossing_pairs=100, witness_radii=(25.0, 400.0))
    cert = two_point_delta(G, cfg)
    assert cert.delta_hat > 0.0


# ---------------------------------------------------------------------------
# quasisymmetry profile

def test_profile_identity_is_diagonal():
    prof = quasisymmetry_profile(identity_map(2), TripleConfig(dim=2, triples=2000, seed=1))
    assert np.array_equal(prof.q, prof.s)
    env = prof.envelope[np.isfinite(prof.envelope)]
    assert env.size > 0 and np.all(np.diff(env) >= 0.0)


def test_profile_rotation_is_diagonal():
    prof = quasisymmetry_profile(planar_rotation_map(0.9), TripleConfig(dim=2, triples=2000, seed=2))
    assert np.allclose(prof.q, prof.s, rtol=1e-12)


def test_profile_power_map():
    prof = quasisymmetry_profile(power_radial_map(2, 1.0), TripleConfig(dim=2, triples=5000, seed=3))
    assert prof.skipped <= 50
    assert prof.s.size + prof.skipped == 5000
    env = prof.envelope[np.isfinite(prof.envelope)]
    assert np.all(env > 0.0)
    # ratios of a quasisymmetric map are controlled by a function of s:
    # small s never produces huge q on this smooth example
    small = prof.s < 0.1
    assert prof.q[small].max() < 1.0


def test_profile_errors():
    with pytest.raises(DegenerateTripleError):
        quasisymmetry_profile(linear_map([[0.0, 0.0], [0.0, 0.0]]),
                              TripleConfig(dim=2, triples=500, seed=0))
    with pytest.raises(DimensionMismatchError):
        quasisymmetry_profile(identity_map(3), TripleConfig(dim=2, triples=100))


def test_profile_csv_rows():
    prof = quasisymmetry_profile(identity_map(2), TripleConfig(dim=2, triples=100, seed=4))
    rows = prof.csv_rows()
    assert rows.shape == (prof.s.size, 2)
    assert np.array_equal(rows[:, 0], prof.s)


# ---------------------------------------------------------------------------
# distortion and the composition demo

def test_composition_demo_flags_lost_monotonicity():
    report = composition_monotonicity_demo(math.pi / 3, math.pi / 3, pairs=2000, seed=1)
    assert report.delta1 == pytest.approx(0.5, abs=1e-6)
    assert report.delta2 == pytest.approx(0.5, abs=1e-6)
    assert report.delta_composed_matrix == pytest.approx(-0.5, abs=1e-6)
    assert report.flagged
    assert report.certificate.delta_hat <= -0.5 + 1e-6
    d = report.json_dict()
    assert d["flagged_non_monotone"] is True
    assert d["two_point"]["delta_hat"] == report.certificate.delta_hat


def test_composition_demo_benign_angles():
    report = composition_monotonicity_demo(math.pi / 8, math.pi / 8, pairs=1000, seed=2)
    assert not report.flagged
    assert report.delta_composed_matrix == pytest.approx(math.cos(math.pi / 4), abs=1e-6)
    report = composition_monotonicity_demo(0.0, 0.0, pairs=500, seed=3)
    assert report.delta1 == pytest.approx(1.0, abs=1e-12)
    assert report.delta_composed_matrix == pytest.approx(1.0, abs=1e-12)
    assert report.certificate.delta_hat == pytest.approx(1.0, abs=1e-12)


def test_composition_demo_rejects_non_monotone_factors():
    with pytest.raises(InvalidParameterError):
        composition_monotonicity_demo(math.pi / 2, 0.1)
    with pytest.raises(InvalidParameterError):
        composition_monotonicity_demo(0.1, -math.pi / 2)
