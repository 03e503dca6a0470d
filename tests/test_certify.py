"""Monotonicity constants, the singular-value claim, profiles, demos."""

import decimal
import math
import tracemalloc
import warnings

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
    matrix_delta_many,
    planar_rotation_map,
    power_radial_map,
    quasisymmetry_profile,
    rotation_matrix,
    sample_height_pairs,
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


def test_delta_gamma_claim_chain(rng):
    # for delta > 0: gamma <= delta and gamma >= delta * c(delta), where
    # gamma = min over unit v of <Av, v> / ||A|| = lambda_min(sym A) / ||A||
    def matrix_gamma(A):
        return np.linalg.eigvalsh(0.5 * (A + A.T))[0] / np.linalg.norm(A, 2)

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
    value = matrix_delta_many(mats)
    assert np.array_equal(value, matrix_delta_many(mats))
    assert np.all(value <= dense_sphere_delta(mats, points) + 1e-12)
    assert np.sum(value >= 0.05) >= 60


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
def test_matrix_delta_many_tight_against_attained_ratios(n):
    # from above: an attained ratio within 1e-12 of the certified lower bound
    # pins delta on every row where the bound is tight
    rng = np.random.default_rng([2026, n])
    mats = oracle_matrices(n, rng)
    if n == 3:
        points = fibonacci_sphere(16384)
    else:
        points = rng.standard_normal((16384, n))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    lower = matrix_delta_many(mats)
    tight = np.flatnonzero(lower >= 0.05)
    assert len(tight) >= 60
    attained = np.array([attained_sphere_delta(mats[k], points) for k in tight])
    assert np.all(attained - lower[tight] >= -1e-12)
    assert np.all(attained - lower[tight] <= 1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_delta_spd_eigenvalue_formula_higher_dims(n, rng):
    # SPD: delta = 2 sqrt(l_min l_max) / (l_min + l_max), attained by a mix
    # of the two extreme eigenvectors (the pencil's lowest eigenvalue is double)
    for _ in range(50):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = 10.0 ** rng.uniform(-3.0, 3.0, n)
        A = Q @ np.diag(lam) @ Q.T
        expected = 2.0 * math.sqrt(lam.min() * lam.max()) / (lam.min() + lam.max())
        assert matrix_delta_many(A[None])[0] == pytest.approx(expected, abs=1e-12)
        # bitwise symmetric: the closed form from eigvalsh, less its allowance
        S = 0.5 * (A + A.T)
        assert np.array_equal(S, S.T)
        assert matrix_delta_many(S[None])[0] == pytest.approx(expected, abs=1e-12)


def block_rotation(n, theta):
    A = np.eye(n)
    A[:2, :2] = rotation_matrix(theta)
    return A


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_delta_block_rotations_higher_dims(n):
    # theta < pi/2, where sym A is positive definite
    for theta in np.linspace(0.0, math.pi, 13)[:6]:
        assert matrix_delta(block_rotation(n, theta)) == pytest.approx(math.cos(theta), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matrix_delta_many_rows_are_batch_independent(n, rng):
    # a mixed stack: Gaussian matrices (mostly P not positive definite), shifted
    # ones (mostly positive definite), rank-one ones, diag(1, ..., 1, 0) and
    # block rotations past a quarter turn
    mats = np.concatenate([rng.standard_normal((20, n, n)),
                           rng.standard_normal((20, n, n)) + 2.0 * np.eye(n),
                           [np.outer(rng.standard_normal(n), rng.standard_normal(n))
                            for _ in range(5)],
                           [np.diag([1.0] * (n - 1) + [0.0])],
                           [block_rotation(n, theta) for theta in (1.7, 2.5, math.pi)]])
    mats = mats[rng.permutation(len(mats))]
    value = matrix_delta_many(mats)
    alone = np.array([matrix_delta_many(m[None])[0] for m in mats])
    assert np.array_equal(value, alone)
    spd = np.linalg.eigvalsh(mats + np.swapaxes(mats, 1, 2))[:, 0] > 0.0
    assert 0 < spd.sum() < len(mats)
    assert np.all(value[spd] > -1.0)
    # not positive definite in the symmetric part: delta <= 0, so exactly -1, not searched
    assert np.all(value[~spd] == -1.0)


def swept_pencil_max(mats, points=4097):
    """Largest c(mu) of the pencil (sym A, (mu A^T A + I/mu) / 2) over ``points``
    evenly spaced log(mu) from -log sigma_max - 1 to -log sigma_min + 1, each
    found in A's right singular basis, where the pencil's right side is diagonal."""
    _, sv, Vt = np.linalg.svd(mats)
    P = Vt @ (0.5 * (mats + np.swapaxes(mats, 1, 2))) @ np.swapaxes(Vt, 1, 2)
    s = np.linspace(-np.log(sv[:, 0]) - 1.0, -np.log(sv[:, -1]) + 1.0, points, axis=1)
    mu = np.exp(s)[..., None]
    d = 1.0 / np.sqrt(0.5 * (mu * sv[:, None, :] ** 2 + 1.0 / mu))
    return np.linalg.eigvalsh(P[:, None] * d[..., :, None] * d[..., None, :])[..., 0].max(axis=1)


def counted_eigen_solves(monkeypatch):
    """The number of matrices in each call of np.linalg.eigvalsh, eigvals and svd."""
    batches = {"eigvalsh": [], "eigvals": [], "svd": []}
    for name in batches:
        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            batches[_name].append(int(np.prod(np.shape(a)[:-2])))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return batches


def test_definite_block_searches_without_the_grid(monkeypatch, rng):
    # where sym A is positive definite c(mu) is unimodal in log mu: golden section
    # alone, one search for the block after one eigvalsh that sorts the rows
    # (and no second definiteness test), and each row stops once convexity
    # certifies it (70 matrices for 66 steps)
    mats = rng.standard_normal((40, 3, 3)) + 4.0 * np.eye(3)
    assert np.all(np.linalg.eigvalsh(mats + np.swapaxes(mats, 1, 2))[:, 0] > 0.0)
    batches = counted_eigen_solves(monkeypatch)
    matrix_delta_many(mats)
    sort, *search = batches["eigvalsh"]
    assert batches["eigvals"] == [] and sort == 40 and batches["svd"] == [40]
    assert len(search) <= 1 + certify._GOLDEN_STEPS
    assert sum(search) <= 45 * 40


def test_mixed_block_searches_only_its_definite_rows(monkeypatch, rng):
    # rows whose sym A is not positive definite get -1 without an SVD or a
    # search: the definite rows' frame and golden section are the only ones
    mats = np.concatenate([rng.standard_normal((20, 3, 3)) + 4.0 * np.eye(3),
                           rng.standard_normal((20, 3, 3)) - 4.0 * np.eye(3),
                           [np.outer(rng.standard_normal(3), rng.standard_normal(3))]])
    spd = np.linalg.eigvalsh(mats + np.swapaxes(mats, 1, 2))[:, 0] > 0.0
    assert spd.sum() == 20
    batches = counted_eigen_solves(monkeypatch)
    assert np.all(matrix_delta_many(mats)[~spd] == -1.0)
    sort, *search = batches["eigvalsh"]
    assert batches["eigvals"] == [] and sort == 41 and batches["svd"] == [20]
    assert len(search) <= 1 + certify._GOLDEN_STEPS and max(search) <= 4 * 20
    assert sum(search) <= 45 * 20


def test_symmetric_definite_rows_take_the_closed_form(monkeypatch, rng):
    # bitwise symmetric rows whose sym A is clearly positive definite get
    # Kantorovich's form from the eigenvalues that sorted them: no SVD, no search
    B = rng.standard_normal((40, 3, 3))
    mats = 0.5 * (B + np.swapaxes(B, 1, 2)) + 4.0 * np.eye(3)
    assert np.array_equal(mats, np.swapaxes(mats, 1, 2))
    searched = certify._pencil_search(certify._pow2_rescaled(mats))
    batches = counted_eigen_solves(monkeypatch)
    value = matrix_delta_many(mats)
    assert batches == {"eigvalsh": [40], "eigvals": [], "svd": []}
    assert np.all(np.abs(value - searched) <= 1e-14)


def gate_margin(n):
    """The n >= 3 gate's margin on the least eigenvalue of sym A, rescaled."""
    return 32 * n**3 * np.finfo(float).eps


def rescaled_least_eigenvalues(mats):
    A = certify._pow2_rescaled(np.asarray(mats, float))
    return np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, 1, 2)))[:, 0]


def test_rows_within_the_gate_margin_get_minus_one(monkeypatch, rng):
    # lambda_min(sym A) at most the gate's margin 32 n^3 eps: these rows,
    # symmetric or not, get exactly -1 from the sorting eigvalsh alone, with
    # no SVD, as do the clearly indefinite rows; the clearly definite
    # symmetric rows take the closed form
    band, tiny = [], (0.0, 1e-15, -1e-15, 3e-16, -3e-16, 1e-14, -1e-14, 1e-13, -1e-13)
    for eps in tiny:
        K = rng.standard_normal((3, 3))
        band += [np.diag([1.0, 0.5, eps]) + 0.3 * (K - K.T), np.diag([1.0, eps, 0.25])]
    B = rng.standard_normal((10, 3, 3))
    far = np.concatenate([0.5 * (B + np.swapaxes(B, 1, 2)) + 4.0 * np.eye(3),
                          rng.standard_normal((10, 3, 3)) - 4.0 * np.eye(3)])
    mats = np.concatenate([band, far])
    low = rescaled_least_eigenvalues(mats)
    assert np.all(np.abs(low[:len(band)]) <= gate_margin(3))
    assert np.all(np.abs(low[len(band):]) > 1e-3)
    batches = counted_eigen_solves(monkeypatch)
    value = matrix_delta_many(mats)
    assert batches == {"eigvalsh": [len(mats)], "eigvals": [], "svd": []}
    assert np.all(value[:len(band)] == -1.0)
    assert np.all(value[len(band):len(band) + 10] > 0.0) and np.all(value[len(band) + 10:] == -1.0)
    # what -1 loses there: delta <= (32 lambda_min)^(1/3) after the rescale.  The
    # symmetric band rows diag(1, eps, 1/4), rescaled by 1/2, have delta
    # 2 sqrt(l_min l_max) / (l_min + l_max) from their own diagonals
    bound = decimal.Decimal(32 * gate_margin(3)) ** (decimal.Decimal(1) / 3)
    assert 1.8e-4 < bound < 1.9e-4
    for eps in tiny:
        if eps > 0.0:
            assert decimal_spd_delta(eps / 2, 0.5) < bound


def truncated_frame(mats):
    """The singular-value frame of the rescaled stack: sigma with the values
    below _RANK_RATIO sigma_max set to 0, WS = V^T U diag(sigma) and
    P = sym(WS).  A reference for the search, which takes no truncation."""
    U, sv, Vt = np.linalg.svd(certify._pow2_rescaled(np.asarray(mats, float)))
    sv = np.where(sv > certify._RANK_RATIO * sv[:, :1], sv, 0.0)
    WS = (Vt @ U) * sv[:, None, :]
    return sv, WS, 0.5 * (WS + np.swapaxes(WS, 1, 2))


def truncated_frame_delta(mats):
    """Reference value of each n >= 3 row: the truncated frame, its own test
    that P is positive definite (-1 where it is not), then golden section on
    c(mu) over [-log sigma_max, -log max(sigma_min, _RANK_RATIO sigma_max)]
    with the search's objective and allowance."""
    sv, WS, P = truncated_frame(mats)
    pd = np.linalg.eigvalsh(P)[:, 0] > 0.0
    sv, WS, P = sv[pd], WS[pd], P[pd]
    entry_slack = 4 * P.shape[1] * np.finfo(float).eps * np.abs(WS)

    def objective(s, sv2, P, entry_slack):
        mu = np.exp(s)[..., None]
        d = np.sqrt(2.0 / (mu * sv2 + 1.0 / mu))
        dd = d[..., :, None] * d[..., None, :]
        return (np.linalg.eigvalsh(P * dd)[..., 0],
                np.sqrt(np.square(entry_slack * dd).sum(axis=(-2, -1))))

    lo, hi = -np.log(sv[:, 0]), -np.log(np.maximum(sv[:, -1], certify._RANK_RATIO * sv[:, 0]))
    out = np.full(len(mats), -1.0)
    out[pd] = certify._golden_max(objective, lo, hi, sv * sv, P, entry_slack)
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rows_just_above_the_gate_margin_match_the_truncated_frame(n):
    # lambda_min(sym A) from 1.01 to 8 margins, sym A diagonal and A not
    # symmetric: each row takes the search, and its value is the truncated
    # frame's, bit for bit.  No sigma is truncated there: sigma_min >=
    # lambda_min(sym A) > margin > _RANK_RATIO sigma_max
    rng = np.random.default_rng([28, n])
    margin = gate_margin(n)
    mats = []
    for scale in np.linspace(1.01, 8.0, 24):
        K = rng.standard_normal((n, n))
        A = certify._pow2_rescaled(np.diag(rng.uniform(0.5, 1.0, n))[None] + 0.3 * (K - K.T))[0]
        A[-1, -1] = scale * margin
        mats.append(A)
    mats = np.array(mats)
    assert np.array_equal(certify._pow2_rescaled(mats), mats)
    assert not np.any(np.all(mats == np.swapaxes(mats, 1, 2), axis=(1, 2)))
    low = rescaled_least_eigenvalues(mats)
    assert np.all(low > margin) and np.all(low <= 8.0 * margin)
    sv = np.linalg.svd(mats, compute_uv=False)
    assert np.all(sv[:, -1] > certify._RANK_RATIO * sv[:, 0])
    expected = truncated_frame_delta(mats)
    assert np.all(expected > -1.0)
    assert np.array_equal(matrix_delta_many(mats), expected)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_definite_search_reaches_the_swept_maximum(n):
    # symmetric positive definite plus skew parts, with sigma spread up to 1e6:
    # the search is never below the best of a 4097-point sweep of c(mu)
    rng = np.random.default_rng([19, n])
    m = 60
    Q = np.linalg.qr(rng.standard_normal((m, n, n)))[0]
    top = rng.uniform(0.0, 6.0, m)
    lam = 10.0 ** (rng.uniform(0.0, 1.0, (m, n)) * top[:, None])
    lam[:, 0], lam[:, 1] = 1.0, 10.0 ** top
    K = rng.standard_normal((m, n, n)) * (0.3 * 10.0 ** (rng.uniform(-6.0, 0.0, m) + top / 2))[:, None, None]
    mats = Q @ (lam[:, :, None] * np.swapaxes(Q, 1, 2)) + K - np.swapaxes(K, 1, 2)
    assert np.all(np.linalg.eigvalsh(mats + np.swapaxes(mats, 1, 2))[:, 0] > 0.0)
    sv = np.linalg.svd(mats, compute_uv=False)
    assert np.max(sv[:, 0] / sv[:, -1]) > 5e5
    assert np.all(matrix_delta_many(mats) >= swept_pencil_max(mats) - 1e-13)


def full_golden_search(mats):
    """The n >= 3 search without its stop rule: 66 golden steps from the two
    interior points, then the best of them and the ends.  Returns the rows
    whose sym A is positive definite, and each one's best c(mu) and its
    rounding allowance there."""
    sv, WS, P = truncated_frame(mats)
    pd = np.linalg.eigvalsh(P)[:, 0] > 0.0
    sv, WS, P = sv[pd], WS[pd], P[pd]
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def scale(s):
        mu = np.exp(s)[..., None]
        return 1.0 / np.sqrt(0.5 * (mu * (sv * sv)[:, None, :] + 1.0 / mu))

    def c(s):
        d = scale(s)
        return np.linalg.eigvalsh(P[:, None] * d[..., :, None] * d[..., None, :])[..., 0]

    lo = -np.log(sv[:, :1])
    hi = -np.log(np.maximum(sv[:, -1:], certify._RANK_RATIO * sv[:, :1]))
    a, b = lo, hi
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = c(x1), c(x2)
    for _ in range(66):
        right = f1 < f2
        a, b = np.where(right, x1, a), np.where(right, b, x2)
        xn = np.where(right, a + golden * (b - a), b - golden * (b - a))
        fn = c(xn)
        x1, x2 = np.where(right, x2, xn), np.where(right, xn, x1)
        f1, f2 = np.where(right, f2, fn), np.where(right, fn, f1)
    xs = np.concatenate([lo, hi, x1, x2], axis=1)
    fs = np.concatenate([c(lo), c(hi), f1, f2], axis=1)
    best = np.argmax(fs, axis=1)[:, None]
    d = scale(np.take_along_axis(xs, best, axis=1))[:, 0]
    N = np.abs(WS) * d[:, :, None] * d[:, None, :]
    allowance = 4 * mats.shape[1] * np.finfo(float).eps * np.sqrt((N * N).sum(axis=(1, 2)))
    return pd, np.take_along_axis(fs, best, axis=1)[:, 0], allowance


def spread_definite_stack(n):
    """The stack of test_definite_search_reaches_the_swept_maximum: definite
    symmetric parts plus skew parts, with sigma spread up to 1e6."""
    rng = np.random.default_rng([19, n])
    m = 60
    Q = np.linalg.qr(rng.standard_normal((m, n, n)))[0]
    top = rng.uniform(0.0, 6.0, m)
    lam = 10.0 ** (rng.uniform(0.0, 1.0, (m, n)) * top[:, None])
    lam[:, 0], lam[:, 1] = 1.0, 10.0 ** top
    K = rng.standard_normal((m, n, n)) * (0.3 * 10.0 ** (rng.uniform(-6.0, 0.0, m) + top / 2))[:, None, None]
    return Q @ (lam[:, :, None] * np.swapaxes(Q, 1, 2)) + K - np.swapaxes(K, 1, 2)


@pytest.mark.parametrize("stack", ["acceptance-04", 3, 4, 5])
def test_stopped_search_is_within_an_allowance_of_the_full_search(stack, monkeypatch):
    # the stop rule costs at most one allowance: each value is at or above the
    # full search's value (its best c less the allowance) less one allowance
    if stack == "acceptance-04":
        mats = certify._random_test_matrices(3, 10000, np.random.default_rng([7, 3]))
    else:
        mats = spread_definite_stack(stack)
    pd, best, allowance = full_golden_search(mats)
    batches = counted_eigen_solves(monkeypatch)
    value = matrix_delta_many(mats)
    assert np.all(value[pd] >= best - 2.0 * allowance)
    assert np.all(value[~pd] == -1.0)
    if stack == "acceptance-04":
        # each block's sorting call takes its matrices once; the full search
        # takes 70 per definite row
        assert sum(batches["eigvalsh"]) - len(mats) <= 45 * pd.sum()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conformal_rows_stop_at_once(monkeypatch, n):
    # all sigma equal: the search interval has width 0, so the four points of
    # the first bracket coincide and certify their value without a step.  The
    # rows s I and the rotation by 0 are symmetric and take the closed form;
    # the three other rotations take the SVD and the search
    mats = np.array([s * np.eye(n) for s in (1.0, 3.0, 1e-9)]
                    + [block_rotation(n, theta) for theta in (0.0, 0.4, 1.2, 1.5)])
    sv = np.linalg.svd(certify._pow2_rescaled(mats), compute_uv=False)
    assert np.all(sv[:, 0] == sv[:, -1])
    batches = counted_eigen_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = matrix_delta_many(mats)
    assert batches["eigvalsh"] == [len(mats), 4 * 3] and batches["svd"] == [3]
    expected = [1.0] * 3 + [math.cos(theta) for theta in (0.0, 0.4, 1.2, 1.5)]
    assert value == pytest.approx(expected, abs=1e-13)


def test_matrix_delta_many_guards():
    assert np.array_equal(matrix_delta_many(-np.eye(3)[None].repeat(3, axis=0)), [-1.0] * 3)
    assert np.array_equal(matrix_delta_many([[[2.0]], [[-0.5]]]), [1.0, -1.0])
    assert matrix_delta_many([rotation_matrix(0.3)])[0] == matrix_delta(rotation_matrix(0.3))
    with pytest.raises(ZeroMatrixError):
        matrix_delta_many(np.zeros((1, 3, 3)))
    with pytest.raises(InvalidParameterError):
        matrix_delta_many(np.full((1, 3, 3), math.nan))
    with pytest.raises(DimensionMismatchError):
        matrix_delta_many(np.zeros((3, 2)))


def test_matrix_delta_many_dim3_bitwise_equals_single_calls(rng):
    mats = np.concatenate([rng.standard_normal((30, 3, 3)),
                           rng.standard_normal((30, 3, 3)) + 2.0 * np.eye(3)])
    many = matrix_delta_many(mats)
    assert np.array_equal(many, [matrix_delta(m) for m in mats])


# diagonals at which the value without its rounding allowance is above delta:
# the best c(mu) for n >= 3, the closed form for n = 2
ABOVE_DELTA = [0.00811970702068584, 0.008890044530938581, 0.010919695766026725]
ABOVE_DELTA_2X2 = [0.554097750796329, 0.037283522110637686]


def decimal_spd_delta(low, high):
    """2 sqrt(low high) / (low + high) of positive floats or decimals in 60-digit decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lo, hi = decimal.Decimal(low), decimal.Decimal(high)
        return 2 * (lo * hi).sqrt() / (lo + hi)


def decimal_extreme_eigenvalues(S):
    """Least and greatest eigenvalues of a symmetric float matrix in 80-digit
    decimal: Newton's method on det(x I - S), with coefficients from
    Faddeev-LeVerrier, started at the float eigenvalues, each of which must
    lie 1e-9 from its neighbour so that Newton keeps to its root."""
    n = len(S)
    w = np.linalg.eigvalsh(S)
    assert w[1] - w[0] > 1e-9 and w[-1] - w[-2] > 1e-9
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        A = [[decimal.Decimal(x) for x in row] for row in S]
        coeffs, M = [decimal.Decimal(1)], [[decimal.Decimal(0)] * n for _ in range(n)]
        for k in range(1, n + 1):
            # M_k = A M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(A M_k) / k
            M = [[sum(A[i][m] * M[m][j] for m in range(n)) + (coeffs[-1] if i == j else 0)
                  for j in range(n)] for i in range(n)]
            coeffs.append(-sum(A[i][m] * M[m][i] for i in range(n) for m in range(n)) / k)

        def newton(start):
            x = decimal.Decimal(start)
            for _ in range(10):
                p, dp = decimal.Decimal(0), decimal.Decimal(0)
                for c in coeffs:
                    p, dp = p * x + c, dp * x + p
                x, step = x - p / dp, p / dp
            assert abs(step) < decimal.Decimal("1e-70") and abs(float(x) - start) < 1e-12
            return x

        return newton(w[0]), newton(w[-1])


def symmetric_definite_stack(n, rng, count=200):
    """sym B plus a shift that leaves the least eigenvalue in [1e-6, 1]: bitwise
    symmetric, positive definite and not diagonal."""
    B = rng.standard_normal((count, n, n))
    S = 0.5 * (B + np.swapaxes(B, 1, 2))
    shift = 10.0 ** rng.uniform(-6.0, 0.0, count) - np.linalg.eigvalsh(S)[:, 0]
    return S + shift[:, None, None] * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_matrix_delta_many_is_at_or_below_exact_delta(n):
    # every value, read as the exact decimal of its float, is at or below delta.
    # Positive diagonals: the extra entries of ABOVE_DELTA's row lie between its
    # ends, so they leave its delta alone; for n >= 3 the pencil search on them
    # is checked too, since matrix_delta_many gives symmetric rows the closed
    # form.  Bitwise symmetric, non-diagonal rows: delta from eigenvalues found
    # in 80-digit decimal
    rng = np.random.default_rng([24, n])
    lam = rng.uniform(0.01, 1.0, (1000, n))
    if n == 2:
        lam[0] = ABOVE_DELTA_2X2
    else:
        lam[0] = ABOVE_DELTA + sorted(rng.uniform(ABOVE_DELTA[0], ABOVE_DELTA[2], n - 3))
    diagonal = lam[:, :, None] * np.eye(n)
    exact_diagonal = [decimal_spd_delta(min(row), max(row)) for row in lam]
    values, exact = [matrix_delta_many(diagonal)], [exact_diagonal]
    if n >= 3:
        values.append(certify._pencil_search(certify._pow2_rescaled(diagonal)))
        exact.append(exact_diagonal)
    symmetric = symmetric_definite_stack(n, rng)
    assert np.array_equal(symmetric, np.swapaxes(symmetric, 1, 2))
    values.append(matrix_delta_many(symmetric))
    exact.append([decimal_spd_delta(*decimal_extreme_eigenvalues(S)) for S in symmetric])
    above = [(j, k) for j, (value, ref) in enumerate(zip(values, exact))
             for k in range(len(value)) if decimal.Decimal(float(value[k])) > ref[k]]
    assert above == []


def decimal_ratio(A, v):
    """v^T A v / (|A v| |v|) of a float matrix and vector in 60-digit decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        w = [decimal.Decimal(x) for x in v.tolist()]
        Aw = [sum(decimal.Decimal(a) * b for a, b in zip(row, w)) for row in A.tolist()]
        return sum(a * b for a, b in zip(w, Aw)) / (
            sum(a * a for a in Aw).sqrt() * sum(a * a for a in w).sqrt())


def least_ratio_direction(A):
    """A BFGS minimiser of v^T A v / (|A v| |v|), the better of the runs from
    +e and -e, e the least eigenvector of sym A."""
    S, G = A + A.T, A.T @ A

    def ratio_and_grad(x):
        Ax = A @ x
        r, s, q = np.linalg.norm(Ax), np.linalg.norm(x), x @ Ax
        return q / (r * s), S @ x / (r * s) - q * (G @ x) / (r**3 * s) - q * x / (r * s**3)

    e = np.linalg.eigh(0.5 * S)[1][:, 0]
    runs = [minimize(ratio_and_grad, sign * e, jac=True, method="BFGS",
                     options={"gtol": 1e-13}).x for sign in (1.0, -1.0)]
    return min(runs, key=lambda x: ratio_and_grad(x)[0])


def test_nonsymmetric_rows_are_at_or_below_an_attained_ratio():
    # searched rows, n = 3-5, with a skew part and lambda_min(sym A) in
    # [0.1, 1] after the rescale: each value, read as the exact decimal of its
    # float, is positive and at or below the exact ratio at a point, so at or
    # below delta; and within 1e-12 of it wherever BFGS from +-e reaches the
    # least ratio, not a local minimum.  Rows whose sym A is nearly singular
    # can read above delta by about 1e-13 (ROADMAP item 15), so none is here
    rng = np.random.default_rng(30)
    mats = []
    while len(mats) < 40:
        n = 3 + len(mats) % 3
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        B = rng.standard_normal((n, n))
        A = (Q * rng.uniform(0.1, 1.0, n)) @ Q.T + 10.0 ** rng.uniform(-5.0, -1.0) * (B - B.T)
        A = certify._pow2_rescaled(A[None])[0]
        if 0.1 <= np.linalg.eigvalsh(0.5 * (A + A.T))[0] <= 1.0:
            mats.append(A)
    gaps = []
    for A in mats:
        value = decimal.Decimal(float(matrix_delta_many(A[None])[0]))
        ratio = decimal_ratio(A, least_ratio_direction(A))
        assert 0 < value <= ratio, (A.tolist(), value, ratio)
        gaps.append(ratio - value)
    assert sum(gap <= decimal.Decimal("1e-12") for gap in gaps) >= 36


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


@pytest.mark.parametrize("make", [
    lambda: claim_check(dims=(2,), count=2.5),
    lambda: claim_check(dims=(2,), seed=1.5),
    lambda: sample_height_pairs(2, 3, seed=1.5),
    lambda: PairConfig(dim=2, pairs=2.5),
    lambda: PairConfig(dim=2, crossing_pairs=2.5),
    lambda: TripleConfig(dim=2, triples=2.5),
    lambda: PairConfig(dim=2, seed=True),
], ids=["claim-count", "claim-seed", "height-pairs-seed", "pairs", "crossing-pairs",
        "triples", "bool-seed"])
def test_non_integer_counts_and_seeds_are_rejected(make):
    # numpy would raise its own TypeError on a float count or seed
    with pytest.raises(InvalidParameterError, match=r"must be (a non-negative|a positive) integer, got"):
        make()


@pytest.mark.parametrize("dims", [(), (0,), (2.5,), (2, 3.0), (True,), 3, np.int64(3), None],
                         ids=repr)
def test_claim_check_dims_must_be_positive_integers(dims):
    # numpy's generator would raise its own TypeError on a float or bool dim
    with pytest.raises(InvalidParameterError, match="dims must be one or more positive integers"):
        claim_check(dims=dims, count=5)


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
    value = matrix_delta_many(mats)
    monkeypatch.setattr(certify, "_SEARCH_BLOCK", 7)
    assert np.array_equal(matrix_delta_many(mats), value)


def test_claim_check_working_set_is_the_input_plus_one_block():
    # five blocks of matrices: the peak is the input stack, one stack-sized
    # temporary (the shifted or the qualified matrices) and one block's search
    block = certify._SEARCH_BLOCK
    one = np.random.default_rng(0).standard_normal((block, 3, 3)) + 2.0 * np.eye(3)
    block_peak = traced_peak(lambda: matrix_delta_many(one))
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


def test_two_point_rejects_a_map_of_the_wrong_shape():
    # an (m, 1) difference would broadcast against the (m, 2) one
    with pytest.raises(DimensionMismatchError, match="sends points of shape"):
        two_point_delta(lambda X: X[:, :1], PairConfig(dim=2, pairs=5))
    with pytest.raises(DimensionMismatchError, match="sends points of shape"):
        two_point_delta(lambda X: np.hstack([X, X]), PairConfig(dim=2, pairs=5))


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
