"""Monotonicity and quasisymmetry certification.

Two notions of a monotonicity constant are estimated here and tied
together by an explicit algebraic bound:

* the two-point constant of a map F, the infimum of
  <F(a) - F(b), a - b> / (|F(a) - F(b)| |a - b|) over sampled pairs;
* the matrix constant of a single matrix A, the minimum over unit v of
  v^T A v / |A v| (directions with A v = 0 excluded), together with the
  companion constant gamma(A) = min_v v^T A v / (||A|| |v|^2).

For a matrix with constant delta the smallest singular value is bounded
below by c(delta) ||A|| with

    c(delta) = (1/delta + 1 - sqrt((1/delta + 1)^2 - 1))^2,

and ``claim_check`` brute-forces that bound over random matrices.

Matrix constants of 1x1 and 2x2 matrices are exact (a closed form, see
``_delta_2x2``).  For n >= 3 let P = sym A,
B_mu = (mu A^T A + I / mu) / 2 and c(mu) the least eigenvalue of the
pencil (P, B_mu).  As |Av| |v| <= v^T B_mu v (AM-GM, with equality when
mu |Av| = |v|), delta >= c(mu) for every mu when P is positive definite,
and then delta = max c(mu) by Brickman's convexity theorem and the
S-lemma; otherwise delta = min c(mu).  Both searches over log mu share
one frame (``_pencil_frame``) and one golden-section search:

* ``matrix_delta_lower_many`` gives a certified lower bound, the best c
  less a rounding allowance.  It searches only the matrices whose P is
  positive definite and gives every other matrix exactly -1.
* ``matrix_delta`` and ``matrix_delta_many`` search every matrix and
  report the c found, clipped to [-1, 1]: the best, at or below delta up
  to rounding, where P is positive definite, and the least, at or above
  delta, elsewhere.

Where P is positive definite the two differ only by the allowance.
``claim_check`` reads only the lower bound, and qualifies matrices on it.
Both search a stack ``_SEARCH_BLOCK`` matrices at a time: rows are
independent, so the bits are those of one call on the whole stack, and the
working set beyond the input is one block's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    MapSpec,
    as_square_matrix,
    batch_map,
    compose_maps,
    evaluate_map,
    planar_rotation_map,
    rotation_matrix,
)
from .errors import (
    DegenerateMapError,
    DegenerateTripleError,
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    ZeroMatrixError,
)
from .quadrature import check_allocation

__all__ = [
    "PairConfig",
    "DeltaCertificate",
    "sample_pairs",
    "trivial_extension_witness",
    "two_point_delta",
    "matrix_delta",
    "matrix_delta_many",
    "matrix_delta_lower_many",
    "matrix_gamma",
    "claim_constant",
    "ClaimReport",
    "claim_check",
    "TripleConfig",
    "EtaProfile",
    "quasisymmetry_profile",
    "CompositionReport",
    "composition_monotonicity_demo",
]

_RANK_RATIO = 1e-14        # singular values below this fraction of sigma_max count as 0
_PENCIL_GRID = 32          # evenly spaced log(mu) points per matrix before refinement
_GOLDEN_STEPS = 60         # bracket shrinks by 0.618^60 ~ 3e-13
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SEARCH_BLOCK = 1024       # matrices per block of the n >= 3 search, about 0.6 MB at n = 3


# ---------------------------------------------------------------------------
# pair sampling and two-point certificates

@dataclass(frozen=True)
class PairConfig:
    """Sampling plan for two-point monotonicity ratios.

    Base points are uniform in [-box, box]^dim and the second point of a
    pair sits at a log-uniform separation 10^u, u in ``log_radius_range``.
    ``crossing_pairs`` adds pairs forced onto opposite sides of the last
    coordinate hyperplane; ``witness_radii`` adds the explicit adversarial
    family that refutes the naive (trivial) lift.
    """

    dim: int
    pairs: int = 20000
    seed: int = 0
    log_radius_range: tuple[float, float] = (-3.0, 3.0)
    box: float = 10.0
    crossing_pairs: int = 0
    witness_radii: tuple[float, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be a non-negative integer, got {self.seed}")
        if self.pairs < 0 or self.crossing_pairs < 0:
            raise InvalidParameterError(
                f"pair counts must be nonnegative, got {self.pairs} and {self.crossing_pairs}")
        count = self.pairs + self.crossing_pairs
        if count == 0 and not self.witness_radii:
            raise InvalidParameterError("at least one pair must be sampled")
        check_allocation(2 * count * self.dim * 8, f"{count} point pairs in dimension {self.dim}")
        if not all(math.isfinite(R) and R > 0.0 for R in self.witness_radii):
            raise InvalidParameterError(
                f"witness radii must be finite and positive, got {self.witness_radii}")
        # separations 10^u must be finite floats
        if not -308.0 <= self.log_radius_range[0] <= self.log_radius_range[1] <= 308.0:
            raise InvalidParameterError("log_radius_range must be ordered within [-308, 308], "
                                        f"got {tuple(self.log_radius_range)}")
        _check_sampling(self.box, 10.0 ** self.log_radius_range[0])


# A sampled point a + r d is rounded to the spacing of the box's floats, so
# the separation r carries an error of up to one such ulp, relative ulp / r.
# Below 2^26 ulps it keeps fewer than half of its 53 bits, and below half
# an ulp it rounds to zero and the pair collapses.
_MIN_SEPARATION_ULPS = 2.0**26


def _check_sampling(box, smallest):
    """Raise unless ``box`` is finite and positive and the ``smallest``
    separation is many ulps of the box's floats."""
    if not (math.isfinite(box) and box > 0.0):
        raise InvalidParameterError(f"box must be finite and positive, got {box}")
    ulp = float(np.spacing(box))
    if smallest < _MIN_SEPARATION_ULPS * ulp:
        raise InvalidParameterError(
            f"box {box:.4g} is too large for separations down to {smallest:.4g}: "
            f"its ulp {ulp:.4g} must be at most 2^-26 of the smallest separation")


@dataclass(frozen=True, eq=False)
class DeltaCertificate:
    """Result of a two-point sweep: the minimum ratio and who achieved it."""

    delta_hat: float
    witness_a: np.ndarray
    witness_b: np.ndarray
    samples: int
    skipped: int
    seed: int

    def __post_init__(self):
        # Cauchy-Schwarz caps the ratio at 1; allow rounding noise only
        if not self.delta_hat <= 1.0 + 1e-9:
            raise InvalidParameterError(f"two-point ratio {self.delta_hat} exceeds 1")

    def json_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "witness": {"a": self.witness_a.tolist(), "b": self.witness_b.tolist()},
            "samples": self.samples,
            "seed": self.seed,
            "skipped": self.skipped,
        }


def trivial_extension_witness(R: float, dim: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Adversarial pair for the naive lift of a radially stretching map.

    Base points sit on a circle of radius R, separated tangentially by
    eps = 1/R, with a height gap sqrt(R) * eps; the two-point ratio of the
    naive lift along this family decays like 2/sqrt(R).
    """
    if dim < 3:
        raise DimensionMismatchError("witness pairs live in R^{n+1} with n >= 2")
    eps = 1.0 / R
    h = math.sqrt(R) * eps
    a = np.zeros(dim)
    b = np.zeros(dim)
    a[0] = b[0] = R
    a[1] = eps
    a[-1] = h
    return a, b


def _witness_family(radii, dim):
    pairs = []
    for R in radii:
        a, b = trivial_extension_witness(R, dim)
        for sign in (1.0, -1.0):
            aa = a.copy()
            aa[1] = sign * a[1]
            pairs.append((aa, b))
            pairs.append((b, aa))  # order swap; ratio is symmetric but keep both
    return pairs


def _offset_pairs(rng, cfg: PairConfig, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m base points in the box and partners at log-uniform random offsets."""
    base = rng.uniform(-cfg.box, cfg.box, (m, cfg.dim))
    dirs = rng.standard_normal((m, cfg.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return base, base + 10.0 ** rng.uniform(*cfg.log_radius_range, m)[:, None] * dirs


def sample_pairs(cfg: PairConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(cfg.seed)
    A, B = _offset_pairs(rng, cfg, cfg.pairs)
    if cfg.crossing_pairs:
        m = cfg.crossing_pairs
        CA, CB = _offset_pairs(rng, cfg, m)
        CA[:, -1] = 10.0 ** rng.uniform(-2.0, 0.3, m)    # strictly above
        CB[:, -1] = -(10.0 ** rng.uniform(-2.0, 0.3, m))  # strictly below
        A = np.concatenate([A, CA])
        B = np.concatenate([B, CB])
    if cfg.witness_radii:
        wa, wb = zip(*_witness_family(cfg.witness_radii, cfg.dim))
        A = np.concatenate([A, np.array(wa)])
        B = np.concatenate([B, np.array(wb)])
    return A, B


def two_point_delta(F, cfg: PairConfig) -> DeltaCertificate:
    """Minimum sampled two-point ratio of an arbitrary batch map ``F``.

    Pairs that F identifies (F(a) == F(b)) are skipped and counted; a run
    in which every pair collapses raises :class:`DegenerateMapError`.
    """
    A, B = sample_pairs(cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing F is reported below
        FA = np.asarray(F(A), dtype=float)
        FB = np.asarray(F(B), dtype=float)
        dX = A - B
        dF = FA - FB
        den = np.linalg.norm(dF, axis=1) * np.linalg.norm(dX, axis=1)
        num = np.einsum("ki,ki->k", dF, dX)
    overflow = ~(np.isfinite(den) & np.isfinite(num))
    if np.any(overflow):
        raise InvalidParameterError(
            f"pair separations overflow: |F(a) - F(b)| |a - b| or <F(a) - F(b), a - b> "
            f"is not finite for {int(overflow.sum())} of {A.shape[0]} pairs")
    keep = den > 1e-300
    skipped = int(A.shape[0] - keep.sum())
    if not np.any(keep):
        raise DegenerateMapError("every sampled pair was collapsed by the map")
    ratios = num[keep] / den[keep]
    pos = int(np.argmin(ratios))
    idx = int(np.flatnonzero(keep)[pos])
    return DeltaCertificate(
        delta_hat=float(ratios[pos]),
        witness_a=A[idx].copy(),
        witness_b=B[idx].copy(),
        samples=int(keep.sum()),
        skipped=skipped,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# matrix constants

def _two_product(x, y):
    """x * y as an unevaluated sum p + e, exact (Dekker's splitting)."""
    p = x * y
    xs, ys = 134217729.0 * x, 134217729.0 * y   # 2^27 + 1 splits 53 bits in halves
    xh, yh = xs - (xs - x), ys - (ys - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _pow2_rescaled(mats: np.ndarray) -> np.ndarray:
    """Exact power-of-two rescale to max |entry| in [1/2, 1): delta is scale-free."""
    return np.ldexp(mats, -np.frexp(np.max(np.abs(mats), axis=(1, 2)))[1][:, None, None])


def _delta_2x2(mats: np.ndarray) -> np.ndarray:
    """Exact matrix constant of a stack of 2x2 matrices.

    In complex notation A z = alpha z + beta conj(z), where |alpha| and
    |beta| are the conformal and anticonformal parts: sigma_max is their
    sum and det A = |alpha|^2 - |beta|^2.  For v = e^{i theta} the number
    conj(v) A v = alpha + beta e^{-2 i theta} runs round the circle of
    radius |beta| about alpha, and v^T A v / |A v| is the cosine of its
    argument.  So delta is the least cosine of an argument on that circle:

    * det A < 0: the circle winds round 0 and delta = -1;
    * otherwise the arguments fill arg(alpha) +- asin(|beta| / |alpha|) and
      delta = cos(|arg alpha| + asin(|beta| / |alpha|))
            = (Re(alpha) sqrt(det A) - |Im(alpha)| |beta|) / |alpha|^2,
      or -1 once that angle reaches pi (a negative real eigenvalue).

    With sigma_min <= 1e-14 sigma_max the matrix counts as rank 1, u w^T:
    the circle passes through 0, that direction (A v = 0) is excluded, and
    the same formula at det A = 0 gives the infimum -sqrt(1 - c^2), or -1
    once c <= 0, where c = u.w / (|u| |w|).  The determinant is formed from
    exact products, so near-singular matrices keep full accuracy.
    """
    A = _pow2_rescaled(mats)
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    (ad, ad_err), (bc, bc_err) = _two_product(a, d), _two_product(b, c)
    det = (ad - bc) + (ad_err - bc_err)
    re = 0.5 * (a + d)                       # Re alpha, and |Im alpha| below
    im = np.abs(0.5 * (c - b))
    conf = np.hypot(re, im)
    anti = np.hypot(0.5 * (a - d), 0.5 * (b + c))
    sigma_max = conf + anti
    rank1 = np.abs(det) <= _RANK_RATIO * sigma_max * sigma_max
    sqrt_det = np.sqrt(np.where(rank1, 0.0, np.maximum(det, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):  # conf = 0 has det < 0
        delta = (re * sqrt_det - im * anti) / (conf * conf)
    winds = ((det < 0.0) & ~rank1) | ((re <= 0.0) & (im <= anti))
    return np.where(winds, -1.0, delta)


def _golden_max(objective, grid: np.ndarray):
    """Best abscissa and value of ``objective`` per row: the best point of the
    row's sorted ``grid``, refined by golden-section search between its neighbours."""
    # a column at a time: small temporaries, which is faster and keeps the heap small
    values = np.concatenate([objective(grid[:, j:j + 1]) for j in range(grid.shape[1])], axis=1)
    x = np.take_along_axis(grid, np.argmax(values, axis=1)[:, None], axis=1)
    a = np.max(np.where(grid < x, grid, grid[:, :1]), axis=1, keepdims=True)  # x at an end
    b = np.min(np.where(grid > x, grid, grid[:, -1:]), axis=1, keepdims=True)
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(_GOLDEN_STEPS):
        right = f1 < f2
        a, b = np.where(right, x1, a), np.where(right, b, x2)
        xn = np.where(right, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        fn = objective(xn)
        x1, x2 = np.where(right, x2, xn), np.where(right, xn, x1)
        f1, f2 = np.where(right, f2, fn), np.where(right, fn, f1)
    xs, fs = np.concatenate([grid, x1, x2], axis=1), np.concatenate([values, f1, f2], axis=1)
    best = np.argmax(fs, axis=1)[:, None]
    return np.take_along_axis(xs, best, axis=1)[:, 0], np.take_along_axis(fs, best, axis=1)[:, 0]


def _pencil_frame(mats: np.ndarray):
    """Rescaled stack A, its singular values sigma, WS = V^T U diag(sigma) and
    P = sym(WS) = V^T (sym A) V.

    In this right singular basis |Av| = |diag(sigma) z|, so ratios stay accurate next
    to a kernel; singular values below _RANK_RATIO sigma_max count as 0, as in _delta_2x2.
    """
    A = _pow2_rescaled(mats)
    U, sv, Vt = np.linalg.svd(A)
    sv = np.where(sv > _RANK_RATIO * sv[:, :1], sv, 0.0)
    WS = (Vt @ U) * sv[:, None, :]
    return A, sv, WS, 0.5 * (WS + np.swapaxes(WS, 1, 2))


def _pencil_scale(s: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """d = diag(B_mu)^(-1/2) at mu = e^s, for each column of ``s``."""
    mu = np.exp(s)[..., None]
    return 1.0 / np.sqrt(0.5 * (mu * (sv * sv)[:, None, :] + 1.0 / mu))


def _pencil_search(A, sv, P, sign):
    """Best log(mu) and value of sign * c(mu) per row of the frame (A, sv, P).

    The log(mu) grid spans [-log sigma_max, -log sigma_min] and adds -log |lambda|
    for each eigenvalue of A, where c can dip narrowly (a real eigenvector with
    lambda < 0 attains -1); _golden_max refines the best grid point.
    """
    def objective(s):  # P scaled on both sides by d
        d = _pencil_scale(s, sv)
        return sign * np.linalg.eigvalsh(P[:, None] * d[..., :, None] * d[..., None, :])[..., 0]

    lam = np.linalg.eigvals(A)
    lo, hi = -np.log(sv[:, :1]), -np.log(np.maximum(sv[:, -1:], _RANK_RATIO * sv[:, :1]))
    with np.errstate(divide="ignore"):
        grid = np.concatenate([lo + np.linspace(0.0, 1.0, _PENCIL_GRID) * (hi - lo),
                               np.clip(-np.log(np.abs(lam)), lo, hi)], axis=1)
    return _golden_max(objective, np.sort(grid, axis=1))


def _matrix_stack(mats) -> np.ndarray:
    """``mats`` as a float stack of square, finite, nonzero matrices."""
    arr = np.asarray(mats, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("matrix entries must be finite")
    if np.any(np.max(np.abs(arr), axis=(1, 2)) == 0.0):
        raise ZeroMatrixError("matrix constant of the zero matrix is undefined")
    return arr


def _delta_exact(arr: np.ndarray) -> np.ndarray:
    """Exact delta for n <= 2: sign(a) in dim 1, the closed form in dim 2."""
    return np.sign(arr[:, 0, 0]) if arr.shape[1] == 1 else _delta_2x2(arr)


def matrix_delta(A) -> float:
    """min over unit v of v^T A v / |A v| (directions with Av = 0 excluded).

    Exact for n <= 2; for n >= 3 the value of the pencil search (module
    docstring): at or below delta up to rounding where sym A is positive
    definite, at or above it elsewhere.
    """
    return float(matrix_delta_many(as_square_matrix(A)[None, :, :])[0])


def _blockwise(search, arr: np.ndarray) -> np.ndarray:
    """``search`` over the stack ``arr``, ``_SEARCH_BLOCK`` matrices at a time."""
    return np.concatenate([search(arr[s:s + _SEARCH_BLOCK])
                           for s in range(0, max(len(arr), 1), _SEARCH_BLOCK)])


def matrix_delta_many(mats) -> np.ndarray:
    """Vectorised :func:`matrix_delta` over a stack of same-size matrices."""
    arr = _matrix_stack(mats)
    if arr.shape[1] <= 2:
        return _delta_exact(arr)
    return _blockwise(_delta_searched, arr)


def _delta_searched(arr: np.ndarray) -> np.ndarray:
    A, sv, _, P = _pencil_frame(arr)
    sign = np.where(np.linalg.eigvalsh(P)[:, :1] > 0.0, 1.0, -1.0)
    _, f = _pencil_search(A, sv, P, sign)
    return np.clip(sign[:, 0] * f, -1.0, 1.0)


def matrix_delta_lower_many(mats) -> np.ndarray:
    """Certified lower bound on the matrix constant of each matrix of a stack.

    Exact for n <= 2.  For n >= 3, where P is positive definite, the best
    c(mu) of the pencil search less a rounding allowance (module docstring);
    every other matrix gets exactly -1.0 without a search.  Each row's bound
    is the same whatever else is in the stack.
    """
    arr = _matrix_stack(mats)
    if arr.shape[1] <= 2:
        return _delta_exact(arr)
    return _blockwise(_delta_lower_searched, arr)


def _delta_lower_searched(arr: np.ndarray) -> np.ndarray:
    A, sv, WS, P = _pencil_frame(arr)
    lower = np.full(len(A), -1.0)
    pd = np.linalg.eigvalsh(P)[:, 0] > 0.0
    A, sv, WS, P = A[pd], sv[pd], WS[pd], P[pd]
    s, f = _pencil_search(A, sv, P, 1.0)
    # each entry of the scaled pencil carries a few ulps of its size, eigvalsh about n
    d = _pencil_scale(s[:, None], sv)[:, 0]
    N = np.abs(WS) * d[:, :, None] * d[:, None, :]
    lower[pd] = f - 4 * A.shape[1] * np.finfo(float).eps * np.sqrt((N * N).sum(axis=(1, 2)))
    return lower


def matrix_gamma(A) -> float:
    """min over unit v of v^T A v / ||A||, i.e. lambda_min(sym A) / ||A||.

    The quadratic-form minimum over the sphere is the smallest eigenvalue
    of the symmetric part, so this constant is computed exactly rather
    than by sampling.
    """
    A = _matrix_stack(as_square_matrix(A)[None])[0]
    lam = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])
    return lam / float(np.linalg.norm(A, 2))


def claim_constant(delta):
    """Lower bound factor c(delta): |A v| >= c(delta) ||A|| |v| whenever A
    has matrix constant delta.  Increasing on (0, 1]; c(1) = (2 - sqrt 3)^2.
    """
    arr = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise InvalidParameterError("claim_constant is defined for delta in (0, 1]")
    s = 1.0 + 1.0 / arr
    lam = 1.0 / (s + np.sqrt(s * s - 1.0))  # stable form of s - sqrt(s^2 - 1)
    c = lam * lam
    return float(c) if np.ndim(delta) == 0 else c


@dataclass(frozen=True)
class ClaimDimStats:
    dim: int
    sampled: int
    qualified: int
    violations: int
    # min over qualified of (sigma_min - c * sigma_max) / sigma_max; None
    # when no matrix qualified, which JSON writes as null
    worst_gap: float | None


@dataclass(frozen=True)
class ClaimReport:
    stats: tuple[ClaimDimStats, ...]
    count: int
    seed: int
    delta_floor: float

    @property
    def total_violations(self) -> int:
        return sum(s.violations for s in self.stats)

    def json_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "delta_floor": self.delta_floor,
            "dims": [asdict(s) for s in self.stats],
            "total_violations": self.total_violations,
        }


def _random_test_matrices(dim: int, count: int, rng) -> np.ndarray:
    # raw Gaussian matrices are rarely monotone; shift half of them by a
    # positive multiple of the identity so the qualified set is well fed
    mats = rng.standard_normal((count, dim, dim))
    bump = rng.uniform(0.5, 3.0, count)
    mats[::2] += bump[::2, None, None] * np.eye(dim)
    return mats


def claim_check(dims=(2, 3), count: int = 10000, seed: int = 7,
                delta_floor: float = 0.05) -> ClaimReport:
    """Brute-force the singular-value claim over random matrices.

    A sampled matrix qualifies when the certified lower bound on its
    matrix constant (:func:`matrix_delta_lower_many`, exact for n <= 2) is
    >= ``delta_floor``; the matrix is then delta-monotone with delta that
    bound, and the check asserts sigma_min >= c(delta) sigma_max (up to
    1e-12 relative rounding slack) and reports the worst margin seen, or
    None when no matrix qualifies.  The floor must lie in (0, 1], the
    domain of :func:`claim_constant`.
    """
    if not 0.0 < delta_floor <= 1.0:
        raise InvalidParameterError(f"delta_floor must lie in (0, 1], got {delta_floor}")
    if count < 1:
        raise InvalidParameterError(f"matrix count must be at least 1, got {count}")
    if not dims or min(dims) < 1:
        raise InvalidParameterError(f"dims must be one or more positive integers, got {dims}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed}")
    check_allocation(count * max(dims) ** 2 * 8, f"{count} matrices of size {max(dims)}")
    stats = []
    for dim in dims:
        rng = np.random.default_rng([seed, dim])
        mats = _random_test_matrices(dim, count, rng)
        lower = matrix_delta_lower_many(mats)
        qual = lower >= delta_floor
        nqual = int(qual.sum())
        if nqual:
            sv = np.linalg.svd(mats[qual], compute_uv=False)
            smax, smin = sv[:, 0], sv[:, -1]
            c = claim_constant(np.minimum(lower[qual], 1.0))
            gap = (smin - c * smax) / smax
            violations = int(np.sum(gap < -1e-12))
            worst = float(gap.min())
        else:
            violations, worst = 0, None
        stats.append(ClaimDimStats(int(dim), count, nqual, violations, worst))
    return ClaimReport(tuple(stats), count, seed, delta_floor)


# ---------------------------------------------------------------------------
# quasisymmetry profile

_LOG_Y_OFFSET = (-1.0, 1.0)  # log10 range of the triple offsets |y - z|
_S_RANGE = (1e-2, 1e2)       # range of the sampled ratios s = |x - z| / |y - z|


@dataclass(frozen=True)
class TripleConfig:
    """Sampling plan for quasisymmetry triples (x, y, z)."""

    dim: int
    triples: int = 20000
    seed: int = 0
    box: float = 10.0
    buckets: int = 40

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be a non-negative integer, got {self.seed}")
        if self.triples < 1 or self.buckets < 1:
            raise InvalidParameterError(
                f"triples and buckets must be at least 1, got {self.triples} and {self.buckets}")
        check_allocation((3 * self.triples * self.dim + self.buckets) * 8,
                         f"{self.triples} triples in dimension {self.dim} and {self.buckets} buckets")
        # |y - z| >= 10^lo and |x - z| >= s 10^lo, lo the low end of _LOG_Y_OFFSET
        _check_sampling(self.box, 10.0 ** _LOG_Y_OFFSET[0] * _S_RANGE[0])


@dataclass(frozen=True, eq=False)
class EtaProfile:
    """Scatter of (s, q) ratio pairs with a bucketed upper envelope.

    ``envelope[k]`` is the running maximum of bucket maxima up to bucket
    k (the minimal nondecreasing majorant), nan until the first populated
    bucket.
    """

    s: np.ndarray
    q: np.ndarray
    bucket_edges: np.ndarray
    envelope: np.ndarray
    skipped: int

    def __post_init__(self):
        if np.any(self.s <= 0.0) or np.any(self.q <= 0.0):
            raise InvalidParameterError("profile ratios must be positive")
        env = self.envelope[np.isfinite(self.envelope)]
        if env.size and np.any(np.diff(env) < 0.0):
            raise InvalidParameterError("envelope must be nondecreasing")

    def csv_rows(self):
        return np.stack([self.s, self.q], axis=1)


def quasisymmetry_profile(spec: MapSpec, cfg: TripleConfig) -> EtaProfile:
    """Sample |f(x)-f(z)| / |f(y)-f(z)| against |x-z| / |y-z|.

    Triples whose denominators vanish are skipped; more than 1% of them
    degenerating raises :class:`DegenerateTripleError`, and any triple whose
    image separations overflow :class:`NonFiniteIntegrandError`.
    """
    if cfg.dim != spec.dim:
        raise DimensionMismatchError(f"config dim {cfg.dim} vs map dim {spec.dim}")
    rng = np.random.default_rng(cfg.seed)
    m = cfg.triples
    z = rng.uniform(-cfg.box, cfg.box, (m, cfg.dim))
    dx = rng.standard_normal((m, cfg.dim))
    dx /= np.linalg.norm(dx, axis=1, keepdims=True)
    dy = rng.standard_normal((m, cfg.dim))
    dy /= np.linalg.norm(dy, axis=1, keepdims=True)
    ry = 10.0 ** rng.uniform(*_LOG_Y_OFFSET, m)
    s_target = 10.0 ** rng.uniform(math.log10(_S_RANGE[0]), math.log10(_S_RANGE[1]), m)
    rx = s_target * ry
    x = z + rx[:, None] * dx
    y = z + ry[:, None] * dy

    ns = np.linalg.norm(x - z, axis=1)
    nd = np.linalg.norm(y - z, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing f is reported below
        fx, fy, fz = evaluate_map(spec, np.stack([x, y, z]))
        qn = np.linalg.norm(fx - fz, axis=1)
        qd = np.linalg.norm(fy - fz, axis=1)
    overflow = int(np.sum(~(np.isfinite(qn) & np.isfinite(qd))))
    if overflow:
        raise NonFiniteIntegrandError(f"triple separations overflow: |f(x) - f(z)| or "
                                      f"|f(y) - f(z)| is not finite for {overflow} of {m} triples")
    keep = (nd > 1e-300) & (qd > 1e-300) & (ns > 1e-300) & (qn > 1e-300)
    skipped = int(m - keep.sum())
    if skipped > 0.01 * m:
        raise DegenerateTripleError(f"{skipped}/{m} sampled triples were degenerate")
    s = ns[keep] / nd[keep]
    q = qn[keep] / qd[keep]

    edges = np.geomspace(*_S_RANGE, cfg.buckets + 1)
    idx = np.clip(np.digitize(s, edges) - 1, 0, cfg.buckets - 1)
    bucket_max = np.full(cfg.buckets, -np.inf)
    np.maximum.at(bucket_max, idx, q)
    envelope = np.maximum.accumulate(bucket_max)
    envelope = np.where(np.isfinite(envelope), envelope, np.nan)
    return EtaProfile(s, q, edges, envelope, skipped)


# ---------------------------------------------------------------------------
# the composition demo

@dataclass(frozen=True, eq=False)
class CompositionReport:
    """Rotation composition demo: per-factor and composed constants."""

    theta1: float
    theta2: float
    delta1: float
    delta2: float
    delta_composed_matrix: float
    flagged: bool
    certificate: DeltaCertificate

    def json_dict(self) -> dict:
        return {
            "theta1": self.theta1,
            "theta2": self.theta2,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta_composed_matrix": self.delta_composed_matrix,
            "flagged_non_monotone": self.flagged,
            "two_point": self.certificate.json_dict(),
        }


def composition_monotonicity_demo(theta1: float, theta2: float, pairs: int = 4000,
                                  seed: int = 0) -> CompositionReport:
    """Two monotone rotations whose composition may fail to be monotone.

    A planar rotation by |theta| < pi/2 has matrix constant cos(theta);
    composing two of them rotates by theta1 + theta2, so the composition
    is flagged as soon as |theta1 + theta2| >= pi/2.
    """
    for theta in (theta1, theta2):
        if not abs(theta) < math.pi / 2:
            raise InvalidParameterError("factors must be monotone rotations (|theta| < pi/2)")
    d1, d2, dc = map(float, matrix_delta_many(
        [rotation_matrix(theta) for theta in (theta1, theta2, theta1 + theta2)]))
    composed = compose_maps(planar_rotation_map(theta1), planar_rotation_map(theta2))
    cert = two_point_delta(batch_map(composed), PairConfig(dim=2, pairs=pairs, seed=seed))
    flagged = abs(theta1 + theta2) >= math.pi / 2
    return CompositionReport(theta1, theta2, d1, d2, dc, flagged, cert)
