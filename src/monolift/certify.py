"""Monotonicity and quasisymmetry certification.

Two notions of a monotonicity constant are estimated here and tied
together by an explicit algebraic bound:

* the two-point constant of a map F, the infimum of
  <F(a) - F(b), a - b> / (|F(a) - F(b)| |a - b|) over sampled pairs;
* the matrix constant of a single matrix A, the minimum over unit v of
  v^T A v / |A v| (directions with A v = 0 excluded).

For a matrix with constant delta the smallest singular value is bounded
below by c(delta) ||A|| with

    c(delta) = (1/delta + 1 - sqrt((1/delta + 1)^2 - 1))^2,

and ``claim_check`` brute-forces that bound over random matrices.

The matrix constant of a 1x1 matrix is its sign.  For 2x2 matrices a
closed form (``_delta_2x2``) is lowered by a bound on its rounding error.
For n >= 3 one eigvalsh of P = sym A decides each matrix, with three
outcomes and no SVD before it.  Where its least eigenvalue is at most a
margin of 32 n^3 eps (``_delta_block``), the matrix gets exactly -1.  Where
P is not positive definite, v^T A v <= 0 for some v, so delta <= 0 (as a
limit next to v where Av = 0): the matrix is not delta-monotone for any
delta > 0, and -1 is exact.  Within the margin above 0 it is a lower bound
that loses little: delta > 0 gives lambda_min(P) >= delta sigma_min, the
bound below gives sigma_min >= c(delta) sigma_max >= delta^2 sigma_max / 16,
and after the rescale to max |entry| in [1/2, 1) sigma_max >= 1/2, so
lambda_min(P) >= delta^3 / 32 and delta <= (32 margin)^(1/3), up to
eigvalsh's error: 1.8e-4 at n = 3 and 3.7e-4 at n = 6.  Above the margin
a bitwise symmetric A gets Kantorovich's 2 sqrt(l_min l_max) / (l_min +
l_max) from the same eigenvalues (``_delta_symmetric``), lowered by a
bound on their error, and every other matrix is searched.  Let
B_mu = (mu A^T A + I / mu) / 2 and c(mu) the least eigenvalue of the
pencil (P, B_mu).  Where P is positive definite, |Av| |v| <= v^T B_mu v (AM-GM,
with equality when mu |Av| = |v|) gives delta >= c(mu) for every mu, and
delta = max c(mu) by Brickman's convexity theorem and the S-lemma.  The
optimal mu is 1/|Av| for the optimal v, so s = log mu is searched over
[-log sigma_max, -log sigma_min], where c is unimodal in s: 1/c(s) =
max_v (e^s |Av|^2 + e^-s |v|^2) / (2 v^T P v), each term a e^s + b e^-s
with a, b >= 0 over a positive constant, so convex in s, and so is their
maximum.  The search follows the slope of g = 1/c, with steps that share
one SVD (``_pencil_search``).  At each s one eigh of the scaled pencil gives
c and its least eigenvector, and so g' exactly: it is the slope at s of the
convex supporting function g_w for w the eigenvector, which touches g from
below (``_pencil_at``), so the tangent of g at any point it evaluates lies
below g everywhere.  A row's bracket starts at the interval's ends, where
g' <= 0 and g' >= 0.  Each step moves to the secant root of g' between the
ends, or, where the bracket has not halved in two steps, to the point where
the ends' tangents meet (``_pencil_max``).  The row stops once the tangents
meet above 1/(best c + the ends' least rounding allowance), so its maximum
of c is at most its best c plus that allowance, and ``_SEARCH_STEPS`` is a
cap.

``matrix_delta`` and ``matrix_delta_many`` give a lower bound on delta (for
n >= 3 exactly -1, the lowered closed form, or the best c found less its
rounding allowance), the one constant the matrix lemma needs and the one
``claim_check`` reads.  It is certified in every dimension but on searched
rows whose sym A is nearly singular, which can read about 1e-13 above delta.

The search takes a stack ``_SEARCH_BLOCK`` matrices at a time: rows are
independent, so the bits are those of one call on the whole stack, and the
working set beyond the input is one block's.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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
from .quadrature import check_allocation, check_integer

__all__ = [
    "PairConfig",
    "DeltaCertificate",
    "sample_pairs",
    "trivial_extension_witness",
    "two_point_delta",
    "matrix_delta",
    "matrix_delta_many",
    "claim_constant",
    "ClaimReport",
    "claim_check",
    "TripleConfig",
    "EtaProfile",
    "quasisymmetry_profile",
    "CompositionReport",
    "composition_monotonicity_demo",
]

_RANK_RATIO = 1e-14        # a 2x2 sigma_min below this fraction of sigma_max counts as 0
_SEARCH_STEPS = 66         # cap on a row's pencil steps, over twice acceptance 04's most (26); a row at it keeps its best c
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
        for name, least in (("dim", 1), ("seed", 0), ("pairs", 0), ("crossing_pairs", 0)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, least))
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
        if FA.shape != A.shape or FB.shape != B.shape:
            raise DimensionMismatchError(
                f"the map sends points of shape {A.shape} to {FA.shape} and {FB.shape}")
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
    """Matrix constant of a stack of 2x2 matrices, less a bound on its rounding error.

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

    Each value is then lowered by a first-order bound on its rounding error,
    a few ulps of the terms of the formula, so it is at or below the exact
    constant; -1 and an exact 0 stay exact.
    """
    A = _pow2_rescaled(mats)
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    (ad, ad_err), (bc, bc_err) = _two_product(a, d), _two_product(b, c)
    det = (ad - bc) + (ad_err - bc_err)
    re = 0.5 * (a + d)                       # Re alpha, and |Im alpha| below
    im = np.abs(0.5 * (c - b))
    anti = np.hypot(0.5 * (a - d), 0.5 * (b + c))
    sigma_max = np.hypot(re, im) + anti
    rank1 = np.abs(det) <= _RANK_RATIO * sigma_max * sigma_max
    sqrt_det = np.sqrt(np.where(rank1, 0.0, np.maximum(det, 0.0)))
    conf2, t1, t2 = re * re + im * im, re * sqrt_det, im * anti
    with np.errstate(divide="ignore", invalid="ignore"):  # conf2 = 0 has det < 0
        delta = (t1 - t2) / conf2
        # in units of 2^-53: re and im from their sums, the product in t1 and
        # sqrt_det from det and its root, anti (hypot within an ulp) and the
        # product in t2, then conf2, the difference, the quotient and the
        # subtraction below
        slack = ((np.abs(t1 - 2.0 * delta * re * re) + 3.0 * np.abs(t1) + 5.0 * t2
                  + 2.0 * np.abs(delta) * im * im) / conf2 + 5.0 * np.abs(delta))
    winds = ((det < 0.0) & ~rank1) | ((re <= 0.0) & (im <= anti))
    return np.where(winds, -1.0, np.maximum(delta - 0.5 * np.finfo(float).eps * slack, -1.0))


def _pencil_at(s: np.ndarray, sv2: np.ndarray, P: np.ndarray, entry_slack: np.ndarray):
    """c, the slope g' of g = 1/c in s, and c's rounding allowance at s = log mu,
    for the pencil (P, B_mu) of each row, B_mu = diag(mu sv2 + 1/mu) / 2, P
    positive definite and ``entry_slack`` a bound on the rounding of P's
    entries.

    c is the least eigenvalue of D P D, D = B_mu^(-1/2), and its unit
    eigenvector v gives w = D v, at which the maximum over w that defines g
    is attained.  So the supporting function g_w(s') = (e^s' |Aw|^2 + e^-s'
    |w|^2) / (2 w^T P w), convex and at most g everywhere, touches g at s, and
    g' = g_w'(s) = sum_i h_i v_i^2 / c, h_i = (mu sv2_i - 1/mu) / (mu sv2_i +
    1/mu).  The tangent of g there lies below g_w, so below g, everywhere.
    """
    mu = np.exp(s)[..., None]
    up, down = mu * sv2, 1.0 / mu
    diag = up + down
    d = np.sqrt(2.0 / diag)
    dd = d[..., :, None] * d[..., None, :]
    lam, vec = np.linalg.eigh(P * dd)
    c = lam[..., 0]
    slope = ((up - down) / diag * np.square(vec[..., :, 0])).sum(axis=-1) / c
    return c, slope, np.sqrt(np.square(entry_slack * dd).sum(axis=(-2, -1)))


def _pencil_max(lo: np.ndarray, hi: np.ndarray, sv2: np.ndarray, P: np.ndarray,
                entry_slack: np.ndarray) -> np.ndarray:
    """Best c per row over s = log mu in [lo, hi], where the least g = 1/c
    lies, less its rounding allowance (``_pencil_at`` for the arguments).

    Each row keeps a bracket whose ends have g' <= 0 and g' >= 0, at first
    lo and hi, both taken in one call.  g is convex, so its tangents at the
    ends lie below it, and where they meet they bound the least g from below.
    A step moves to the secant root of g' between the ends.  Where g' is
    far from linear on the bracket (it grows like g towards both ends of a
    wide one, and jumps where the least eigenvalue of D P D is double) that
    root falls next to the same end step after step, so where the bracket
    has not halved in two steps the step moves instead to the point where
    the tangents meet: the midpoint for a quadratic g, the corner for a g
    made of two lines.  The new point replaces the end whose slope has its
    sign.  A row stops once the tangents meet above 1/(best c + the ends'
    least allowance), and leaves the batch; the rest stop after
    ``_SEARCH_STEPS`` steps.  A row's steps depend on its own values alone.
    """
    out = np.empty(len(lo))
    rows = np.arange(len(lo))
    x = np.stack([lo, hi])
    state = np.stack([x, *_pencil_at(x, sv2, P, entry_slack)])   # abscissae, c, slopes, allowances
    widths = np.full((2, len(lo)), np.inf)   # the bracket's widths two steps and one step back
    data = [sv2, P, entry_slack]
    # only a badly scaled pencil rounds a c to 0 or below; the infinities and
    # NaNs that follow bisect, and a row that stops returns a c less its
    # allowance at a point it took, a lower bound however far from the best
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_SEARCH_STEPS + 1):
            x, c, slope, allow = state
            g = 1.0 / c
            pa, pb = np.minimum(slope[0], 0.0), np.maximum(slope[1], 0.0)
            w = x[1] - x[0]
            # the tangents meet at x[0] + t; where both ends are flat they are
            # parallel and both ends are least
            t = (g[0] - g[1] + pb * w) / (pb - pa)
            floor = np.where(pb > pa, g[0] + pa * t, np.maximum(g[0], g[1]))
            done = (floor * (c.max(axis=0) + allow.min(axis=0)) >= 1.0) | (step == _SEARCH_STEPS)
            s = np.where(w > 0.5 * widths[0], x[0] + t, x[0] - pa * w / (pb - pa))
            s = np.where((x[0] < s) & (s < x[1]), s, 0.5 * (x[0] + x[1]))   # NaN or an end: bisect
            widths = np.stack([widths[1], w])
            if done.any():
                best = c[:, done].argmax(axis=0)
                out[rows[done]] = (c - allow)[best, np.flatnonzero(done)]
                going = ~done
                rows, state, widths, s = rows[going], state[:, :, going], widths[:, going], s[going]
                data = [v[going] for v in data]
            if not rows.size:
                return out
            c, slope, allow = _pencil_at(s, *data)
            # s replaces the end whose slope has its sign: the right one where
            # g rises at s, since the least g lies left of it
            state[:, (slope > 0.0).astype(np.intp), np.arange(rows.size)] = s, c, slope, allow
    return out


def _pencil_search(A: np.ndarray) -> np.ndarray:
    """Certified lower bound on delta for each row of a rescaled stack A
    (``_pow2_rescaled``) whose sym A is clearly positive definite: the best
    c(mu) found by ``_pencil_max`` over [-log sigma_max, -log sigma_min], less
    its rounding allowance.

    The pencil is taken in A's right singular basis, A = U diag(sigma) V^T:
    there P = V^T (sym A) V = sym(WS) with WS = V^T U diag(sigma), and
    |Av| = |diag(sigma) z|, so ratios stay accurate next to a small sigma.
    """
    U, sv, Vt = np.linalg.svd(A)
    WS = (Vt @ U) * sv[:, None, :]
    P = 0.5 * (WS + np.swapaxes(WS, 1, 2))
    # each entry of the scaled pencil carries a few ulps of the same scaling of
    # |WS|, and eigh about n of the pencil's norm: like eigvalsh it goes
    # through LAPACK's dsyevd, backward stable to the same order, and only
    # computing v as well differs.  The allowance is 4 n ulps of that
    # scaled |WS| in Frobenius norm
    entry_slack = 4 * P.shape[1] * np.finfo(float).eps * np.abs(WS)
    return _pencil_max(-np.log(sv[:, 0]), -np.log(sv[:, -1]), sv * sv, P, entry_slack)


def _delta_symmetric(low: np.ndarray, high: np.ndarray, n: int) -> np.ndarray:
    """Kantorovich's 2 sqrt(l_min l_max) / (l_min + l_max), the matrix constant
    of a symmetric positive definite n x n matrix, from the least and greatest
    eigenvalues that eigvalsh gave for it, less a bound on their error and on
    the formula's rounding.

    Each eigenvalue is taken to be within n eps l_max (the least) and 4 n eps
    l_max (the greatest) of the exact one.  The form increases in l_min and
    decreases in l_max, so it is evaluated at the far ends of those intervals,
    then lowered by 4 eps of itself, above the 2.25 eps that its roundings add.
    """
    eps = np.finfo(float).eps
    a, b = low - n * eps * high, high + 4 * n * eps * high
    return 2.0 * np.sqrt(a * b) / (a + b) * (1.0 - 4.0 * eps)


def _delta_block(arr: np.ndarray) -> np.ndarray:
    """Certified lower bound on delta for each n x n matrix of ``arr``, n >= 3.

    One eigvalsh of sym A decides each row (module docstring): a row whose
    least eigenvalue is at most ``margin`` gets -1 with no SVD; above it a
    bitwise symmetric row gets ``_delta_symmetric`` and any other the pencil
    search.
    """
    n = arr.shape[1]
    A = _pow2_rescaled(arr)
    lam = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, 1, 2)))
    low, high = lam[:, 0], lam[:, -1]
    # bounds |lambda_min(P) - low| for the search's P: ||A||_2 < n, and the
    # roundings of sym A, the SVD, V^T U, WS, P and both eigvalsh stay well
    # under 32 n^2 eps ||A||_2.  A row above it has sigma_min >= lambda_min(sym A)
    # > _RANK_RATIO sigma_max, and one at or below it has delta under
    # (32 margin)^(1/3), below 4e-4 for n <= 6 (module docstring)
    margin = 32 * n**3 * np.finfo(float).eps
    out = np.full(len(arr), -1.0)
    definite = low > margin
    symmetric = definite & np.all(A == np.swapaxes(A, 1, 2), axis=(1, 2))
    out[symmetric] = _delta_symmetric(low[symmetric], high[symmetric], n)
    search = definite & ~symmetric
    if search.any():
        out[search] = _pencil_search(A[search])
    return out


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


def matrix_delta(A) -> float:
    """A lower bound on min over unit v of v^T A v / |A v| (directions
    with Av = 0 excluded): see :func:`matrix_delta_many`.
    """
    return float(matrix_delta_many(as_square_matrix(A)[None, :, :])[0])


def matrix_delta_many(mats) -> np.ndarray:
    """Matrix constant of each matrix of a stack of same-size matrices.

    A lower bound: sign(a) in dim 1, the closed form less a bound on its
    rounding error in dim 2, and for n >= 3 exactly -1 where the least
    eigenvalue of sym A is not clearly positive, Kantorovich's form less an
    allowance where A is symmetric, and otherwise the best c(mu) of the
    pencil search less a rounding allowance, not certified where sym A is
    nearly singular (module docstring).  The search follows the slope of
    1/c(mu) in log mu, read from the pencil's least eigenvector, and stops a
    row once tangents of the convex 1/c put its maximum of c within an
    allowance of the best c found.  The stack is searched
    ``_SEARCH_BLOCK`` matrices at a time, so each row's value is the same
    whatever else is in the stack.
    """
    arr = _matrix_stack(mats)
    if arr.shape[1] == 1:
        return np.sign(arr[:, 0, 0])
    if arr.shape[1] == 2:
        return _delta_2x2(arr)
    return np.concatenate([_delta_block(arr[s:s + _SEARCH_BLOCK])
                           for s in range(0, max(len(arr), 1), _SEARCH_BLOCK)])


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

    A sampled matrix qualifies when its :func:`matrix_delta_many` value,
    a lower bound on delta, is >= ``delta_floor``; the matrix is then
    delta-monotone with delta that value, and the check asserts
    sigma_min >= c(delta) sigma_max (up to 1e-12 relative rounding slack)
    and reports the worst margin seen, or None when no matrix qualifies.
    The floor must lie in (0, 1], the domain of :func:`claim_constant`.
    ``dims`` is a sequence of dimensions, not a bare integer.
    """
    if not 0.0 < delta_floor <= 1.0:
        raise InvalidParameterError(f"delta_floor must lie in (0, 1], got {delta_floor}")
    count = check_integer(count, "matrix count", 1)
    listed = list(dims) if isinstance(dims, Iterable) else []
    if not listed:
        raise InvalidParameterError(f"dims must be one or more positive integers, got {dims}")
    dims = [check_integer(d, "dims must be one or more positive integers: each dim", 1)
            for d in listed]
    seed = check_integer(seed, "seed", 0)
    check_allocation(count * max(dims) ** 2 * 8, f"{count} matrices of size {max(dims)}")
    stats = []
    for dim in dims:
        rng = np.random.default_rng([seed, dim])
        mats = _random_test_matrices(dim, count, rng)
        lower = matrix_delta_many(mats)
        qual = lower >= delta_floor
        nqual = int(qual.sum())
        if nqual:
            sv = np.linalg.svd(mats[qual], compute_uv=False)
            smax, smin = sv[:, 0], sv[:, -1]
            c = claim_constant(lower[qual])
            gap = (smin - c * smax) / smax
            violations = int(np.sum(gap < -1e-12))
            worst = float(gap.min())
        else:
            violations, worst = 0, None
        stats.append(ClaimDimStats(dim, count, nqual, violations, worst))
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
        for name, least in (("dim", 1), ("seed", 0), ("triples", 1), ("buckets", 1)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, least))
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
