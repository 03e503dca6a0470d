"""Analytic test maps on R^n: construction, evaluation, Jacobians.

The map gallery is closed-world.  Every kind carries an explicit formula
and an analytic Jacobian, and grows at most polynomially, so that
Gaussian-weighted integrals of any gallery map converge and certification
runs can be reproduced from a small JSON description alone.

Functions of points are shape-polymorphic in the numpy style: an input
of shape ``(..., n)`` yields an output of shape ``(..., n)`` (Jacobians:
``(..., n, n)``).  The kernels work on one contiguous vector per
coordinate (or per matrix entry) over the points, so they are fastest on
coordinate-major input, the layout the lift passes them, and give the
same bits in any layout.

:func:`evaluate_map` and :func:`evaluate_map_jacobian` take any point
array and reject non-finite coordinates.  :func:`map_values` and
:func:`map_jacobians` are the same kernels without that input check: they
take an (M, n) array the caller has already shown to be finite, as the lift
does once per chunk from a bound on its points rather than by a scan of
every node.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    MalformedSpecError,
    SingularPointError,
)

__all__ = [
    "KINDS",
    "MapSpec",
    "parse_map_spec",
    "map_spec_from_dict",
    "evaluate_map",
    "evaluate_map_jacobian",
    "map_values",
    "map_jacobians",
    "batch_map",
    "rotation_matrix",
    "as_square_matrix",
    "identity_map",
    "linear_map",
    "power_radial_map",
    "planar_rotation_map",
    "convex_gradient_quartic_map",
    "translation_map",
    "compose_maps",
]

_SPEC_KEYS = {"kind", "dim", "params", "compose"}


def _finite_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite")
    return arr


def as_square_matrix(m, dim: int | None = None) -> np.ndarray:
    """Validate and return ``m`` as a finite square float matrix."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected a {dim}x{dim} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("matrix entries must be finite")
    return arr


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class MapSpec:
    """Description of one gallery map.

    ``params`` is a plain dict of JSON-able values; ``children`` is only
    populated for ``kind == "composition"`` and is applied right-to-left
    (the last child acts first).
    """

    kind: str
    dim: int
    params: dict = field(default_factory=dict)
    children: tuple = ()
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown map kind {self.kind!r}; known kinds: {', '.join(KINDS)}")
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise InvalidParameterError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "children", tuple(self.children))
        if self.kind != "composition" and self.children:
            raise InvalidParameterError(f"{self.kind} does not take child maps")
        getattr(self, f"_check_{self.kind}")()

    # per-kind validation -------------------------------------------------

    def _require_params(self, *names):
        extra = set(self.params) - set(names)
        if extra:
            raise InvalidParameterError(f"{self.kind} got unexpected params {sorted(extra)}")
        missing = [n for n in names if n not in self.params]
        if missing:
            raise InvalidParameterError(f"{self.kind} requires params {missing}")

    def _check_identity(self):
        self._require_params()

    def _check_linear(self):
        self._require_params("matrix")
        mat = as_square_matrix(self.params["matrix"], self.dim)
        self.params["matrix"] = mat.tolist()
        object.__setattr__(self, "_matrix", mat)

    def _check_power_radial(self):
        self._require_params("p")
        p = float(self.params["p"])
        if not math.isfinite(p) or p <= -1.0:
            raise InvalidParameterError(f"power_radial requires p > -1, got {p}")
        self.params["p"] = p

    def _check_planar_rotation(self):
        self._require_params("theta")
        if self.dim != 2:
            raise DimensionMismatchError("planar_rotation is only defined for dim == 2")
        theta = float(self.params["theta"])
        if not math.isfinite(theta):
            raise InvalidParameterError("theta must be finite")
        self.params["theta"] = theta
        object.__setattr__(self, "_matrix", rotation_matrix(theta))

    def _check_convex_gradient_quartic(self):
        self._require_params("a", "b")
        a, b = float(self.params["a"]), float(self.params["b"])
        if not (math.isfinite(a) and a > 0.0):
            raise InvalidParameterError(f"convex_gradient_quartic requires a > 0, got {a}")
        if not (math.isfinite(b) and b >= 0.0):
            raise InvalidParameterError(f"convex_gradient_quartic requires b >= 0, got {b}")
        self.params["a"], self.params["b"] = a, b

    def _check_translation(self):
        self._require_params("offset")
        off = _finite_vector(self.params["offset"], "offset")
        if off.size != self.dim:
            raise DimensionMismatchError(f"offset has length {off.size}, expected {self.dim}")
        self.params["offset"] = off.tolist()
        object.__setattr__(self, "_matrix", off)  # reused slot: cached array param

    def _check_composition(self):
        self._require_params()
        if not self.children:
            raise InvalidParameterError("composition requires at least one child map")
        for child in self.children:
            if not isinstance(child, MapSpec):
                raise InvalidParameterError("composition children must be MapSpec instances")
            if child.dim != self.dim:
                raise DimensionMismatchError(
                    f"composition child of dim {child.dim} inside a dim {self.dim} composition"
                )

    def as_dict(self) -> dict:
        d: dict = {"kind": self.kind, "dim": self.dim}
        if self.params:
            d["params"] = json.loads(json.dumps(self.params))
        if self.kind == "composition":
            d["compose"] = [child.as_dict() for child in self.children]
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Short stable content hash used in output metadata."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def label(self) -> str:
        if self.kind == "composition":
            return "(" + " o ".join(c.label() for c in self.children) + ")"
        args = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}[{self.dim}]" + (f"({args})" if args else "")


# constructors -------------------------------------------------------------

def identity_map(dim: int) -> MapSpec:
    return MapSpec("identity", dim)


def linear_map(matrix) -> MapSpec:
    mat = as_square_matrix(matrix)
    return MapSpec("linear", mat.shape[0], {"matrix": mat})


def power_radial_map(dim: int, p: float) -> MapSpec:
    """f(x) = |x|^p x, the radial stretching with exponent p > -1."""
    return MapSpec("power_radial", dim, {"p": p})


def planar_rotation_map(theta: float) -> MapSpec:
    return MapSpec("planar_rotation", 2, {"theta": theta})


def convex_gradient_quartic_map(dim: int, a: float, b: float) -> MapSpec:
    """Gradient of u(x) = a|x|^2/2 + b|x|^4/4, i.e. f(x) = (a + b|x|^2) x."""
    return MapSpec("convex_gradient_quartic", dim, {"a": a, "b": b})


def translation_map(offset) -> MapSpec:
    off = _finite_vector(offset, "offset")
    return MapSpec("translation", off.size, {"offset": off})


def compose_maps(*specs: MapSpec) -> MapSpec:
    """Composition applied right-to-left: the last argument acts first."""
    if not specs:
        raise InvalidParameterError("compose_maps needs at least one map")
    return MapSpec("composition", specs[0].dim, {}, tuple(specs))


# parsing ------------------------------------------------------------------

def map_spec_from_dict(payload) -> MapSpec:
    if not isinstance(payload, dict):
        raise MalformedSpecError(f"map spec must be a JSON object, got {type(payload).__name__}")
    extra = set(payload) - _SPEC_KEYS
    if extra:
        raise MalformedSpecError(f"unknown keys in map spec: {sorted(extra)}")
    if "kind" not in payload or "dim" not in payload:
        raise MalformedSpecError("map spec requires 'kind' and 'dim'")
    kind = payload["kind"]
    dim = payload["dim"]
    if not isinstance(kind, str):
        raise MalformedSpecError("'kind' must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise MalformedSpecError("'dim' must be an integer")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise MalformedSpecError("'params' must be an object")
    children = ()
    if "compose" in payload:
        if kind != "composition":
            raise MalformedSpecError("'compose' is only valid for kind == 'composition'")
        raw = payload["compose"]
        if not isinstance(raw, list):
            raise MalformedSpecError("'compose' must be a list of map specs")
        children = tuple(map_spec_from_dict(item) for item in raw)
    return MapSpec(kind, dim, params, children)


def parse_map_spec(text: str) -> MapSpec:
    """Parse a JSON map description.

    Schema: ``{"kind": str, "dim": int, "params": object, "compose": [spec, ...]?}``.
    Raises :class:`MalformedSpecError` for syntax/schema problems and
    :class:`InvalidParameterError` / :class:`DimensionMismatchError` for
    admissibility problems.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSpecError(f"invalid JSON: {exc}") from exc
    return map_spec_from_dict(payload)


# evaluation ---------------------------------------------------------------

def combine(coeffs, columns, out):
    """``out = sum_k coeffs[k] * columns[k]``, accumulated in order of k."""
    np.multiply(coeffs[0], columns[0], out=out)
    for c, col in zip(coeffs[1:], columns[1:]):
        out += c * col
    return out


def _sq_norm(X):
    # |x|^2 per row, summed over the coordinate columns.  A row that
    # overflows gets inf, which the callers report, not a warning.
    with np.errstate(over="ignore", under="ignore"):
        return combine(X.T, X.T, np.empty(len(X)))


def _eval_identity(spec, X):
    return X.copy(order="K")


def _eval_linear(spec, X):
    out = np.empty((spec.dim, len(X)))
    for row, coeffs in zip(out, spec._matrix):
        combine(coeffs, X.T, row)
    return out.T


def _radial_scale(p, r2):
    # |x|^p from the squared norm r2 = |x|^2, with no gather or scatter.  For
    # p >= 0 the power is exact at the origin (0, or 1 when p == 0).  For
    # p < 0 the origin gets 0, where f vanishes, and a row whose r2 overflowed
    # gets NaN, which the lift reports, rather than 0, which it would trust.
    if p >= 0.0:
        return r2 ** (0.5 * p)
    s = np.power(r2, 0.5 * p, out=np.zeros_like(r2), where=r2 > 0.0)
    np.copyto(s, np.nan, where=r2 == np.inf)
    return s


def _eval_power_radial(spec, X):
    r2 = _sq_norm(X)
    return _radial_scale(spec.params["p"], r2)[:, None] * X


def _eval_convex_gradient_quartic(spec, X):
    a, b = spec.params["a"], spec.params["b"]
    return (a + b * _sq_norm(X))[:, None] * X


def _eval_translation(spec, X):
    return X + spec._matrix


def _eval_composition(spec, X):
    out = X
    for child in reversed(spec.children):
        out = _EVAL[child.kind](child, out)
    return out


_EVAL = {
    "identity": _eval_identity,
    "linear": _eval_linear,
    "power_radial": _eval_power_radial,
    "planar_rotation": _eval_linear,
    "convex_gradient_quartic": _eval_convex_gradient_quartic,
    "translation": _eval_translation,
    "composition": _eval_composition,
}


# Each Jacobian kernel fills an (n, n, M) array, one contiguous vector per
# matrix entry, and returns its (M, n, n) view.

def _jac_constant(mat, m):
    out = np.empty(mat.shape + (m,))
    out[...] = mat[:, :, None]
    return out.transpose(2, 0, 1)


def _jac_identity(spec, X):
    return _jac_constant(np.eye(spec.dim), len(X))


def _jac_linear(spec, X):
    return _jac_constant(spec._matrix, len(X))


def _symmetric(n, m, entry, diag):
    # entry(i, j) + diag [i == j], formed for i <= j and mirrored, so each
    # matrix is bitwise symmetric
    out = np.empty((n, n, m))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = entry(i, j)
            out[j, i] = out[i, j]
        out[i, i] += diag
    return out.transpose(2, 0, 1)


def _jac_power_radial(spec, X):
    # Df(x) = |x|^p I + p |x|^p u u^T with u = x/|x|; the limit at 0 is the
    # zero matrix for p > 0, the identity for p == 0, and undefined for p < 0.
    p = spec.params["p"]
    r2 = _sq_norm(X)
    if p < 0.0 and not np.all(r2 > 0.0):
        raise SingularPointError("power_radial has no differential at the origin for p < 0")
    s = _radial_scale(p, r2)
    ps = p * s
    u = (X * np.power(r2, -0.5, out=np.zeros_like(r2), where=r2 > 0.0)[:, None]).T
    return _symmetric(spec.dim, len(X), lambda i, j: ps * (u[i] * u[j]), s)


def _jac_convex_gradient_quartic(spec, X):
    a, b = spec.params["a"], spec.params["b"]
    tb = 2.0 * b
    return _symmetric(spec.dim, len(X), lambda i, j: tb * (X[:, i] * X[:, j]),
                      a + b * _sq_norm(X))


def _jac_composition(spec, X):
    # chain rule along the right-to-left evaluation order
    n = spec.dim
    cur = X
    mats = None
    for child in reversed(spec.children):
        J = _JAC[child.kind](child, cur)
        if mats is not None:
            prod = np.empty((n, n, len(X)))
            for i in range(n):
                for k in range(n):
                    combine(J[:, i].T, mats[:, :, k].T, prod[i, k])
            J = prod.transpose(2, 0, 1)
        mats = J
        cur = _EVAL[child.kind](child, cur)
    return mats


_JAC = {
    "identity": _jac_identity,
    "linear": _jac_linear,
    "power_radial": _jac_power_radial,
    "planar_rotation": _jac_linear,
    "convex_gradient_quartic": _jac_convex_gradient_quartic,
    "translation": _jac_identity,
    "composition": _jac_composition,
}

KINDS = tuple(_EVAL)  # the gallery's map kinds, in the order error messages list them


def _as_point_array(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != dim:
        raise DimensionMismatchError(f"expected points in R^{dim}, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("point coordinates must be finite")
    return arr


def map_values(spec: MapSpec, X: np.ndarray) -> np.ndarray:
    """f at the rows of an (M, n) float array that the caller has already
    shown to be finite; no input check.  Shape (M, n)."""
    return _EVAL[spec.kind](spec, X)


def map_jacobians(spec: MapSpec, X: np.ndarray) -> np.ndarray:
    """Df at the rows of an (M, n) float array that the caller has already
    shown to be finite; no input check.  Shape (M, n, n)."""
    return _JAC[spec.kind](spec, X)


def evaluate_map(spec: MapSpec, x) -> np.ndarray:
    """Evaluate the gallery map at one point or an array of points."""
    arr = _as_point_array(x, spec.dim)
    return map_values(spec, arr.reshape(-1, spec.dim)).reshape(arr.shape)


def evaluate_map_jacobian(spec: MapSpec, x) -> np.ndarray:
    """Analytic Jacobian of the gallery map, shape ``(..., n, n)``."""
    arr = _as_point_array(x, spec.dim)
    return map_jacobians(spec, arr.reshape(-1, spec.dim)).reshape(arr.shape + (spec.dim,))


def batch_map(spec: MapSpec):
    """Return ``f`` as a plain array-in/array-out callable."""
    return lambda X: evaluate_map(spec, X)
