"""Map gallery: parsing, evaluation, analytic Jacobians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_fd_jacobian, gallery_2d, gallery_3d, spec_id
from monolift import (
    KINDS,
    MapSpec,
    compose_maps,
    convex_gradient_quartic_map,
    evaluate_map,
    evaluate_map_jacobian,
    identity_map,
    linear_map,
    map_spec_from_dict,
    parse_map_spec,
    planar_rotation_map,
    power_radial_map,
    rotation_matrix,
    translation_map,
)
from monolift.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    MalformedSpecError,
    SingularPointError,
)
from monolift import core

ALL_SPECS = gallery_2d() + gallery_3d()


# --- parsing ----------------------------------------------------------------

def test_parse_identity():
    spec = parse_map_spec('{"kind":"identity","dim":2}')
    assert spec.kind == "identity" and spec.dim == 2


def test_parse_rotation():
    spec = parse_map_spec('{"kind":"planar_rotation","dim":2,"params":{"theta":0.7853981633974}}')
    assert spec.params["theta"] == pytest.approx(math.pi / 4, abs=1e-10)


def test_parse_rejects_power_p_below_minus_one():
    with pytest.raises(InvalidParameterError):
        parse_map_spec('{"kind":"power_radial","dim":2,"params":{"p":-1.5}}')


@pytest.mark.parametrize("text", [
    "{not json",
    "[1,2,3]",
    '{"dim":2}',
    '{"kind":"identity"}',
    '{"kind":"identity","dim":2,"bogus":1}',
    '{"kind":"identity","dim":"2"}',
    '{"kind":"identity","dim":2,"params":[]}',
    '{"kind":"identity","dim":2,"compose":[]}',
])
def test_parse_malformed(text):
    with pytest.raises(MalformedSpecError):
        parse_map_spec(text)


def test_parse_composition_dim_mismatch():
    payload = {"kind": "composition", "dim": 2, "compose": [
        {"kind": "identity", "dim": 2}, {"kind": "identity", "dim": 3}]}
    with pytest.raises(DimensionMismatchError):
        map_spec_from_dict(payload)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_parse_roundtrip(spec):
    again = parse_map_spec(spec.to_json())
    assert again.as_dict() == spec.as_dict()
    assert again.digest() == spec.digest()


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        MapSpec("warp", 2)
    with pytest.raises(InvalidParameterError):
        power_radial_map(2, -1.0)
    with pytest.raises(InvalidParameterError):
        convex_gradient_quartic_map(2, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        convex_gradient_quartic_map(2, 1.0, -0.1)
    with pytest.raises(DimensionMismatchError):
        MapSpec("planar_rotation", 3, {"theta": 0.1})
    with pytest.raises(DimensionMismatchError):
        MapSpec("translation", 3, {"offset": [1.0, 2.0]})
    with pytest.raises(DimensionMismatchError):
        linear_map([[1.0, 0.0]])


@pytest.mark.parametrize("make, error, message", [
    (lambda: MapSpec("identity", 0), InvalidParameterError, "dim must be a positive integer, got 0"),
    (lambda: MapSpec("identity", 2, children=(identity_map(2),)), InvalidParameterError,
     "identity does not take child maps"),
    (lambda: MapSpec("power_radial", 2, {"p": 1.0, "q": 2.0}), InvalidParameterError,
     "power_radial got unexpected params ['q']"),
    (lambda: MapSpec("power_radial", 2, {}), InvalidParameterError,
     "power_radial requires params ['p']"),
    (lambda: planar_rotation_map(math.nan), InvalidParameterError, "theta must be finite"),
    (lambda: MapSpec("composition", 2), InvalidParameterError,
     "composition requires at least one child map"),
    (lambda: MapSpec("composition", 2, children=("identity",)), InvalidParameterError,
     "composition children must be MapSpec instances"),
    (compose_maps, InvalidParameterError, "compose_maps needs at least one map"),
    (lambda: map_spec_from_dict({"kind": 3, "dim": 2}), MalformedSpecError,
     "'kind' must be a string"),
    (lambda: map_spec_from_dict({"kind": "composition", "dim": 2, "compose": "identity"}),
     MalformedSpecError, "'compose' must be a list of map specs"),
    (lambda: translation_map([]), DimensionMismatchError,
     "offset must be a non-empty 1-d array, got shape (0,)"),
    (lambda: translation_map([math.nan]), InvalidParameterError, "offset must be finite"),
    (lambda: MapSpec("linear", 2, {"matrix": np.eye(3).tolist()}), DimensionMismatchError,
     "expected a 2x2 matrix, got shape (3, 3)"),
], ids=["dim0", "identity-children", "power-extra-param", "power-no-p", "rotation-nan",
        "composition-empty", "composition-non-spec", "compose-nothing", "kind-not-string",
        "compose-not-list", "translation-empty", "translation-nan", "linear-wrong-size"])
def test_refused_specs_name_their_fault(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_kinds_are_the_kernel_tables_keys():
    # one list of kinds: the evaluation table's keys, which the Jacobian table shares
    assert KINDS == tuple(core._EVAL)
    assert set(core._JAC) == set(KINDS)
    with pytest.raises(InvalidParameterError, match="known kinds: identity, linear, power_radial, "
                       "planar_rotation, convex_gradient_quartic, translation, composition$"):
        MapSpec("warp", 2)


# --- evaluation --------------------------------------------------------------

def test_evaluate_identity():
    assert np.array_equal(evaluate_map(identity_map(2), [3.0, -1.0]), [3.0, -1.0])


def test_evaluate_power_radial():
    spec = power_radial_map(2, 1.0)
    assert np.allclose(evaluate_map(spec, [1.0, 0.0]), [1.0, 0.0])
    assert np.allclose(evaluate_map(spec, [2.0, 0.0]), [4.0, 0.0])
    assert np.array_equal(evaluate_map(spec, [0.0, 0.0]), [0.0, 0.0])


def test_evaluate_power_radial_negative_exponent_at_zero():
    # |x|^p x -> 0 as x -> 0 whenever p > -1
    assert np.array_equal(evaluate_map(power_radial_map(2, -0.5), [0.0, 0.0]), [0.0, 0.0])


def test_evaluate_rotation_quarter_turn():
    out = evaluate_map(planar_rotation_map(math.pi / 2), [1.0, 0.0])
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_evaluate_quartic_closed_form():
    # f(x) = (a + b|x|^2) x; a=1, b=0.5, x=(1,1) -> 2x
    out = evaluate_map(convex_gradient_quartic_map(2, 1.0, 0.5), [1.0, 1.0])
    assert np.allclose(out, [2.0, 2.0], rtol=1e-15)


def test_evaluate_translation_and_composition_order():
    # composition acts right-to-left: rotate first, then translate
    spec = compose_maps(translation_map([1.0, 0.0]), planar_rotation_map(math.pi / 2))
    out = evaluate_map(spec, [1.0, 0.0])
    assert np.allclose(out, [1.0, 1.0], atol=1e-15)


def test_evaluate_shape_polymorphism(rng):
    spec = power_radial_map(2, 1.0)
    X = rng.standard_normal((4, 5, 2))
    out = evaluate_map(spec, X)
    assert out.shape == (4, 5, 2)
    assert np.array_equal(out[2, 3], evaluate_map(spec, X[2, 3]))


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate_map(identity_map(2), [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        evaluate_map(identity_map(2), [np.nan, 0.0])


OUT_SPECS = [
    identity_map(3),
    linear_map([[1.0, -0.4, 0.2], [0.6, 1.2, 0.0], [-0.3, 0.5, 2.0]]),
    power_radial_map(3, 0.5),
    power_radial_map(3, 1.0),
    power_radial_map(3, -0.5),
    planar_rotation_map(math.pi / 8),
    convex_gradient_quartic_map(3, 1.0, 0.25),
    translation_map([1.0, 0.0, -1.0]),
    compose_maps(power_radial_map(3, 0.5), linear_map([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0],
                                                      [0.5, 0.0, 1.5]])),
    compose_maps(linear_map([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [0.5, 0.0, 1.5]]),
                 translation_map([0.5, -1.0, 0.0])),
]


def lift_shaped_points(rng, n, rows=3, pairs=37):
    # the (M, n) view of an (n, rows, 2, pairs) buffer that the lift passes
    # the kernels: one contiguous vector over the points per coordinate,
    # with the origin among the points
    buf = rng.standard_normal((n, rows, 2, pairs))
    buf[:, 1, 0, 5] = 0.0
    return buf.transpose(1, 2, 3, 0).reshape(-1, n)


# the kinds whose value kernel writes f over its points and returns them
ELEMENTWISE = {"identity", "power_radial", "convex_gradient_quartic", "translation"}


@pytest.mark.parametrize("spec", OUT_SPECS, ids=spec_id)
def test_values_written_over_their_points_keep_their_bits(spec, rng):
    P = lift_shaped_points(rng, spec.dim)
    assert not P.flags.c_contiguous and P.T.flags.c_contiguous
    checked = evaluate_map(spec, P)
    values = core.map_values(spec, P)
    assert (values is P) == (spec.kind in ELEMENTWISE)
    assert values.tobytes() == checked.tobytes()


@pytest.mark.parametrize("spec", OUT_SPECS, ids=spec_id)
def test_values_leave_their_points_untouched(spec, rng):
    # the checked entry points copy the caller's points before a kernel
    # may overwrite them
    P = lift_shaped_points(rng, spec.dim)
    before = P.copy()
    assert not np.shares_memory(evaluate_map(spec, P), P)
    if spec.kind == "power_radial" and spec.params["p"] < 0.0:
        with pytest.raises(SingularPointError):  # the origin is among the points
            evaluate_map_jacobian(spec, P)
    else:
        assert not np.shares_memory(evaluate_map_jacobian(spec, P), P)
    assert P.tobytes() == before.tobytes()


NESTED = compose_maps(
    compose_maps(power_radial_map(3, 0.5), translation_map([0.5, -1.0, 0.0])),
    compose_maps(linear_map([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [0.5, 0.0, 1.5]]),
                 translation_map([1.0, 0.0, -1.0])))


@pytest.mark.parametrize("spec", OUT_SPECS[-2:] + [NESTED], ids=spec_id)
def test_jacobians_over_their_points_keep_their_bits(spec, rng):
    P = lift_shaped_points(rng, spec.dim)
    checked = evaluate_map_jacobian(spec, P)
    assert core.map_jacobians(spec, P).tobytes() == checked.tobytes()


def test_nested_composition_jacobian_is_the_chain_rule(rng):
    # each child composition's Df overwrites the points with its f, which
    # the parent composition's next child then reads
    X = rng.standard_normal((50, 3))
    J = core.map_jacobians(NESTED, X.copy())
    expected = np.eye(3)
    for leaf in reversed([leaf for child in NESTED.children for leaf in child.children]):
        expected = evaluate_map_jacobian(leaf, X) @ expected
        X = evaluate_map(leaf, X)
    assert np.allclose(J, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec, read", [
    (compose_maps(power_radial_map(3, 0.5), linear_map(np.eye(3))), ["linear"]),
    (NESTED, ["linear", "translation", "translation"]),
], ids=["flat", "nested"])
def test_composition_jacobian_skips_the_outermost_value(spec, read, rng, monkeypatch):
    # Df of a composition reads the f of every child but the outermost, so
    # the value kernel of the leaf that acts last (power_radial in both) is
    # never called, while a plain evaluation calls every leaf's
    calls = []
    for kind in ("power_radial", "translation", "linear"):
        monkeypatch.setitem(core._EVAL, kind, lambda s, X, kernel=core._EVAL[kind]:
                            calls.append(s.kind) or kernel(s, X))
    core.map_jacobians(spec, rng.standard_normal((50, 3)))
    assert sorted(calls) == read
    calls.clear()
    evaluate_map(spec, rng.standard_normal((50, 3)))
    assert sorted(calls) == sorted(read + ["power_radial"])


# --- Jacobians ---------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_jacobian_matches_central_differences(spec, rng):
    X = rng.uniform(-3.0, 3.0, (1000, spec.dim))
    X = X[np.linalg.norm(X, axis=1) > 0.2]  # keep away from radial kinks
    J = evaluate_map_jacobian(spec, X)
    J_fd = batch_fd_jacobian(spec, X)
    num = np.linalg.norm(J - J_fd, axis=(1, 2))
    den = np.linalg.norm(J, axis=(1, 2))
    assert np.all(num <= 1e-5 * np.maximum(den, 1.0))


def test_power_jacobian_example():
    J = evaluate_map_jacobian(power_radial_map(2, 1.0), [1.0, 0.0])
    assert np.allclose(J, [[2.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_rotation_jacobian_is_rotation_matrix(rng):
    theta = 0.3
    J = evaluate_map_jacobian(planar_rotation_map(theta), rng.standard_normal(2))
    assert np.array_equal(J, rotation_matrix(theta))


@pytest.mark.parametrize("spec", [
    power_radial_map(2, 1.0),
    power_radial_map(2, 0.5),
    power_radial_map(3, 1.0),
    power_radial_map(2, -0.5),
    power_radial_map(3, 0.0),
    power_radial_map(4, 0.5),
    power_radial_map(4, -0.5),
    convex_gradient_quartic_map(2, 1.0, 0.5),
    convex_gradient_quartic_map(3, 1.0, 0.25),
], ids=spec_id)
def test_gradient_maps_have_exactly_symmetric_jacobians(spec, rng):
    X = rng.uniform(-3.0, 3.0, (200, spec.dim))
    J = evaluate_map_jacobian(spec, X)
    assert np.array_equal(J, np.transpose(J, (0, 2, 1)))


def test_power_jacobian_at_zero():
    # f(0) = 0 for every p > -1; Df(0) is 0 for p > 0, I for p == 0, and
    # undefined for p < 0
    for n in (1, 2, 3):
        for p in (-0.5, 0.0, 0.5, 1.0):
            spec = power_radial_map(n, p)
            assert np.array_equal(evaluate_map(spec, np.zeros(n)), np.zeros(n))
            if p < 0.0:
                with pytest.raises(SingularPointError):
                    evaluate_map_jacobian(spec, np.zeros(n))
            else:
                want = np.eye(n) if p == 0.0 else np.zeros((n, n))
                assert np.array_equal(evaluate_map_jacobian(spec, np.zeros(n)), want)


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 1.0])
def test_power_radial_squared_norm_limits(p):
    # the kernels work on |x|^2: below about 1e-162 it underflows to 0 and
    # the point counts as the origin; above about 1.3e154 it overflows, and
    # the value is inf or NaN (never a finite wrong value) unless p == 0
    spec = power_radial_map(2, p)
    assert np.array_equal(evaluate_map(spec, [1e-170, 0.0]), [0.0, 0.0] if p else [1e-170, 0.0])
    with np.errstate(invalid="ignore"):
        big = evaluate_map(spec, [1e200, 0.0])
    if p == 0.0:
        assert np.array_equal(big, [1e200, 0.0])
    else:
        assert not np.all(np.isfinite(big))
    small = [1e-150, 0.0]  # r2 = 1e-300 is still normal: a plain evaluation
    assert evaluate_map(spec, small)[0] == pytest.approx(1e-150 ** (1.0 + p), rel=1e-14)
    J = evaluate_map_jacobian(spec, small)
    assert np.allclose(J, (1e-150 ** p) * np.diag([1.0 + p, 1.0]), rtol=1e-14, atol=0.0)


def test_composition_jacobian_chain_rule(rng):
    inner = power_radial_map(2, 1.0)
    outer = linear_map([[2.0, 1.0], [0.0, 1.0]])
    spec = compose_maps(outer, inner)
    x = np.array([0.7, -1.3])
    J = evaluate_map_jacobian(spec, x)
    expected = np.array(outer.params["matrix"]) @ evaluate_map_jacobian(inner, x)
    assert np.allclose(J, expected, rtol=1e-14)


# --- rotation two-point identity ---------------------------------------------

@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, 3 * math.pi / 8])
def test_rotation_two_point_ratio_is_cos_theta(theta, rng):
    spec = planar_rotation_map(theta)
    A = rng.uniform(-5.0, 5.0, (2000, 2))
    B = rng.uniform(-5.0, 5.0, (2000, 2))
    d = A - B
    fd = evaluate_map(spec, A) - evaluate_map(spec, B)
    num = np.einsum("ki,ki->k", fd, d)
    den = np.linalg.norm(fd, axis=1) * np.linalg.norm(d, axis=1)
    assert np.all(np.abs(num / den - math.cos(theta)) <= 1e-12)


@given(theta=st.floats(-1.5, 1.5))
@settings(max_examples=25, deadline=None)
def test_rotation_two_point_ratio_hypothesis(theta):
    spec = planar_rotation_map(theta)
    rng = np.random.default_rng(99)
    A = rng.uniform(-5.0, 5.0, (50, 2))
    B = rng.uniform(-5.0, 5.0, (50, 2))
    d = A - B
    fd = evaluate_map(spec, A) - evaluate_map(spec, B)
    ratios = np.einsum("ki,ki->k", fd, d) / (
        np.linalg.norm(fd, axis=1) * np.linalg.norm(d, axis=1))
    assert np.all(np.abs(ratios - math.cos(theta)) <= 1e-12)


# --- metadata ----------------------------------------------------------------

def test_digest_is_content_addressed():
    a = power_radial_map(2, 1.0)
    b = power_radial_map(2, 1.0)
    c = power_radial_map(2, 0.5)
    assert a.digest() == b.digest() != c.digest()
