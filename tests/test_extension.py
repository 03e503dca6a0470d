"""Lift operator: closed forms, boundary trace, reflection, grids."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolift import (
    MapSpec,
    build_scheme,
    compose_maps,
    convex_gradient_quartic_map,
    default_scheme,
    evaluate_map,
    evaluate_map_jacobian,
    extend_grid,
    extend_points,
    extension_jacobian,
    extension_jacobians,
    full_space_map,
    gaussian_expectation,
    gaussian_extension,
    identity_map,
    lattice_points,
    linear_map,
    planar_rotation_map,
    power_radial_map,
    translation_map,
    trivial_lift_map,
)
from monolift import extension
from monolift.quadrature import pair_blocks, pair_expectation, paired_nodes
from monolift.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteIntegrandError,
    SingularPointError,
)

from conftest import gallery_2d, gallery_3d, monotone_gallery_2d


def trapezoid_lift_2d(spec, x, t, half_width=8.0, n=801):
    """Dense trapezoid-rule oracle for the lifted map in the plane."""
    g = np.linspace(-half_width, half_width, n)
    y1, y2 = np.meshgrid(g, g, indexing="ij")
    y = np.stack([y1.ravel(), y2.ravel()], axis=1)
    w = np.full(n, g[1] - g[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    w2 = (w[:, None] * w[None, :]).ravel()
    dens = np.exp(-0.5 * np.sum(y * y, axis=1)) / (2.0 * np.pi)
    f = evaluate_map(spec, np.asarray(x) + t * y)
    horiz = np.sum(w2[:, None] * dens[:, None] * f, axis=0)
    vert = np.sum(w2 * dens * np.sum(f * y, axis=1))
    return np.concatenate([horiz, [vert]])


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_lift_closed_form(dim, rng):
    field = gaussian_extension(identity_map(dim))
    X = rng.uniform(-5, 5, size=(40, dim))
    T = rng.uniform(0.05, 3.0, size=40) * rng.choice([-1.0, 1.0], size=40)
    out = extend_points(field, X, T)
    assert np.allclose(out[:, :dim], X, atol=1e-10)
    assert np.allclose(out[:, dim], dim * T, atol=1e-10)


def test_linear_lift_closed_form(rng):
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    field = gaussian_extension(linear_map(A))
    X = rng.uniform(-4, 4, size=(30, 2))
    T = rng.uniform(0.1, 2.0, size=30)
    out = extend_points(field, X, T)
    assert np.allclose(out[:, :2], X @ A.T, atol=1e-8)
    assert np.allclose(out[:, 2], np.trace(A) * T, atol=1e-8)


@pytest.mark.parametrize("spec,x,t", [
    (identity_map(2), (1.0, 2.0), 0.5),
    (linear_map([[2.0, 0.0], [0.0, 3.0]]), (1.0, 1.0), 1.0),
    (MapSpec("convex_gradient_quartic", 2, {"a": 1.0, "b": 0.5}), (0.3, 0.1), 0.4),
])
def test_lift_matches_dense_trapezoid(spec, x, t):
    got = extend_points(gaussian_extension(spec), [x], [t])[0]
    want = trapezoid_lift_2d(spec, x, t)
    assert np.allclose(got, want, atol=1e-9)


def test_lift_of_kinked_map_converges():
    # |x|x is C^1 only, so the Hermite rule converges algebraically;
    # check the error against a dense oracle shrinks with resolution
    spec = power_radial_map(2, 1.0)
    x, t = (0.5, -0.25), 0.75
    want = trapezoid_lift_2d(spec, x, t, n=2001)
    errs = []
    for order in (20, 64, 128):
        got = extend_points(gaussian_extension(spec, build_scheme(2, "tensor_hermite", order)),
                            [x], [t])[0]
        errs.append(float(np.max(np.abs(got - want))))
    assert errs[0] < 5e-4
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-5


def test_boundary_trace_exact(rng):
    for spec in gallery_2d() + gallery_3d():
        X = rng.uniform(-6, 6, size=(100, spec.dim))
        out = extend_points(gaussian_extension(spec), X, np.zeros(100))
        want = np.concatenate([evaluate_map(spec, X), np.zeros((100, 1))], axis=1)
        assert np.array_equal(out, want)


def test_reflection_parity_bitwise(rng):
    for spec in gallery_2d():
        field = gaussian_extension(spec)
        X = rng.uniform(-4, 4, size=(25, 2))
        T = rng.uniform(0.1, 2.0, size=25)
        up = extend_points(field, X, T)
        down = extend_points(field, X, -T)
        assert np.array_equal(down[:, :2], up[:, :2])
        assert np.array_equal(down[:, 2], -up[:, 2])


def test_continuity_toward_boundary():
    # lift converges to the trace as t -> 0 along a shrinking ladder
    X = np.array([[0.4, -1.1], [2.0, 0.3], [-0.7, 0.9]])
    for spec in monotone_gallery_2d():
        trace = evaluate_map(spec, X)
        field = gaussian_extension(spec)
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            out = extend_points(field, X, np.full(3, eps))
            errs.append(float(np.max(np.abs(out[:, :2] - trace))))
        if errs[0] > 1e-10:  # affine maps sit at machine epsilon throughout
            assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2


def test_vertical_component_sign(rng):
    X = rng.uniform(-5, 5, size=(60, 2))
    T = rng.uniform(0.05, 4.0, size=60)
    for spec in monotone_gallery_2d():
        out = extend_points(gaussian_extension(spec), X, T)
        assert np.all(out[:, 2] >= -1e-10)


def test_crossing_pairs_stay_separated(rng):
    # two-point monotonicity across the boundary for the full-space map
    G = full_space_map(gaussian_extension(power_radial_map(2, 1.0)))
    P = np.column_stack([rng.uniform(-3, 3, size=(200, 2)), rng.uniform(0.05, 2.0, size=200)])
    Q = np.column_stack([rng.uniform(-3, 3, size=(200, 2)), -rng.uniform(0.05, 2.0, size=200)])
    num = np.sum((G(P) - G(Q)) * (P - Q), axis=1)
    den = np.linalg.norm(G(P) - G(Q), axis=1) * np.linalg.norm(P - Q, axis=1)
    assert np.all(den > 0)
    assert np.min(num / den) > 0


def test_extend_point_shapes():
    field = gaussian_extension(identity_map(2))
    out = extend_points(field, [[1.0, 0.0]], [2.0])[0]
    assert out.shape == (3,)
    assert np.allclose(out, [1.0, 0.0, 4.0], atol=1e-10)
    with pytest.raises(DimensionMismatchError):
        extend_points(field, np.zeros((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatchError):
        extend_points(field, np.zeros((2, 2)), np.ones(3))
    with pytest.raises(InvalidParameterError):
        extend_points(field, np.array([[np.inf, 0.0]]), np.ones(1))
    # an empty batch, on a rule of one node block and on one of four
    for n in (2, 4):
        f = gaussian_extension(identity_map(n))
        assert extend_points(f, np.zeros((0, n)), np.zeros(0)).shape == (0, n + 1)
        assert extension_jacobians(f, np.zeros((0, n)), np.zeros(0)).shape == (0, n + 1, n + 1)


def test_lattice_points_layout():
    X, T = lattice_points(dim=2, bounds=(0.0, 1.0), nx=3, heights=(0.5, 1.0))
    assert X.shape == (18, 2) and T.shape == (18,)
    assert np.allclose(X[0], [0.0, 0.0]) and T[0] == 0.5
    assert np.allclose(X[-1], [1.0, 1.0]) and T[-1] == 1.0
    # every (base, height) combination appears exactly once
    combos = {tuple(np.append(x, t)) for x, t in zip(X, T)}
    assert len(combos) == 18


@pytest.mark.parametrize("kwargs", [{"dim": 0}, {"dim": 2.5}, {"nx": 0}, {"nx": 2.5},
                                    {"heights": ()}], ids=str)
def test_lattice_points_rejects_bad_sizes(kwargs):
    # a zero or fractional size must not reach numpy, which raises its own
    # ValueError or TypeError
    with pytest.raises(InvalidParameterError):
        lattice_points(**kwargs)


def test_extend_grid_rows():
    field = gaussian_extension(identity_map(2))
    table = extend_grid(field, [([0.0, 0.0], 1.0), ([1.0, 0.0], 2.0), ([0.0, 0.0], -1.0)])
    assert table.columns() == ["x1", "x2", "t", "F1", "F2", "Fn1"]
    rows = table.rows()
    assert rows.shape == (3, 6)
    assert np.allclose(rows[0], [0, 0, 1, 0, 0, 2], atol=1e-10)
    assert np.allclose(rows[1], [1, 0, 2, 1, 0, 4], atol=1e-10)
    assert np.allclose(rows[2], [0, 0, -1, 0, 0, -2], atol=1e-10)


def test_extend_grid_empty_and_row_errors():
    field = gaussian_extension(identity_map(2))
    table = extend_grid(field, [])
    assert table.rows().shape == (0, 6)
    with pytest.raises(DimensionMismatchError, match="row 1"):
        extend_grid(field, [([0.0, 0.0], 1.0), ([0.0, 0.0, 0.0], 1.0)])


def test_extend_grid_names_overflowing_row():
    field = gaussian_extension(power_radial_map(2, 1.0))
    with pytest.raises(NonFiniteIntegrandError, match="row 1"):
        extend_grid(field, [([0.0, 0.0], 1.0), ([1e200, 0.0], 1.0)])
    with pytest.raises(NonFiniteIntegrandError, match="row 1"):
        extend_grid(field, [([0.0, 0.0], 1.0), ([1.7e308, 0.0], 1e308)])


@pytest.mark.parametrize("p", [1.0, 0.5, -0.5])
def test_extend_points_names_row_of_huge_base(p):
    # |x|^2 overflows at |x| = 1e200: for p > 0 the map value is inf, for
    # p < 0 the kernel returns NaN rather than a wrong finite value
    field = gaussian_extension(power_radial_map(2, p))
    X = np.array([[0.0, 0.0], [1e200, 0.0], [1e200, 1.0]])
    for t in (1.0, -1.0, 0.0):
        with pytest.raises(NonFiniteIntegrandError, match="row 1: map evaluation"):
            extend_points(field, X, np.full(3, t))


def test_extend_points_names_row_of_overflowing_average():
    # |x| x at |x| = 1e154 is finite, but a pair sum of node values is not
    field = gaussian_extension(power_radial_map(2, 1.0))
    X = np.array([[0.0, 0.0], [1e154, 0.0]])
    assert np.all(np.isfinite(extend_points(field, X, np.zeros(2))))
    for t in (1.0, -1.0):
        with pytest.raises(NonFiniteIntegrandError, match="row 1: Gaussian average"):
            extend_points(field, X, np.full(2, t))


@pytest.mark.parametrize("X, T, row, what", [
    # a bad map value is named before an earlier row's overflowing average
    ([[0.0, 0.0], [1e154, 0.0], [1e200, 0.0]], [1.0, 1.0, 1.0], 2, None),
    # a bad point is named before any value or average of its chunk
    ([[0.0, 0.0], [1e154, 0.0], [1.0, 0.0]], [1.0, 1.0, 1e308], 2, "x \\+ t y"),
    ([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0]], [1.0, 1e308, 1.0], 1, "x \\+ t y"),
])
def test_chunk_checks_name_row_in_order(X, T, row, what):
    # points, then values, then averages: one check of each per chunk
    field = gaussian_extension(power_radial_map(2, 1.0))
    for fn, value in ((extend_points, "map evaluation"), (extension_jacobians, "base Jacobian")):
        with pytest.raises(NonFiniteIntegrandError, match=f"row {row}: {what or value}"):
            fn(field, np.array(X), np.array(T))


BIG = np.finfo(float).max
# two 2^13-pair node blocks, so two rows share a run of the lift
TWO_BLOCKS = build_scheme(2, "quasi_random", 1 << 15, seed=1)
# order 37 in dim 3 keeps 16975 nodes: a block of 2^13 pairs, then 296 pairs
# and the centre node, a ragged last block
ODD_TWO_BLOCKS = build_scheme(3, "tensor_hermite", 37)


def test_bad_value_in_later_block_is_named_before_earlier_overflow():
    # rows are reduced block by block, yet a bad map value is still named
    # before an earlier row's overflowing average when it lies in a later
    # node block than that overflow: at height t, |t y|^2 overflows at a
    # node of TWO_BLOCKS' second block but at none of its first
    y = paired_nodes(TWO_BLOCKS)
    r = np.hypot(y[:, 0], y[:, 1])
    first, second = pair_blocks(TWO_BLOCKS)
    t = np.sqrt(BIG) / np.sqrt(r[first].max() * r[second].max())
    spec = power_radial_map(2, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(evaluate_map(spec, t * y[first])))
        assert not np.all(np.isfinite(evaluate_map(spec, t * y[second])))
    field = gaussian_extension(spec, TWO_BLOCKS)
    X, T = np.array([[1e154, 0.0], [0.0, 0.0]]), np.array([1.0, t])
    for fn, value in ((extend_points, "map evaluation"), (extension_jacobians, "base Jacobian")):
        with pytest.raises(NonFiniteIntegrandError, match=f"row 1: {value}"):
            fn(field, X, T)


def test_singular_node_names_first_row_across_blocks():
    # row 1 meets the origin at a node of the first block, row 0 only at
    # the centre node, in the second; row 0 is named
    scheme = ODD_TWO_BLOCKS
    y = paired_nodes(scheme)
    assert len(pair_blocks(scheme)) == 2 and not np.any(y[-1])
    field = gaussian_extension(power_radial_map(3, -0.5), scheme)
    X = np.stack([np.zeros(3), -y[5]])
    assert not np.any(X[1] + y[5])
    for rows in (X, X[::-1]):
        with pytest.raises(SingularPointError, match="row 0: "):
            extension_jacobians(field, rows, np.ones(2))


def test_first_bad_row_is_named_whatever_its_fault():
    # row 0's base Jacobian is NaN at its nodes (|x|^2 overflows), row 1
    # meets the origin at a node: the first row is named, by its own fault
    scheme = build_scheme(2, "tensor_hermite", 7)
    field = gaussian_extension(power_radial_map(2, -0.5), scheme)
    X = np.stack([[1e200, 0.0], -paired_nodes(scheme)[1]])
    with pytest.raises(NonFiniteIntegrandError, match="row 0: base Jacobian"):
        extension_jacobians(field, X, np.ones(2))
    with pytest.raises(SingularPointError, match="row 0: "):
        extension_jacobians(field, X[::-1], np.ones(2))


@pytest.mark.parametrize("scheme", [build_scheme(2, "tensor_hermite", 7),
                                    build_scheme(3, "quasi_random", 512, seed=2)],
                         ids=lambda s: s.descriptor())
@given(k=st.integers(0, 2), a=st.floats(0.0, BIG), jitter=st.floats(-4e-16, 4e-16),
       signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])))
@settings(max_examples=150, deadline=None)
def test_point_bound_is_exact(scheme, k, a, jitter, signs):
    # the lift reports an overflowing x + t y exactly when a scan of every
    # x +- |t| y over the paired nodes finds a non-finite coordinate
    n = scheme.dim
    k %= n
    y = paired_nodes(scheme)
    ymax = np.abs(y[:, k]).max()
    t = signs[1] * (BIG - a) / ymax * (1.0 + jitter)
    if t == 0.0:
        return
    x = np.full(n, 0.5)
    x[k] = signs[0] * a
    with np.errstate(over="ignore"):
        ty = abs(t) * y
        scan_bad = not (np.all(np.isfinite(x + ty)) and np.all(np.isfinite(x - ty)))
    try:
        extend_points(gaussian_extension(identity_map(n), scheme), x[None, :], np.array([t]))
        reported = False
    except NonFiniteIntegrandError as exc:
        reported = "x + t y" in str(exc)
    assert reported == scan_bad


BITWISE_SCHEMES = [
    build_scheme(1, "tensor_hermite", 20),  # 10 pairs a block, 1638 rows a piece
    build_scheme(2, "tensor_hermite", 20),
    build_scheme(3, "tensor_hermite", 20),
    build_scheme(4, "quasi_random", 1 << 16, seed=5),
    build_scheme(4, "quasi_random", 1 << 15, seed=5),
    TWO_BLOCKS,
    ODD_TWO_BLOCKS,
]


def bitwise_spec(kind, n):
    # the linear map's kernel returns its own array, and so does this
    # composition, whose linear child acts last
    M = np.eye(n) + 0.3 * np.roll(np.eye(n), 1, axis=1)
    return {"quartic": convex_gradient_quartic_map(n, 1.0, 0.5),
            "linear": linear_map(M),
            "composition": compose_maps(linear_map(M), power_radial_map(n, 0.5))}[kind]


def test_bitwise_schemes_take_both_piece_layouts():
    # blocks of at most _SPLIT_PAIRS pairs are laid out in split halves,
    # longer ones with each row's halves side by side; the bitwise test
    # below must see both
    pairs = {block.stop - block.start for s in BITWISE_SCHEMES for block in pair_blocks(s)}
    assert min(pairs) <= extension._SPLIT_PAIRS < max(pairs)


@pytest.mark.parametrize("scheme, kind", [
    pytest.param(s, kind, id=s.descriptor() + ("" if kind == "quartic" else f"-{kind}"))
    for s in BITWISE_SCHEMES for kind in ("quartic", "linear", "composition")])
def test_batch_equals_rows_bitwise(scheme, kind, rng):
    # a batch spanning several chunks gives each row exactly the value it
    # gets when lifted alone, for the lift and for its Jacobian
    if scheme in (TWO_BLOCKS, ODD_TWO_BLOCKS):
        assert len(pair_blocks(scheme)) == 2
    dim = scheme.dim
    field = gaussian_extension(bitwise_spec(kind, dim), scheme)
    m = 2 * max(1, extension._TARGET_EVALS // scheme.size) + 1
    X = rng.uniform(-2.0, 2.0, size=(m, dim))
    T = rng.uniform(0.2, 2.0, size=m)
    lifted = extend_points(field, X, np.where(np.arange(m) % 3 == 0, -T, T))
    jacobians = extension_jacobians(field, X, T)
    for i in range(m):
        t = -T[i] if i % 3 == 0 else T[i]
        assert np.array_equal(lifted[i], extend_points(field, X[i:i + 1], [t])[0])
        assert np.array_equal(jacobians[i], extension_jacobian(field, (X[i], T[i])))


@pytest.mark.parametrize("fn", [extend_points, extension_jacobians])
def test_lift_working_set_does_not_grow_with_the_rule(fn):
    # the lift holds one piece of at most _TARGET_EVALS evaluations at a
    # time, whatever the rule's size: the traced peak above the built rule
    # is the same for 2^16 and 2^18 nodes (about 0.76 MiB for the lift and
    # 3.9 MiB for the Jacobian in dim 4), where whole rows took 2x and 6x
    # the rule's bytes
    X, T = np.array([[0.3, -0.2, 0.1, 0.5]]), np.array([0.7])
    peaks = []
    for size in (1 << 16, 1 << 18):
        field = gaussian_extension(power_radial_map(4, 1.0), build_scheme(4, "quasi_random", size))
        fn(field, X, T)
        tracemalloc.start()
        try:
            fn(field, X, T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (64 << 10), peaks


def test_lift_piece_is_its_points_plus_a_few_node_columns():
    # f overwrites the piece's points and the pair sums its plus half, so
    # the traced peak of a lift is the (n, c, 2, b) points buffer plus a few
    # node columns of (c, 2, b) floats (|x|^2, raised to its power in place,
    # and one scratch term), not a second buffer of values and a third of sums
    X, T = np.array([[0.3, -0.2, 0.1, 0.5]]), np.array([0.7])
    field = gaussian_extension(power_radial_map(4, 1.0), build_scheme(4, "quasi_random", 1 << 16))
    block = pair_blocks(field.scheme)[0]
    column = 2 * (block.stop - block.start) * 8  # one row: c = 1
    points = field.dim * column
    extend_points(field, X, T)
    tracemalloc.start()
    try:
        extend_points(field, X, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= points + 3 * column, (peak, points, column)


def full_node_sums(field, x, t):
    """Lift and Jacobian of one point from every node separately: each
    integrand evaluated at all N nodes and reduced by gaussian_expectation,
    plus the magnitudes E[sum |products|] that bound each entry's rounding."""
    y, ay = field.scheme.nodes, np.abs(field.scheme.nodes)

    def mean(v):
        return gaussian_expectation(field.scheme, v)

    f = evaluate_map(field.spec, x + t * y)
    A = evaluate_map_jacobian(field.spec, x + t * y)
    Ay = np.einsum("kij,kj->ki", A, y)
    aAy = np.einsum("kij,kj->ki", np.abs(A), ay)
    sums = {"horizontal": mean(f), "vertical": mean(np.einsum("ki,ki->k", f, y)), "A": mean(A),
            "Ay": mean(Ay), "yA": mean(np.einsum("ki,kij->kj", y, A)),
            "yAy": mean(np.einsum("ki,ki->k", y, Ay))}
    mags = {"vertical": mean(np.einsum("ki,ki->k", np.abs(f), ay)), "Ay": mean(aAy),
            "yA": mean(np.einsum("ki,kij->kj", ay, np.abs(A))),
            "yAy": mean(np.einsum("ki,ki->k", ay, aAy))}
    return sums, mags


@pytest.mark.parametrize("scheme", [default_scheme(n) for n in (1, 2, 3, 4)]
                         + [build_scheme(2, "tensor_hermite", 7)],
                         ids=lambda s: s.descriptor())
def test_paired_reduction_matches_full_node_sums(scheme, rng):
    # The lift evaluates f at x +- t y over the first half of the nodes.  Pair
    # sums give the same bits as the full node set (horizontal part, A block);
    # pair differences (f(x+ty) - f(x-ty)) y replace f(x+ty) y + f(x-ty) (-y).
    # Each form of a pair term is within gamma_k M of the exact one, M the
    # entry's magnitude and k = n + 1 (2n + 1 for y^T A y) its rounding steps,
    # so the two differ by at most 2k ulps of M; measured: at most 2.
    n = scheme.dim
    ulps = {"vertical": 2 * (n + 1), "Ay": 2 * (n + 1), "yA": 2 * (n + 1), "yAy": 2 * (2 * n + 1)}
    for spec in (power_radial_map(n, 0.5), convex_gradient_quartic_map(n, 1.0, 0.5)):
        field = gaussian_extension(spec, scheme)
        X = rng.uniform(-2.0, 2.0, size=(3, n))
        T = rng.uniform(0.1, 2.0, size=3)
        lifted = extend_points(field, X, T)
        DF = extension_jacobians(field, X, T)
        for i in range(3):
            sums, mags = full_node_sums(field, X[i], T[i])
            assert np.array_equal(lifted[i, :n], sums["horizontal"])
            assert np.array_equal(DF[i, :n, :n], sums["A"])
            paired = {"vertical": lifted[i, n], "Ay": DF[i, :n, n], "yA": DF[i, n, :n],
                      "yAy": DF[i, n, n]}
            for key, value in paired.items():
                assert np.all(np.abs(value - sums[key]) <= ulps[key] * np.spacing(mags[key])), key


LAYOUT_GALLERY = {
    "linear": linear_map([[1.0, -0.4], [0.6, 1.2]]),
    "rotation": planar_rotation_map(0.3),
    "power_radial_negative_p": power_radial_map(2, -0.5),
    "quartic": convex_gradient_quartic_map(2, 1.0, 0.5),
    "composition": compose_maps(planar_rotation_map(0.3), translation_map([0.5, -1.0]),
                                power_radial_map(2, 1.5)),
}


@pytest.mark.parametrize("kind", sorted(LAYOUT_GALLERY))
def test_kernels_and_reduction_are_layout_independent(kind):
    # The lift hands the kernels coordinate-major points and reduces arrays
    # whose node axis is last; the reference in
    # test_paired_reduction_matches_full_node_sums works on C-ordered points
    # and node-first values.  Its array_equal checks mean something only if
    # no result depends on the layout.  2^14 pairs: past einsum's 2^13 block.
    spec = LAYOUT_GALLERY[kind]
    scheme = build_scheme(2, "quasi_random", 2**15, 4)
    assert scheme.nodes.flags.f_contiguous and paired_nodes(scheme)[:, 1].flags.c_contiguous
    rows = np.ascontiguousarray(np.array([0.4, -0.9]) + 1.3 * scheme.nodes)
    cols = np.ascontiguousarray(rows.T).T
    assert rows.flags.c_contiguous and not cols.flags.c_contiguous
    f, J = evaluate_map(spec, rows), evaluate_map_jacobian(spec, rows)
    assert np.array_equal(f, evaluate_map(spec, cols))
    assert np.array_equal(J, evaluate_map_jacobian(spec, cols))
    k = scheme.size // 2
    for values in (f, J, np.einsum("ki,ki->k", f, scheme.nodes)):
        node_first = values[:k] + values[::-1][:k]
        node_last = np.ascontiguousarray(np.moveaxis(node_first, 0, -1))
        expected = pair_expectation(scheme, lambda block: (node_last[..., block],))[0]
        assert np.array_equal(gaussian_expectation(scheme, values), expected)
        assert np.array_equal(gaussian_expectation(scheme, np.moveaxis(values, 0, -1), axis=-1),
                              expected)


def test_scheme_override_changes_resolution():
    spec = power_radial_map(2, 0.5)
    coarse = extend_points(gaussian_extension(spec, build_scheme(2, "tensor_hermite", 4)),
                           [[1.0, 1.0]], [1.0])[0]
    fine = extend_points(gaussian_extension(spec, build_scheme(2, "tensor_hermite", 40)),
                         [[1.0, 1.0]], [1.0])[0]
    finer = extend_points(gaussian_extension(spec, build_scheme(2, "tensor_hermite", 80)),
                          [[1.0, 1.0]], [1.0])[0]
    default = extend_points(gaussian_extension(spec), [[1.0, 1.0]], [1.0])[0]
    assert not np.array_equal(coarse, fine)
    # |x|^{1/2} has unbounded derivatives at 0, so refinement moves the
    # value slowly; the default (order 20) sits within the coarse-to-fine gap
    assert np.max(np.abs(fine - finer)) < np.max(np.abs(coarse - fine))
    assert np.max(np.abs(default - finer)) < np.max(np.abs(coarse - finer))
    with pytest.raises(DimensionMismatchError):
        gaussian_extension(spec, build_scheme(3, "tensor_hermite", 4))


def test_full_space_map_shapes_and_reflection():
    G = full_space_map(gaussian_extension(identity_map(2)))
    out = G(np.array([[1.0, 2.0, -0.5], [1.0, 2.0, 0.5]]))
    assert np.allclose(out[0], [1.0, 2.0, -1.0], atol=1e-10)
    assert np.allclose(out[1], [1.0, 2.0, 1.0], atol=1e-10)
    single = G(np.array([1.0, 2.0, 0.5]))
    assert single.shape == (3,)
    assert np.array_equal(single, out[1])
    # the naive lift (x, t) -> (f(x), t) keeps any (..., n+1) shape the same way
    spec = power_radial_map(2, 1.0)
    P = np.random.default_rng(3).normal(size=(4, 5, 3))
    lifted = trivial_lift_map(spec)(P)
    assert lifted.shape == P.shape
    assert np.array_equal(lifted[..., :2], evaluate_map(spec, P[..., :2]))
    assert np.array_equal(lifted[..., 2], P[..., 2])
