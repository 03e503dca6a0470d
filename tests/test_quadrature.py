"""Gaussian quadrature schemes: moments, symmetry, determinism."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc  # the oracle of sobol_points; the package never imports it

from conftest import riemann_gaussian_moment_1d
from monolift import (
    PairConfig,
    TripleConfig,
    ball_rule,
    build_scheme,
    claim_check,
    default_scheme,
    gaussian_expectation,
    lattice_points,
    quadrature,
    sample_height_pairs,
)
from monolift.core import MapSpec
from monolift.quadrature import pair_blocks, pair_expectation, paired_nodes, sobol_points
from monolift.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidParameterError,
    ResolutionError,
)

# even Gaussian moments E[y^k] = (k-1)!!; frozen targets for degrees 0..6,
# cross-checked against a fine Riemann sum in test_moment_targets_match_riemann
MOMENTS = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0}


def test_moment_targets_match_riemann():
    for degree, value in MOMENTS.items():
        assert riemann_gaussian_moment_1d(degree) == pytest.approx(value, abs=1e-9)


def test_order3_rule_closed_form():
    scheme = build_scheme(1, "tensor_hermite", 3)
    nodes = np.sort(scheme.nodes[:, 0])
    assert np.allclose(nodes, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-12)
    weights = scheme.weights[np.argsort(scheme.nodes[:, 0])]
    assert np.allclose(weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [3, 8, 20])
def test_tensor_moments(dim, order):
    scheme = build_scheme(dim, "tensor_hermite", order)
    assert abs(np.sum(scheme.weights) - 1.0) <= 1e-12
    for degree in (0, 2, 4):
        for axis in range(dim):
            val = gaussian_expectation(scheme, scheme.nodes[:, axis] ** degree)
            assert abs(val - MOMENTS[degree]) <= 1e-10 * max(1.0, MOMENTS[degree])


def test_tensor_exactness_up_to_2m_minus_1():
    # order m integrates degrees <= 2m-1: check all of 0..7 at m=4
    scheme = build_scheme(1, "tensor_hermite", 4)
    for degree in range(8):
        val = gaussian_expectation(scheme, scheme.nodes[:, 0] ** degree)
        target = MOMENTS.get(degree, 0.0)
        assert abs(val - target) <= 1e-10 * max(1.0, abs(target))


def test_mixed_monomial():
    # E[y1^2 y2^4] = 1 * 3 by independence
    scheme = build_scheme(2, "tensor_hermite", 6)
    val = gaussian_expectation(scheme, scheme.nodes[:, 0] ** 2 * scheme.nodes[:, 1] ** 4)
    assert abs(val - 3.0) <= 1e-10


@pytest.mark.parametrize("scheme", [
    build_scheme(1, "tensor_hermite", 7),
    build_scheme(2, "tensor_hermite", 6),
    build_scheme(3, "tensor_hermite", 4),
    build_scheme(2, "quasi_random", 512, seed=5),
    # each builder makes its rule symmetric; nothing checks it at build time
    default_scheme(3),
    default_scheme(4),
    build_scheme(3, "tensor_hermite", 7),
    build_scheme(5, "quasi_random", 1 << 17),
], ids=lambda s: s.descriptor())
def test_node_reflection_symmetry(scheme):
    assert np.array_equal(scheme.nodes[::-1], -scheme.nodes)
    assert np.array_equal(scheme.weights[::-1], scheme.weights)


@pytest.mark.parametrize("scheme", [
    build_scheme(2, "tensor_hermite", 5),
    build_scheme(2, "tensor_hermite", 8),
    build_scheme(3, "quasi_random", 1024, seed=3),
], ids=lambda s: s.descriptor())
def test_odd_integrands_vanish_exactly(scheme):
    # odd powers built as y*(y*y)^k: numpy's vectorized ** is not bitwise
    # antisymmetric, while products of pair-equal even factors are
    y = scheme.nodes
    x = y[:, 0]
    for values in (x, x * (x * x), x * np.sum(y * y, axis=1)):
        assert gaussian_expectation(scheme, values) == 0.0
    z = y[:, 1]
    assert gaussian_expectation(scheme, z * (z * z)) == 0.0


@given(coeffs=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_odd_polynomials_vanish_hypothesis(coeffs):
    scheme = build_scheme(1, "tensor_hermite", 9)
    y = scheme.nodes[:, 0]
    values = sum(c * (y * (y * y) ** k) for k, c in enumerate(coeffs))
    assert gaussian_expectation(scheme, values) == 0.0


def test_vector_valued_expectation():
    scheme = build_scheme(2, "tensor_hermite", 10)
    vals = np.stack([scheme.nodes[:, 0], scheme.nodes[:, 0] ** 2], axis=1)
    out = gaussian_expectation(scheme, vals)
    assert out.shape == (2,)
    assert out[0] == 0.0 and abs(out[1] - 1.0) <= 1e-10
    with pytest.raises(DimensionMismatchError, match=r"^got 3 node values for a scheme of size 100$"):
        gaussian_expectation(scheme, vals[:3])


def test_quasi_random_moments():
    scheme = build_scheme(4, "quasi_random", 1 << 16, seed=0)
    assert scheme.size == 1 << 16
    assert abs(np.sum(scheme.weights) - 1.0) <= 1e-12
    for axis in range(4):
        m2 = gaussian_expectation(scheme, scheme.nodes[:, axis] ** 2)
        assert abs(m2 - 1.0) <= 1e-2


@pytest.mark.filterwarnings("ignore:The balance properties")
def test_quasi_random_rounds_to_even():
    scheme = build_scheme(2, "quasi_random", 17, seed=1)
    assert scheme.size % 2 == 0 and scheme.size >= 17


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 17])
def test_sobol_points_are_scipys_bit_for_bit(dim):
    for count in (16, 1024, 1 << 15):
        for seed in (0, 5, 576, 2**31 - 2):
            expected = qmc.Sobol(d=dim, scramble=True, seed=seed).random(count)
            assert np.array_equal(sobol_points(dim, count, seed), expected)


@pytest.mark.filterwarnings("ignore:The balance properties")
def test_sobol_points_of_any_count_and_a_blocked_scramble(monkeypatch):
    # counts that are not powers of two stop inside a doubling; scrambles drawn
    # three dimensions at a time continue the one stream of scipy's single draw
    for count in (1, 3, 1000):
        expected = qmc.Sobol(d=3, scramble=True, seed=1).random(count)
        assert np.array_equal(sobol_points(3, count, 1), expected)
    monkeypatch.setattr(quadrature, "_SCRAMBLE_DIMS", 3)
    expected = qmc.Sobol(d=20, scramble=True, seed=9).random(64)
    assert np.array_equal(sobol_points(20, 64, 9), expected)


def test_sobol_dimension_limit():
    # the direction table covers 21201 dimensions; beyond it a Gaussian rule
    # whose nodes fit the budget is still refused, before anything is drawn
    assert sobol_points(21201, 1, 0).shape == (1, 21201)
    for make in (lambda: sobol_points(21202, 16, 0),
                 lambda: build_scheme(21202, "quasi_random", 16)):
        with pytest.raises(InvalidParameterError, match="at most 21201 dimensions, got 21202"):
            make()


def test_quasi_random_rounds_to_a_power_of_two():
    # Sobol points keep their balance only at powers of two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_scheme(2, "quasi_random", 1000).size == 1024
        assert build_scheme(2, "quasi_random", 17).size == 32
        assert build_scheme(3, "quasi_random", 64).size == 64


def test_quasi_random_budget_is_checked_before_allocating():
    # 2^37 nodes, and 2^23 nodes in dim 4 (320 MiB of nodes and weights)
    tracemalloc.start()
    try:
        for dim, resolution in [(2, 10**11), (4, 1 << 23)]:
            with pytest.raises(DimensionOverflowError, match="256 MiB"):
                build_scheme(dim, "quasi_random", resolution)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_determinism_bitwise():
    for a, b in [
        (build_scheme(2, "tensor_hermite", 12), build_scheme(2, "tensor_hermite", 12)),
        (build_scheme(3, "quasi_random", 256, seed=9), build_scheme(3, "quasi_random", 256, seed=9)),
    ]:
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)


def test_seed_changes_quasi_nodes():
    a = build_scheme(2, "quasi_random", 256, seed=0)
    b = build_scheme(2, "quasi_random", 256, seed=1)
    assert not np.array_equal(a.nodes, b.nodes)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [7, 20, 27, 40])
def test_tensor_rule_is_the_full_product_less_negligible_nodes(dim, order):
    # the reference: the full product rule in C order, less its nodes of
    # weight under 1e-16 of the largest, with the kept weights renormalised
    x, w = quadrature._hermite_1d(order)
    full = functools.reduce(np.multiply.outer, [w] * dim).reshape(-1)
    keep = ~(full < 1e-16 * full.max())
    grid = np.stack([axis.reshape(-1) for axis in np.meshgrid(*([x] * dim), indexing="ij")])
    scheme = build_scheme(dim, "tensor_hermite", order)
    assert np.array_equal(scheme.nodes, grid[:, keep].T)
    assert np.array_equal(scheme.weights, full[keep] / full[keep].sum())
    assert scheme.size == np.count_nonzero(full >= 1e-16 * full.max())


@pytest.mark.parametrize("dim, kept", [(1, 20), (2, 368), (3, 5888)])
def test_default_tensor_rule_is_pruned(dim, kept):
    # 368 of 400 and 5888 of 8000 product nodes pass the floor; the kept
    # rule stays reflection-paired and coordinate-major, and integrates
    # y y^T to about 1e-14, where the full rule was exact to rounding
    scheme = default_scheme(dim)
    y, w = scheme.nodes, scheme.weights
    assert scheme.size == kept
    assert np.array_equal(y, -y[::-1]) and np.array_equal(w, w[::-1])
    assert y.T.flags.c_contiguous
    assert abs(w.sum() - 1.0) <= 2e-16
    second = gaussian_expectation(scheme, y[:, :, None] * y[:, None, :])
    assert np.abs(second - np.eye(dim)).max() <= 1e-14


def test_default_scheme_switchover():
    assert default_scheme(3).method == "tensor_hermite"
    assert default_scheme(4).method == "quasi_random"


def test_build_peak_memory():
    # the kept nodes are written slab by slab, with no full-size temporary,
    # and no check copies them: an order-100 dim-3 rule (81824 of 10^6
    # product nodes, 2.5 MiB of nodes and weights) peaks at 1.14x its arrays
    tracemalloc.start()
    try:
        scheme = build_scheme(3, "tensor_hermite", 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (scheme.nodes.nbytes + scheme.weights.nbytes)


@pytest.mark.parametrize("scheme", [build_scheme(2, "quasi_random", 1 << 15, seed=3),
                                    build_scheme(3, "tensor_hermite", 27),
                                    build_scheme(2, "tensor_hermite", 20)],
                         ids=lambda s: s.descriptor())
def test_pair_expectation_reduces_in_blocks(scheme, rng):
    # the paired nodes are cut into runs of at most 2^13 nodes, the odd
    # rule's centre node in the last; each block is one einsum, the block
    # sums are added left to right and the centre term last.  So a row's
    # bits do not depend on how many rows share the reduction.
    h = paired_nodes(scheme).shape[0]
    blocks = pair_blocks(scheme)
    assert [b.start for b in blocks] == list(range(0, h, 1 << 13)) and blocks[-1].stop == h
    assert all(b.stop - b.start <= 1 << 13 for b in blocks)
    sums = rng.normal(size=(5, 3, h))
    half = scheme.size // 2

    def reduced(*arrays):  # pair_expectation on whole arrays, recording its blocks
        called = []

        def block_sums(block):
            called.append(block)
            return tuple(np.ascontiguousarray(a)[..., block] for a in arrays)

        totals = pair_expectation(scheme, block_sums)
        assert called == blocks
        return totals

    for s in (sums[2, 1], sums[2, 1, None], sums[:, 1], sums):
        expected = None
        for b in blocks:
            stop = min(b.stop, half)
            part = np.einsum("...n,n->...", s[..., b.start:stop], scheme.weights[b.start:stop])
            expected = part if expected is None else expected + part
        if scheme.size % 2:
            expected = expected + (0.5 * scheme.weights[half]) * s[..., half]
        assert np.array_equal(reduced(s)[0], expected)
    rows, second = reduced(sums, sums[:, 1])
    assert np.array_equal(second, rows[:, 1])
    for i in range(5):
        assert np.array_equal(reduced(sums[i, 1])[0], rows[i, 1])
        assert np.array_equal(reduced(sums[i])[0], rows[i])


def test_build_errors():
    with pytest.raises(ResolutionError):
        build_scheme(1, "tensor_hermite", 1)
    with pytest.raises(ResolutionError):
        build_scheme(2, "quasi_random", 8)
    with pytest.raises(ResolutionError, match="non-finite"):
        build_scheme(1, "tensor_hermite", 400)
    with pytest.raises(DimensionOverflowError):
        build_scheme(5, "tensor_hermite", 50)
    # 300^3 nodes is 824 MiB of nodes and weights: rejected before allocating
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflowError, match="256 MiB"):
            build_scheme(3, "tensor_hermite", 300)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    with pytest.raises(InvalidParameterError):
        build_scheme(2, "gauss_legendre", 10)
    with pytest.raises(InvalidParameterError):
        build_scheme(0, "tensor_hermite", 5)


@pytest.mark.parametrize("method, resolution", [
    ("tensor_hermite", 5), ("quasi_random", 64), ("gauss_legendre", 10)])
def test_negative_seed_is_rejected_for_every_method(method, resolution):
    # checked before the method is looked at, so an unknown method names the
    # seed, and a tensor rule (which draws nothing) no longer records seed-1
    with pytest.raises(InvalidParameterError, match="seed must be a non-negative integer, got -1"):
        build_scheme(2, method, resolution, seed=-1)


@pytest.mark.parametrize("make, message", [
    (lambda: sample_height_pairs(0, 3), "dim must be a positive integer, got 0"),
    (lambda: PairConfig(dim=2.5), "dim must be a positive integer, got 2.5"),
    (lambda: TripleConfig(dim=0), "dim must be a positive integer, got 0"),
    (lambda: lattice_points(True), "lattice dim must be a positive integer, got True"),
    (lambda: lattice_points(2, nx=2.5), "lattice nx must be a positive integer, got 2.5"),
    (lambda: build_scheme(2, "quasi_random", 64.5, 1),
     "resolution must be a positive integer, got 64.5"),
    (lambda: build_scheme(2, "quasi_random", 64, 1.5),
     "scheme seed must be a non-negative integer, got 1.5"),
    (lambda: build_scheme(True, "tensor_hermite", 5), "dim must be a positive integer, got True"),
    (lambda: ball_rule(2.0), "dim must be a positive integer, got 2.0"),
    (lambda: claim_check(dims=(2, 0), count=5), "dims must be one or more positive integers"),
], ids=["height-pairs-dim", "pair-dim", "triple-dim", "lattice-bool-dim", "lattice-nx",
        "scheme-resolution", "scheme-seed", "scheme-bool-dim", "ball-float-dim", "claim-dims"])
def test_one_integer_rule_rejects_every_non_integer(make, message):
    # check_integer is the one test of a positive or non-negative integer: no
    # argument is truncated, no bool counts as one, and no bad value reaches
    # numpy, which would raise its own TypeError or build a degenerate array
    with pytest.raises(InvalidParameterError, match=message):
        make()


def test_one_integer_rule_stores_numpy_integers_as_int():
    two, five = np.int64(2), np.int64(5)
    values = [MapSpec("identity", two).dim, ball_rule(two).dim,
              build_scheme(two, "tensor_hermite", five, np.int64(0)).dim,
              build_scheme(two, "quasi_random", np.int64(64), np.int64(3)).seed,
              PairConfig(dim=two, seed=five).seed, TripleConfig(dim=two).dim,
              claim_check(dims=np.array([2]), count=5, seed=five).stats[0].dim,
              sample_height_pairs(two, five)[0].shape[1]]
    assert values == [2, 2, 2, 3, 5, 2, 2, 3]
    assert all(type(v) is int for v in values[:-1])
    assert MapSpec("identity", two).digest() == MapSpec("identity", 2).digest()
    scheme = build_scheme(2, "quasi_random", five * 13, np.int64(3))
    assert scheme.descriptor() == "quasi_random:r128:seed3:dim2"
