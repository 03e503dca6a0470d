"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and pinned to the tolerance it advertises;
the conftest hook prints a PASS/FAIL line per criterion at session end.
"""

import filecmp
import math
import time

import numpy as np

from conftest import gallery_2d, gallery_3d
from monolift import (
    DoublingReport,
    PairConfig,
    build_scheme,
    evaluate_map,
    claim_check,
    claim_constant,
    composition_monotonicity_demo,
    convex_gradient_quartic_map,
    doubling_report,
    extend_points,
    extension_jacobian,
    finite_difference_jacobian,
    full_space_map,
    gaussian_expectation,
    gaussian_extension,
    identity_map,
    jacobian_norm_density,
    lattice_points,
    lebesgue_density,
    linear_map,
    matrix_delta,
    planar_rotation_map,
    power_radial_map,
    trivial_lift_map,
    two_point_delta,
    vertical_comparison,
)
from monolift.cli import main


def test_criterion_01_identity_and_linear_lifts():
    rng = np.random.default_rng(101)
    for dim in (2, 3):
        field = gaussian_extension(identity_map(dim))
        X = rng.uniform(-5, 5, (100, dim))
        T = rng.uniform(0.01, 4.0, 100)
        out = extend_points(field, X, T)
        assert np.abs(out[:, :dim] - X).max() < 1e-10
        assert np.abs(out[:, dim] - dim * T).max() < 1e-10

    A = np.array([[2.0, -0.3], [0.5, 1.4]])
    field = gaussian_extension(linear_map(A))
    X = rng.uniform(-5, 5, (100, 2))
    T = rng.uniform(0.01, 4.0, 100)
    out = extend_points(field, X, T)
    assert np.abs(out[:, :2] - X @ A.T).max() < 1e-8
    assert np.abs(out[:, 2] - np.trace(A) * T).max() < 1e-8


def test_criterion_02_boundary_trace_exact():
    rng = np.random.default_rng(202)
    for spec in gallery_2d() + gallery_3d():
        field = gaussian_extension(spec)
        X = rng.uniform(-5, 5, (100, spec.dim))
        out = extend_points(field, X, np.zeros(100))
        assert np.array_equal(out[:, : spec.dim], evaluate_map(spec, X))
        assert np.all(out[:, spec.dim] == 0.0)


def test_criterion_03_jacobian_matches_finite_differences():
    rng = np.random.default_rng(303)
    for spec in gallery_2d():
        field = gaussian_extension(spec)
        G = full_space_map(field)
        for _ in range(50):
            x = rng.uniform(-3, 3, 2)
            t = rng.uniform(0.1, 2.0)
            DF = extension_jacobian(field, (x, t))
            FD = finite_difference_jacobian(G, np.append(x, t))
            rel = np.linalg.norm(DF - FD) / max(1.0, np.linalg.norm(DF))
            assert rel <= 1e-4, f"{spec.label()}: rel error {rel:.3e}"


def test_criterion_04_singular_value_claim():
    assert abs(claim_constant(1.0) - (2.0 - math.sqrt(3.0)) ** 2) < 1e-10
    report = claim_check(dims=(2, 3), count=10000, seed=7, delta_floor=0.05)
    assert report.total_violations == 0
    assert all(s.qualified > 0 for s in report.stats)


def test_criterion_05_rotation_delta():
    G = full_space_map(gaussian_extension(planar_rotation_map(math.pi / 4)))
    cert = two_point_delta(G, PairConfig(dim=3, pairs=4000, seed=5))
    assert abs(cert.delta_hat - math.cos(math.pi / 4)) < 1e-3

    for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        R = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        assert abs(matrix_delta(R) - math.cos(theta)) < 1e-6


def test_criterion_06_power_lift_monotone():
    G = full_space_map(gaussian_extension(power_radial_map(2, 1.0)))
    cfg = PairConfig(dim=3, pairs=100000, seed=0, crossing_pairs=10000)
    cert = two_point_delta(G, cfg)
    assert cert.delta_hat > 0.0
    assert cert.samples == 110000

    rng = np.random.default_rng(606)
    field = gaussian_extension(power_radial_map(2, 1.0))
    X = rng.uniform(-5, 5, (10000, 2))
    T = rng.uniform(1e-3, 5.0, 10000)
    out = extend_points(field, X, T)
    assert out[:, 2].min() >= -1e-10


def test_criterion_07_trivial_lift_refuted():
    start = time.perf_counter()
    F = trivial_lift_map(power_radial_map(2, 1.0))
    cfg = PairConfig(dim=3, pairs=2000, seed=0, witness_radii=(25.0, 100.0, 400.0))
    cert = two_point_delta(F, cfg)
    elapsed = time.perf_counter() - start
    assert cert.delta_hat <= 0.1
    assert elapsed < 10.0


def test_criterion_08_composition_failure():
    theta = math.pi / 3
    report = composition_monotonicity_demo(theta, theta, pairs=4000, seed=0)
    assert abs(report.delta1 - 0.5) < 1e-6
    assert abs(report.delta2 - 0.5) < 1e-6
    assert report.flagged
    assert report.certificate.delta_hat <= -0.5 + 1e-6


def test_criterion_09_quartic_jacobian_symmetric():
    rng = np.random.default_rng(909)
    field = gaussian_extension(convex_gradient_quartic_map(2, 1.0, 0.5))
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        t = rng.uniform(0.1, 2.0)
        DF = extension_jacobian(field, (x, t))
        asym = np.linalg.norm(DF - DF.T) / np.linalg.norm(DF)
        assert asym <= 1e-6
        sym = 0.5 * (DF + DF.T)
        assert np.linalg.eigvalsh(sym).min() >= -1e-8


def test_criterion_10_hyperbolic_comparison():
    field = gaussian_extension(identity_map(2))
    rep = vertical_comparison(field, *lattice_points())
    assert np.abs(rep.ratios - 1.0).max() < 1e-8

    field = gaussian_extension(power_radial_map(2, 1.0))
    coarse = vertical_comparison(field, *lattice_points(nx=9))
    fine = vertical_comparison(field, *lattice_points(nx=17))
    assert np.isfinite(coarse.spread)
    assert abs(fine.spread - coarse.spread) <= 0.1 * coarse.spread


def test_criterion_11_doubling_constants():
    rng = np.random.default_rng(111)
    for dim in (2, 3):
        centers = rng.uniform(-3, 3, (6, dim))
        radii = np.geomspace(0.1, 2.0, 6)
        rep = doubling_report(lebesgue_density(), centers, radii)
        assert np.abs(rep.ratios - 2.0**dim).max() < 1e-6

    density = jacobian_norm_density(power_radial_map(2, 1.0))
    rep = doubling_report(density, np.zeros((4, 2)), np.array([0.25, 0.5, 1.0, 2.0]))
    assert np.abs(rep.ratios - 8.0).max() < 1e-4

    for spec in (identity_map(2), planar_rotation_map(0.3), power_radial_map(2, 1.0)):
        density = jacobian_norm_density(spec)
        centers = rng.uniform(-2, 2, (4, 2))
        rep = doubling_report(density, centers, np.array([0.5, 1.0, 1.5, 2.0]))
        assert isinstance(rep, DoublingReport)
        assert np.isfinite(rep.constant_hat)


def test_criterion_12_gaussian_moments():
    for order in (3, 8, 20):
        scheme = build_scheme(dim=1, method="tensor_hermite", resolution=order)
        y = scheme.nodes[:, 0]
        assert abs(gaussian_expectation(scheme, np.ones_like(y)) - 1.0) < 1e-10
        assert abs(gaussian_expectation(scheme, y * y) - 1.0) < 1e-10
        assert abs(gaussian_expectation(scheme, (y * y) * (y * y)) - 3.0) < 1e-10

    scheme = build_scheme(dim=2, method="quasi_random", resolution=2**16, seed=0)
    y = scheme.nodes
    assert abs(gaussian_expectation(scheme, np.ones(len(y))) - 1.0) < 1e-2
    assert abs(gaussian_expectation(scheme, y[:, 0] * y[:, 0]) - 1.0) < 1e-2
    assert abs(gaussian_expectation(scheme, (y[:, 1] * y[:, 1]) * (y[:, 1] * y[:, 1])) - 3.0) < 1e-2


def test_criterion_13_cli_determinism(tmp_path):
    spec_arg = '{"kind": "planar_rotation", "dim": 2, "params": {"theta": 0.5}}'
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = [
        "certify-delta",
        "--spec",
        spec_arg,
        "--lift",
        "gaussian",
        "--pairs",
        "2000",
        "--seed",
        "9",
        "--format",
        "json",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert filecmp.cmp(out_a, out_b, shallow=False)
    assert out_a.read_bytes() == out_b.read_bytes()
