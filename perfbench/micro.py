"""Kernel and layer micro-benchmarks, run once in every traced run.

Each kernel is timed at the shape a workload forms and reported as the
median of a few repetitions.  Byte rates are computed from array sizes
(every input read once, every output written once); they ignore cache
misses and temporaries, so they are a lower bound on memory traffic.
"""

from __future__ import annotations

import io
import math
import statistics
import time

import numpy as np

from monolift.ballrules import ball_rule
from monolift.certify import PairConfig, matrix_delta_many, two_point_delta
from monolift.core import (
    compose_maps,
    convex_gradient_quartic_map,
    evaluate_map,
    evaluate_map_jacobian,
    identity_map,
    linear_map,
    planar_rotation_map,
    power_radial_map,
    translation_map,
)
from monolift.differential import extension_jacobian, spectral_norms
from monolift.extension import extend_grid, extend_points, gaussian_extension, lattice_points
from monolift.quadrature import default_scheme, gaussian_expectation
from monolift.tableio import write_csv

from jobs import DEFAULT_HEIGHTS
from oracle import max_rel_err, power_radial_lift
from tracing import claim_matrices, operator_norm

# extend_points on a 400-node scheme lifts 2^19 // 400 = 1310 base points per
# chunk, so the map kernel sees 1310 * 400 points of R^2 per call
CHUNK_POINTS = 1310
BYTES_MODEL = "array sizes only: inputs read once, outputs written once; ignores cache misses"


def gallery_dim2() -> dict:
    """One map of each of the 7 gallery kinds, in R^2."""
    rot = planar_rotation_map(math.pi / 6)
    return {
        "identity": identity_map(2),
        "linear": linear_map([[2.0, 1.0], [0.0, 1.0]]),
        "power_radial": power_radial_map(2, 1.0),
        "planar_rotation": rot,
        "convex_gradient_quartic": convex_gradient_quartic_map(2, 1.0, 0.5),
        "translation": translation_map([1.0, -1.0]),
        "composition": compose_maps(rot, power_radial_map(2, 1.0)),
    }


def _median_time(fn, reps: int, inner: int = 1) -> float:
    """Median over ``reps`` of the time of one call (``inner`` calls per sample)."""
    samples = []
    for _ in range(reps):
        t0 = time.process_time()
        for _ in range(inner):
            fn()
        samples.append((time.process_time() - t0) / inner)
    return statistics.median(samples)


def _lift_points(rng, m, n, nodes):
    """Quadrature points x + t y as the lift forms them, flattened to (m * N, n)."""
    x = rng.uniform(-3.0, 3.0, (m, 1, n))
    t = rng.uniform(0.1, 2.0, (m, 1, 1))
    return (x + t * nodes[None, :, :]).reshape(-1, n)


def run_micro(seed: int) -> dict:
    rng = np.random.default_rng([seed, 7919])
    out = {}
    maps = gallery_dim2()
    s2, s3, s4 = default_scheme(2), default_scheme(3), default_scheme(4)

    # core: map kernels at the chunk shape, Jacobians at the per-point shape
    pts = _lift_points(rng, CHUNK_POINTS, 2, s2.nodes)
    jac_pts = _lift_points(rng, 1, 2, s2.nodes)
    for kind, spec in maps.items():
        t = _median_time(lambda: evaluate_map(spec, pts), reps=5)
        out[f"core.evaluate_map.{kind}.evals_per_s"] = pts.shape[0] / t
        if kind == "power_radial":
            out["core.evaluate_map.power_radial.gbytes_per_s"] = 2 * pts.nbytes / t / 1e9
        t = _median_time(lambda: evaluate_map_jacobian(spec, jac_pts), reps=5, inner=40)
        out[f"core.evaluate_map_jacobian.{kind}.evals_per_s"] = jac_pts.shape[0] / t

    # quadrature: the paired reduction on the (chunk, nodes, n) array the lift forms
    fx = evaluate_map(maps["power_radial"], pts).reshape(CHUNK_POINTS, s2.size, 2)
    t = _median_time(lambda: gaussian_expectation(s2, fx, axis=1), reps=7)
    moved = fx.nbytes + s2.weights.nbytes // 2 + CHUNK_POINTS * 2 * 8
    out["quadrature.gaussian_expectation.s"] = t
    out["quadrature.gaussian_expectation.gbytes_per_s"] = moved / t / 1e9
    out["quadrature.build_scheme.s"] = _median_time(
        lambda: [default_scheme(d) for d in (2, 3, 4)], reps=3)
    for label, s in (("tensor_d2", s2), ("tensor_d3", s3), ("qmc_d4", s4)):
        coarse = getattr(s, "coarse", None)
        out[f"quadrature.nodes_used_ratio.{label}"] = s.size / (
            s.size + (coarse.size if coarse is not None else 0))

    # extension: batched lifts at the lift-pairs batch sizes, checked against
    # the closed form; extend_grid against one batched call on the same rows
    errs = []
    for label, n, p, s, m in (("tensor_d2", 2, 1.0, s2, 2000), ("tensor_d3", 3, 0.5, s3, 128),
                              ("qmc_d4", 4, 1.0, s4, 16)):
        field = gaussian_extension(power_radial_map(n, p), s)
        X = rng.uniform(-10.0, 10.0, (m, n))
        T = rng.uniform(0.05, 10.0, m)
        t = _median_time(lambda: extend_points(field, X, T), reps=3)
        out[f"extension.extend_points.{label}.node_evals_per_s"] = m * s.size / t
        errs.append(max_rel_err(extend_points(field, X, T), power_radial_lift(X, T, p)))
    out["extension.lift_rel_err"] = max(errs)
    field3 = gaussian_extension(power_radial_map(3, 0.5), s3)
    X, T = lattice_points(3, (-2.0, 2.0), 3, DEFAULT_HEIGHTS)
    rows = list(zip(X, T))
    t_grid = _median_time(lambda: extend_grid(field3, rows), reps=3)
    t_batch = _median_time(lambda: extend_points(field3, X, T), reps=3)
    out["extension.extend_grid.batched_ratio"] = t_batch / t_grid

    # differential: what vertical_comparison and the jacobian job do per point
    quartic = gaussian_extension(maps["convex_gradient_quartic"], s2)
    point = (np.array([0.7, -0.3]), 0.8)
    out["differential.extension_jacobian.s"] = _median_time(
        lambda: extension_jacobian(quartic, point), reps=5, inner=20)
    DF = extension_jacobian(quartic, point)
    norm = operator_norm()
    out["differential.operator_norm.s"] = _median_time(lambda: norm(DF), reps=5, inner=50)
    rule = ball_rule(2)
    stack = evaluate_map_jacobian(maps["convex_gradient_quartic"], 1.5 * rule.nodes)
    out["differential.spectral_norms.s"] = _median_time(lambda: spectral_norms(stack), reps=5)

    # certify: the matrix-constant search per dimension, and the two-point
    # certificate's own work with a free map (identity, no lift)
    for d, count in ((2, 128), (3, 32)):
        mats = claim_matrices(d, count, seed)
        t = _median_time(lambda: matrix_delta_many(mats), reps=3)
        out[f"certify.matrix_delta_many.d{d}.matrices_per_s"] = count / t
    cfg = PairConfig(dim=3, pairs=20000, seed=seed)
    t = _median_time(lambda: two_point_delta(lambda P: P, cfg), reps=3)
    out["certify.two_point_delta.pairs_per_s"] = cfg.pairs / t

    # tableio: an extend-sized table (1372 rows, dim 3)
    table = rng.standard_normal((1372, 8))
    buf = io.StringIO()
    write_csv(buf, [f"c{i}" for i in range(8)], table)
    size = buf.tell()
    t = _median_time(lambda: write_csv(io.StringIO(), [f"c{i}" for i in range(8)], table), reps=3)
    out["tableio.write_csv.mbytes_per_s"] = size / t / 1e6
    return out
