"""Workload definitions: the CLI jobs each workload runs, and their output checks.

A job is one ``monolift`` command line.  Its parameters are derived from the
workload seed, so the same seed always gives the same argv.  Each job knows
how to check its own stdout and how much lift work it performs (lifted
off-boundary points times quadrature nodes), so throughput can be computed
from the argv alone.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np
from monolift.quadrature import build_scheme, default_scheme

from oracle import max_rel_err, power_radial_lift

DEFAULT_HEIGHTS = (0.25, 0.5, 1.0, 2.0)
QUARTIC = {"kind": "convex_gradient_quartic", "dim": 2, "params": {"a": 1.0, "b": 0.5}}

# Per-job tolerance on max_rows |F - F_exact|_inf / |F_exact|_inf for the
# power-radial grid jobs: 3-4x the worst error of each job over workload
# seeds 1-40 (the Sobol scramble seed moves the dim-4 error from 3e-5 to 2.3e-4).
LIFT_TOLERANCE = {
    (2, 1.0): 1e-3,    # tensor Gauss-Hermite, 400 nodes; worst seen 3.1e-4
    (3, 0.5): 4e-4,    # tensor Gauss-Hermite, 8000 nodes; worst seen 1.2e-4
    (4, 1.0): 1e-3,    # scrambled Sobol, 65536 nodes; worst seen 2.3e-4
}

# The reference kernel's working set for each workload (calib.py).
# grid-tables lifts one row per call: arrays of nodes x n, 6 KB to 190 KB
# (2 MB on its small QMC grid).  lift-pairs lifts up to 2^19 point-node pairs
# per call (arrays of 8 MB and more), and claim-check sweeps chunks of 2^21
# directions (32 MB).
REFERENCE_WORKING_SET = {"lift-pairs": "large", "grid-tables": "small", "claim-check": "large"}


def power_radial(dim: int, p: float) -> dict:
    return {"kind": "power_radial", "dim": dim, "params": {"p": p}}


def spec_text(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


@dataclass
class Job:
    """One CLI invocation plus what the benchmark knows about it."""

    name: str                  # unique within a workload
    kind: str                  # subcommand
    params: dict               # everything the argv (and the traced replay) is built from
    argv: list[str]
    lift_points: int = 0       # off-boundary half-space points the job lifts
    nodes: int = 0             # quadrature nodes per lifted point
    matrices: int = 0          # matrices whose constant the job searches
    measures: dict = field(default_factory=dict)  # filled by the check

    @property
    def node_evals(self) -> int:
        return self.lift_points * self.nodes


# ---------------------------------------------------------------------------
# job constructors

def certify_delta(name, dim, p, pairs, crossing, seed, nodes):
    spec = power_radial(dim, p)
    argv = ["certify-delta", "--spec", spec_text(spec), "--lift", "gaussian",
            "--pairs", str(pairs), "--crossing", str(crossing), "--seed", str(seed)]
    params = {"spec": spec, "pairs": pairs, "crossing": crossing, "seed": seed}
    return Job(name, "certify-delta", params, argv, lift_points=2 * (pairs + crossing),
               nodes=nodes)


def hyperbolic_pairs(name, dim, p, pairs, seed, nodes):
    spec = power_radial(dim, p)
    argv = ["hyperbolic", "--spec", spec_text(spec), "--pairs", str(pairs), "--seed", str(seed)]
    params = {"spec": spec, "pairs": pairs, "seed": seed}
    return Job(name, "hyperbolic-pairs", params, argv, lift_points=2 * pairs, nodes=nodes)


def _grid_argv(spec, bound, nx, extra):
    return ["--spec", spec_text(spec), "--grid-bounds", repr(-bound), repr(bound),
            "--grid-nx", str(nx)] + extra


def extend_grid_job(name, dim, p, bound, nx, nodes, scheme=None):
    spec = power_radial(dim, p)
    extra = []
    if scheme is not None:
        extra = ["--method", scheme["method"], "--resolution", str(scheme["resolution"]),
                 "--scheme-seed", str(scheme["seed"])]
    argv = ["extend"] + _grid_argv(spec, bound, nx, extra)
    params = {"spec": spec, "bound": bound, "nx": nx, "scheme": scheme}
    rows = nx**dim * len(DEFAULT_HEIGHTS)
    return Job(name, "extend-grid", params, argv, lift_points=rows, nodes=nodes)


def hyperbolic_grid(name, dim, p, bound, nx, nodes):
    spec = power_radial(dim, p)
    argv = ["hyperbolic"] + _grid_argv(spec, bound, nx, [])
    params = {"spec": spec, "bound": bound, "nx": nx}
    rows = nx**dim * len(DEFAULT_HEIGHTS)
    return Job(name, "hyperbolic-grid", params, argv, lift_points=rows, nodes=nodes)


def claim_check_job(name, dim, count, seed):
    argv = ["claim-check", "--dims", str(dim), "--matrices", str(count), "--seed", str(seed)]
    params = {"dim": dim, "count": count, "seed": seed, "delta_floor": 0.05}
    return Job(name, "claim-check", params, argv, matrices=count)


# ---------------------------------------------------------------------------
# workloads

def scheme_size(dim: int, scheme=None) -> int:
    """Nodes per lifted point: the CLI's default scheme for ``dim``, or the given one."""
    if scheme is None:
        return default_scheme(dim).size
    return build_scheme(dim, scheme["method"], scheme["resolution"], seed=scheme["seed"]).size


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one round of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")

    def draw_seed():
        return rng.randrange(1, 2**31 - 1)

    if workload == "lift-pairs":
        # thousands of points per extend_points call, on node sets of 400,
        # 8000 and 65536 nodes (in-cache to beyond-L2 working sets)
        n2, n3, n4 = scheme_size(2), scheme_size(3), scheme_size(4)
        return [
            certify_delta("certify-delta:d2", 2, 1.0, 4500, 500, draw_seed(), n2),
            certify_delta("certify-delta:d3", 3, 0.5, 225, 25, draw_seed(), n3),
            certify_delta("certify-delta:d4", 4, 1.0, 28, 2, draw_seed(), n4),
            hyperbolic_pairs("hyperbolic-pairs:a", 2, 1.0, 2500, draw_seed(), n2),
            hyperbolic_pairs("hyperbolic-pairs:b", 2, 1.0, 2500, draw_seed(), n2),
        ]
    if workload == "grid-tables":
        # row-by-row lifts (one extend_points call per grid row), per-point
        # Jacobians and operator norms, ball rules and CSV writing
        qmc = {"method": "quasi_random", "resolution": 1 << 16, "seed": draw_seed() % 1000}
        bounds = [round(rng.uniform(1.5, 2.5), 3) for _ in range(4)]
        x = [round(rng.uniform(-1.5, 1.5), 3) for _ in range(2)]
        t = round(rng.uniform(0.3, 1.5), 3)
        centers = ";".join(f"{rng.uniform(-2, 2):.3f},{rng.uniform(-2, 2):.3f}" for _ in range(3))
        jobs = [
            extend_grid_job("extend:d3", 3, 0.5, bounds[0], 7, scheme_size(3)),
            extend_grid_job("extend:d4-qmc", 4, 1.0, bounds[1], 2, scheme_size(4, qmc), qmc),
            extend_grid_job("extend:d2", 2, 1.0, bounds[2], 9, scheme_size(2)),
            hyperbolic_grid("hyperbolic-grid:d2", 2, 1.0, bounds[3], 9, scheme_size(2)),
        ]
        q = spec_text(QUARTIC)
        jobs.append(Job("doubling:quartic", "doubling",
                        {"spec": QUARTIC, "centers": centers, "radii": "0.5,1,2"},
                        ["doubling", "--spec", q, f"--centers={centers}", "--radii", "0.5,1,2"]))
        jobs.append(Job("moments:quartic", "moments", {"spec": QUARTIC, "p": 2.0},
                        ["moments", "--spec", q, "--p", "2"]))
        xs = ",".join(repr(v) for v in x)
        jobs.append(Job("jacobian:quartic", "jacobian", {"spec": QUARTIC, "x": x, "t": t},
                        ["jacobian", "--spec", q, f"--x={xs}", "--t", repr(t)]))
        return jobs
    if workload == "claim-check":
        # the matrix-constant search; no lift at all
        return [
            claim_check_job("claim-check:d2", 2, 1000, draw_seed()),
            claim_check_job("claim-check:d3", 3, 350, draw_seed()),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks

def _finite_json(value, path="$"):
    """Paths of every non-finite number in a parsed JSON document."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _finite_json(v, f"{path}.{k}")]
    return [p for i, v in enumerate(value) for p in _finite_json(v, f"{path}[{i}]")]


def parse_csv(text: str, header: bool = True):
    """(meta, columns, rows) of a CSV artifact; rows as a float array."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            for part in line[1:].split():
                key, _, val = part.partition("=")
                meta[key] = val
            continue
        if header and columns is None:
            columns = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    return meta, columns, np.array(rows, dtype=float)


def _meta_numbers_finite(meta):
    bad = []
    for key, val in meta.items():
        try:
            num = float(val)
        except ValueError:
            continue
        if not math.isfinite(num):
            bad.append(f"meta {key}={val}")
    return bad


def check_output(job: Job, code, stdout: str) -> list[str]:
    """Problems with one job's result; an empty list means it passed.

    Fills ``job.measures`` with what the check measured (lift error).
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        return _CHECKS[job.kind](job, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def _check_certify_delta(job, out):
    doc = json.loads(out)
    problems = [f"non-finite {p}" for p in _finite_json(doc)]
    if not doc["delta_hat"] > 0.0:
        problems.append(f"delta_hat {doc['delta_hat']} is not > 0")
    want = job.params["pairs"] + job.params["crossing"]
    if doc["samples"] != want:
        problems.append(f"samples {doc['samples']} != pairs + crossing = {want}")
    return problems


def _check_hyperbolic_pairs(job, out):
    doc = json.loads(out)
    problems = [f"non-finite {p}" for p in _finite_json(doc)]
    if doc["pairs"] + doc["skipped"] != job.params["pairs"]:
        problems.append(f"pairs {doc['pairs']} + skipped {doc['skipped']} != requested")
    if not doc["lower"] > 0.0:
        problems.append(f"bi-Lipschitz lower ratio {doc['lower']} is not > 0")
    return problems


def _check_claim(job, out):
    doc = json.loads(out)
    problems = [f"non-finite {p}" for p in _finite_json(doc)]
    if doc["total_violations"] != 0:
        problems.append(f"total_violations = {doc['total_violations']}")
    for d in doc["dims"]:
        if not d["qualified"] > 0:
            problems.append(f"dim {d['dim']}: no qualified matrix")
    return problems


def _check_extend_point(job, out):
    # a single lifted point: one CSV line x..., t, F..., F_vert
    values = [float(v) for line in out.splitlines() if not line.startswith("#")
              for v in line.split(",")]
    bad = sum(not math.isfinite(v) for v in values)
    return [f"{bad} non-finite values"] if bad or not values else []


def _table_problems(meta, rows):
    problems = _meta_numbers_finite(meta)
    if rows.size == 0:
        problems.append("empty table")
    elif not np.all(np.isfinite(rows)):
        problems.append(f"{int(np.sum(~np.isfinite(rows)))} non-finite table entries")
    return problems


def _check_extend(job, out):
    meta, columns, rows = parse_csv(out)
    problems = _table_problems(meta, rows)
    if problems:
        return problems
    spec = job.params["spec"]
    n, p = spec["dim"], spec["params"]["p"]
    if rows.shape[1] != 2 * n + 2:
        return [f"expected {2 * n + 2} columns, got {rows.shape[1]}"]
    X, T, F = rows[:, :n], rows[:, n], rows[:, n + 1:]
    up = T > 0.0
    if np.any(F[up, n] < 0.0):
        problems.append("vertical component < 0 at t > 0")
    err = max_rel_err(F[up], power_radial_lift(X[up], T[up], p))
    job.measures["lift_rel_err"] = err
    tol = LIFT_TOLERANCE[(n, p)]
    if not err <= tol:
        problems.append(f"lift_rel_err {err:.3g} above the job tolerance {tol:g}")
    return problems


def _check_hyperbolic_grid(job, out):
    meta, columns, rows = parse_csv(out)
    problems = _table_problems(meta, rows)
    if not problems and np.any(rows[:, columns.index("fvert")] <= 0.0):
        problems.append("vertical component <= 0 at t > 0")
    return problems


def _check_doubling(job, out):
    meta, columns, rows = parse_csv(out)
    problems = _table_problems(meta, rows)
    if not problems and np.any(rows[:, columns.index("ratio")] <= 0.0):
        problems.append("doubling ratio <= 0")
    return problems


def _check_moments(job, out):
    doc = json.loads(out)
    problems = [f"non-finite {p}" for p in _finite_json(doc)]
    if not doc["ratio"] > 0.0:
        problems.append(f"moment ratio {doc['ratio']} is not > 0")
    return problems


def _check_jacobian(job, out):
    meta, _, rows = parse_csv(out, header=False)
    problems = _table_problems(meta, rows)
    if problems:
        return problems
    n = job.params["spec"]["dim"]
    if rows.shape != (n + 1, n + 1):
        return [f"jacobian of shape {rows.shape}"]
    # the lift of a gradient map has a symmetric Jacobian (acceptance 09)
    if np.max(np.abs(rows - rows.T)) > 1e-12 * np.max(np.abs(rows)):
        problems.append("lifted Jacobian of a gradient map is not symmetric")
    return problems


_CHECKS = {
    "certify-delta": _check_certify_delta,
    "hyperbolic-pairs": _check_hyperbolic_pairs,
    "claim-check": _check_claim,
    "extend-grid": _check_extend,
    "extend-point": _check_extend_point,
    "hyperbolic-grid": _check_hyperbolic_grid,
    "doubling": _check_doubling,
    "moments": _check_moments,
    "jacobian": _check_jacobian,
}
