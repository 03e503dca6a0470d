"""Traced replay: each job's CLI body re-run through public functions, with spans.

For every job, ``replay_job`` makes the calls the matching ``monolift.cli``
subcommand body makes, in the same order, and records a span around each
call into a layer.  Work a layer does inside another layer's function is not
visible from outside; where a self time needs it, a *stand-in* span replays
that inner work on the same inputs after the job (``standin_for`` names the
span it is subtracted from).  Stand-ins and other probes run outside the
job's root span, so they do not count in the traced job time.

Spans are kept in memory; ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import io
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from monolift import __version__
from monolift import differential
from monolift.ballrules import ball_rule
from monolift.certify import PairConfig, claim_check, matrix_delta_many, sample_pairs, two_point_delta
from monolift.core import evaluate_map_jacobian, parse_map_spec
from monolift.differential import extension_jacobian, spectral_norms
from monolift.errors import NoConvergenceError
from monolift.extension import extend_grid, extend_points, gaussian_extension, lattice_points
from monolift.hyperbolic import bilipschitz_sample, sample_height_pairs, vertical_comparison
from monolift.measure import doubling_report, gaussian_moment_ratio
from monolift.quadrature import build_scheme, default_scheme
from monolift.tableio import csv_line, write_csv, write_json

from jobs import DEFAULT_HEIGHTS, spec_text


class Tracer:
    """In-memory span recorder: id, name, start, end, parent id and job id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "job": self.job, "start": time.process_time(), "end": None}
        rec.update(attrs)
        self._stack.append(rec["id"])
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.process_time()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# shared pieces of the subcommand bodies

def _meta(kind, spec=None, scheme=None, seed=None, **extra):
    meta = {"tool": f"monolift {__version__}", "subcommand": kind}
    if spec is not None:
        meta["spec"] = spec.digest()
    if scheme is not None:
        meta["scheme"] = scheme.descriptor()
    if seed is not None:
        meta["seed"] = seed
    meta.update(extra)
    return meta


def _scheme(tr, dim, scheme=None):
    with tr.span("quadrature.build_scheme") as rec:
        if scheme is None:
            built = default_scheme(dim)
        else:
            built = build_scheme(dim, scheme["method"], scheme["resolution"], seed=scheme["seed"])
    coarse = getattr(built, "coarse", None)
    rec["nodes_used"] = built.size
    rec["nodes_built"] = built.size + (coarse.size if coarse is not None else 0)
    return built


def _field(tr, job, scheme=None):
    spec = tr.call("core.parse_map_spec", parse_map_spec, spec_text(job.params["spec"]))
    built = _scheme(tr, spec.dim, scheme)
    return spec, built, gaussian_extension(spec, built)


def _write_json(tr, payload):
    buf = io.StringIO()
    with tr.span("tableio.write_json") as rec:
        write_json(buf, payload)
    rec["bytes"] = buf.tell()


def _write_csv(tr, columns, rows, meta):
    buf = io.StringIO()
    with tr.span("tableio.write_csv") as rec:
        write_csv(buf, columns, rows, meta)
    rec["bytes"] = buf.tell()


def _lift(tr, field, X, T, **attrs):
    with tr.span("extension.extend_points", node_evals=int(np.count_nonzero(T)) * field.scheme.size,
                 **attrs):
        return extend_points(field, X, T)


def _norm_density(tr, spec):
    """x -> ||Df(x)||, the density ``measure.jacobian_norm_density`` builds, with spans."""
    def density(pts):
        jac = tr.call("core.evaluate_map_jacobian", evaluate_map_jacobian, spec, pts)
        return tr.call("differential.spectral_norms", spectral_norms, jac)
    return density


def operator_norm():
    """The operator norm vertical_comparison uses; the 2-norm if the package drops it."""
    return getattr(differential, "operator_norm", None) or (lambda M: np.linalg.norm(M, 2))


def _jacobian_norms(tr, field, X, T, standin_for):
    """Per-point lifted Jacobians and their operator norms, as vertical_comparison forms them."""
    norm = operator_norm()
    for i in range(T.shape[0]):
        with tr.span("differential.extension_jacobian", standin_for=standin_for):
            DF = extension_jacobian(field, (X[i], float(T[i])))
        with tr.span("differential.operator_norm", standin_for=standin_for) as rec:
            try:
                norm(DF)
            except NoConvergenceError:
                rec["fallback"] = 1
                np.linalg.norm(DF, 2)


# ---------------------------------------------------------------------------
# one replay per subcommand; each returns its probe (or None)

def _replay_certify_delta(tr, job):
    spec, scheme, field = _field(tr, job)
    n = spec.dim

    def lifted(P):  # what extension.full_space_map returns, with a span
        arr = np.asarray(P, dtype=float)
        flat = arr.reshape(-1, n + 1)
        return _lift(tr, field, flat[:, :n], flat[:, n]).reshape(arr.shape)

    p = job.params
    cfg = PairConfig(dim=n + 1, pairs=p["pairs"], seed=p["seed"], crossing_pairs=p["crossing"])
    with tr.span("certify.two_point_delta") as rec:
        cert = two_point_delta(lifted, cfg)
    rec["skipped"] = cert.skipped
    rec["pairs"] = p["pairs"] + p["crossing"]
    payload = {"meta": _meta("certify-delta", spec, seed=p["seed"], lift="gaussian")}
    payload.update(cert.json_dict())
    _write_json(tr, payload)
    return lambda: tr.call("certify.sample_pairs", sample_pairs, cfg)


def _replay_hyperbolic_pairs(tr, job):
    spec, scheme, field = _field(tr, job)
    p = job.params
    P, Q = tr.call("hyperbolic.sample_height_pairs", sample_height_pairs, spec.dim, p["pairs"],
                   seed=p["seed"])
    report = tr.call("hyperbolic.bilipschitz_sample", bilipschitz_sample, field, P, Q)
    payload = {"meta": _meta("hyperbolic", spec, scheme, p["seed"])}
    payload.update(report.json_dict())
    _write_json(tr, payload)

    def probe():
        for Z in (P, Q):
            _lift(tr, field, Z[:, :-1], Z[:, -1], standin_for="hyperbolic.bilipschitz_sample")
    return probe


def _lattice(tr, job, dim):
    b = job.params["bound"]
    return tr.call("extension.lattice_points", lattice_points, dim, (-b, b), job.params["nx"],
                   DEFAULT_HEIGHTS)


def _replay_extend_grid(tr, job):
    spec, scheme, field = _field(tr, job, job.params["scheme"])
    X, T = _lattice(tr, job, spec.dim)
    with tr.span("extension.extend_grid", rows=int(T.shape[0])):
        table = extend_grid(field, list(zip(X, T)))
    _write_csv(tr, table.columns(), table.rows(), _meta("extend", spec, scheme, scheme.seed))

    def probe():  # the same rows in one batched call
        with tr.span("extension.extend_grid.batched", rows=int(T.shape[0])):
            extend_points(field, X, T)
    return probe


def _replay_hyperbolic_grid(tr, job):
    spec, scheme, field = _field(tr, job)
    X, T = _lattice(tr, job, spec.dim)
    report = tr.call("hyperbolic.vertical_comparison", vertical_comparison, field, X, T)
    meta = _meta("hyperbolic", spec, scheme, scheme.seed, spread=report.spread)
    _write_csv(tr, report.columns(), report.rows(), meta)

    def probe():
        _lift(tr, field, X, T, standin_for="hyperbolic.vertical_comparison")
        _jacobian_norms(tr, field, X, T, "hyperbolic.vertical_comparison")
    return probe


def _replay_doubling(tr, job):
    spec = tr.call("core.parse_map_spec", parse_map_spec, spec_text(job.params["spec"]))
    density = _norm_density(tr, spec)
    centers = np.array([[float(v) for v in c.split(",")] for c in job.params["centers"].split(";")])
    radii = np.array([float(v) for v in job.params["radii"].split(",")])
    report = tr.call("measure.doubling_report", doubling_report, density, centers, radii)
    meta = _meta("doubling", spec, constant_hat=report.constant_hat)
    _write_csv(tr, report.columns(), report.rows(), meta)
    return lambda: _ball_rule(tr, spec.dim, "measure.doubling_report")


def _ball_rule(tr, dim, standin_for):
    with tr.span("ballrules.ball_rule", standin_for=standin_for):
        ball_rule(dim)


def _replay_moments(tr, job):
    spec = tr.call("core.parse_map_spec", parse_map_spec, spec_text(job.params["spec"]))
    density = _norm_density(tr, spec)
    scheme = _scheme(tr, spec.dim)
    ratio = tr.call("measure.gaussian_moment_ratio", gaussian_moment_ratio, density,
                    job.params["p"], spec.dim, halfspace_normal=None, scheme=scheme)
    _write_json(tr, {"meta": _meta("moments", spec, scheme), "p": ratio.p,
                     "integral": ratio.integral, "ball_mass": ratio.ball_mass,
                     "ratio": ratio.ratio})
    return lambda: _ball_rule(tr, spec.dim, "measure.gaussian_moment_ratio")


def _replay_jacobian(tr, job):
    spec, scheme, field = _field(tr, job)
    x = np.array(job.params["x"], dtype=float)
    DF = tr.call("differential.extension_jacobian", extension_jacobian, field, (x, job.params["t"]))
    buf = io.StringIO()
    buf.write(f"# x={csv_line(x)} t={job.params['t']} spec={spec.digest()} "
              f"scheme={scheme.descriptor()}\n")
    for row in DF:
        buf.write(csv_line(row) + "\n")
    return None


def claim_matrices(dim, count, seed):
    """A stack drawn like claim_check's own: Gaussian, every other one shifted by a*I."""
    rng = np.random.default_rng([seed, dim])
    mats = rng.standard_normal((count, dim, dim))
    bump = rng.uniform(0.5, 3.0, count)
    mats[::2] += bump[::2, None, None] * np.eye(dim)
    return mats


def _replay_claim_check(tr, job):
    p = job.params
    with tr.span("certify.claim_check", dim=p["dim"]) as rec:
        report = claim_check(dims=(p["dim"],), count=p["count"], seed=p["seed"],
                             delta_floor=p["delta_floor"])
    rec["qualified"] = sum(s.qualified for s in report.stats)
    rec["sampled"] = sum(s.sampled for s in report.stats)
    payload = {"meta": _meta("claim-check", seed=p["seed"])}
    payload.update(report.json_dict())
    _write_json(tr, payload)

    def probe():  # the search alone, on a stack of the same size
        mats = claim_matrices(p["dim"], p["count"], p["seed"])
        with tr.span("certify.matrix_delta_many", dim=p["dim"], matrices=p["count"],
                     standin_for="certify.claim_check"):
            matrix_delta_many(mats)
    return probe


REPLAYS = {
    "certify-delta": _replay_certify_delta,
    "hyperbolic-pairs": _replay_hyperbolic_pairs,
    "extend-grid": _replay_extend_grid,
    "hyperbolic-grid": _replay_hyperbolic_grid,
    "doubling": _replay_doubling,
    "moments": _replay_moments,
    "jacobian": _replay_jacobian,
    "claim-check": _replay_claim_check,
}


def replay_job(tr: Tracer, job, job_id: str) -> float:
    """Replay one job under spans; returns its traced CPU seconds (probes excluded)."""
    tr.job = job_id
    with tr.span("job", kind=job.kind) as root:
        probe = REPLAYS[job.kind](tr, job)
    if probe is not None:
        with tr.span("probe"):
            probe()
    tr.job = None
    return root["end"] - root["start"]


# ---------------------------------------------------------------------------
# per-layer metrics from one round of spans

def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals of one traced round.

    A span's self time is its duration minus its children's durations and
    minus the stand-in spans recorded for it.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = defaultdict(float)  # by span id
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    total, calls, self_t, attr = (defaultdict(float) for _ in range(4))
    standin = defaultdict(float)
    for s, d in zip(spans, dur):
        name = s["name"]
        total[name] += d
        calls[name] += 1
        self_t[name] += d - child[s["id"]]
        if "standin_for" in s:
            standin[s["standin_for"]] += d
        for key in ("nodes_used", "nodes_built", "node_evals", "rows", "bytes", "fallback",
                    "skipped", "pairs"):
            if key in s:
                attr[(name, key)] += s[key]
        if "dim" in s:  # claim_check and matrix_delta_many, split by matrix size
            for key in ("qualified", "sampled", "matrices"):
                if key in s:
                    attr[(name, f"d{s['dim']}.{key}")] += s[key]
            attr[(name, f"d{s['dim']}.s")] += d

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "quadrature.build_scheme.s": total["quadrature.build_scheme"],
        "quadrature.build_scheme.calls": calls["quadrature.build_scheme"],
        "quadrature.nodes_used_ratio": ratio(attr[("quadrature.build_scheme", "nodes_used")],
                                             attr[("quadrature.build_scheme", "nodes_built")]),
        "extension.extend_points.s": total["extension.extend_points"],
        "extension.extend_points.calls": calls["extension.extend_points"],
        "extension.extend_points.node_evals": attr[("extension.extend_points", "node_evals")],
        "extension.extend_grid.s": total["extension.extend_grid"],
        "extension.extend_grid.rows": attr[("extension.extend_grid", "rows")],
        "extension.extend_grid.batched_ratio": ratio(total["extension.extend_grid.batched"],
                                                     total["extension.extend_grid"]),
        "differential.extension_jacobian.s": total["differential.extension_jacobian"],
        "differential.extension_jacobian.calls": calls["differential.extension_jacobian"],
        "differential.operator_norm.s": total["differential.operator_norm"],
        "differential.operator_norm.calls": calls["differential.operator_norm"],
        "differential.operator_norm.fallbacks": attr[("differential.operator_norm", "fallback")],
        "differential.spectral_norms.s": total["differential.spectral_norms"],
        "certify.sample_pairs.s": total["certify.sample_pairs"],
        "certify.two_point_delta.s": total["certify.two_point_delta"],
        "certify.two_point_delta.self_s": self_t["certify.two_point_delta"],
        "certify.two_point_delta.skipped_ratio": ratio(attr[("certify.two_point_delta", "skipped")],
                                                       attr[("certify.two_point_delta", "pairs")]),
        "certify.claim_check.s": total["certify.claim_check"],
        "certify.claim_check.self_s": (self_t["certify.claim_check"]
                                       - standin["certify.claim_check"]),
        "hyperbolic.vertical_comparison.s": total["hyperbolic.vertical_comparison"],
        "hyperbolic.vertical_comparison.self_s": (self_t["hyperbolic.vertical_comparison"]
                                                  - standin["hyperbolic.vertical_comparison"]),
        "hyperbolic.bilipschitz_sample.s": total["hyperbolic.bilipschitz_sample"],
        "hyperbolic.bilipschitz_sample.self_s": (self_t["hyperbolic.bilipschitz_sample"]
                                                 - standin["hyperbolic.bilipschitz_sample"]),
        "measure.doubling_report.s": total["measure.doubling_report"],
        "measure.gaussian_moment_ratio.s": total["measure.gaussian_moment_ratio"],
        "ballrules.ball_rule.s": total["ballrules.ball_rule"],
        "tableio.write_csv.s": total["tableio.write_csv"],
        "tableio.write_csv.bytes": attr[("tableio.write_csv", "bytes")],
        "tableio.write_json.s": total["tableio.write_json"],
    }
    for d in (2, 3):
        m[f"certify.matrix_delta_many.d{d}.matrices_per_s"] = ratio(
            attr[("certify.matrix_delta_many", f"d{d}.matrices")],
            attr[("certify.matrix_delta_many", f"d{d}.s")])
        m[f"certify.claim_check.d{d}.qualified_ratio"] = ratio(
            attr[("certify.claim_check", f"d{d}.qualified")],
            attr[("certify.claim_check", f"d{d}.sampled")])
    return m
