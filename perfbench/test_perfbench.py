"""Tests of the benchmark's own pieces: oracle, output checks, job generation, spans.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.timed_import()

from monolift.cli import main  # noqa: E402
from monolift.core import power_radial_map  # noqa: E402
from monolift.extension import extend_points, gaussian_extension  # noqa: E402
from monolift.quadrature import build_scheme  # noqa: E402

from jobs import REFERENCE_WORKING_SET, Job, build_jobs, check_output  # noqa: E402
from oracle import max_rel_err, power_radial_lift  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def test_oracle_identity_case():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        X = rng.normal(size=(6, n)) * 3
        T = rng.uniform(0.1, 4.0, 6)
        F = power_radial_lift(X, T, 0.0)
        np.testing.assert_allclose(F, np.column_stack([X, n * T]), rtol=1e-14, atol=0)


@pytest.mark.parametrize("n, p", [(2, 1.0), (3, 0.5)])
def test_oracle_matches_order_60_tensor_rule(n, p):
    rng = np.random.default_rng(5)
    X = rng.uniform(-2.0, 2.0, (6, n))
    T = np.array([0.25, 0.5, 1.0, 2.0, 0.8, 1.5])
    field = gaussian_extension(power_radial_map(n, p), build_scheme(n, "tensor_hermite", 60))
    assert max_rel_err(extend_points(field, X, T), power_radial_lift(X, T, p)) < 1e-4


def test_checker_counts_nan_output_as_failed():
    # prints 0.5,1,nan,nan and exits 0: the check must fail the job
    job = Job("nan-point", "extend-point", {},
              ["extend", "--spec", '{"kind":"identity","dim":1}', "--x", "0.5", "--t", "1",
               "--resolution", "400"])
    stats = [run.JobStats(job)]
    with np.errstate(all="ignore"):  # the order-400 rule overflows inside numpy
        run.untraced_round(main, stats, check_output, True, "small")
    assert stats[0].attempted == 1
    assert stats[0].failed == 1
    assert "non-finite" in stats[0].problems[0]


def test_checker_counts_nonzero_exit_as_failed():
    job = Job("bad-spec", "extend-point", {}, ["extend", "--spec", '{"kind":"nope","dim":1}',
                                               "--x", "0.5", "--t", "1"])
    stats = [run.JobStats(job)]
    run.untraced_round(main, stats, check_output, True, "small")
    assert stats[0].failed == 1
    assert stats[0].problems[0].startswith("exit code 1")


def test_jobs_are_a_function_of_the_seed():
    for workload in run.WORKLOADS:
        a = [j.argv for j in build_jobs(workload, 4)]
        b = [j.argv for j in build_jobs(workload, 4)]
        c = [j.argv for j in build_jobs(workload, 5)]
        assert a == b
        assert a != c


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_round_passes_its_checks_and_reruns_identically(workload):
    stats = [run.JobStats(job) for job in build_jobs(workload, 1)]
    working_set = REFERENCE_WORKING_SET[workload]
    run.untraced_round(main, stats, check_output, False, working_set)
    run.untraced_round(main, stats, check_output, True, working_set)
    assert [st.problems for st in stats] == [[] for _ in stats]
    assert all(st.attempted == 2 for st in stats)
    # the warm-up round is checked but not timed
    assert all(len(st.scaled) == len(st.cpu) == len(st.ref) == 1 for st in stats)


def test_scaled_time_is_cpu_time_at_the_nominal_reference_speed():
    from calib import NOMINAL_PASS_S

    stats = [run.JobStats(job) for job in build_jobs("grid-tables", 1)[-2:]]
    run.untraced_round(main, stats, check_output, True, "small")
    for st in stats:
        assert st.ref[0] > 0.0
        assert st.scaled[0] == pytest.approx(st.cpu[0] * NOMINAL_PASS_S["small"] / st.ref[0])
    cpu, ref = run.timed_import()  # already imported: near zero, but timed
    assert cpu >= 0.0 and ref > 0.0


def test_self_time_subtracts_children_and_standins():
    tr = Tracer()
    with tr.span("job"):  # an earlier round: span ids are global, not per slice
        pass
    with tr.span("hyperbolic.vertical_comparison"):
        with tr.span("extension.extend_points", node_evals=10):
            pass
    with tr.span("extension.extend_points", node_evals=5,
                 standin_for="hyperbolic.vertical_comparison"):
        pass
    spans = tr.spans[1:]
    # fix the clock: outer 0..10, child 2..5, stand-in 10..14
    for rec, (a, b) in zip(spans, [(0.0, 10.0), (2.0, 5.0), (10.0, 14.0)]):
        rec["start"], rec["end"] = a, b
    m = layer_metrics(spans)
    assert m["hyperbolic.vertical_comparison.s"] == 10.0
    assert m["hyperbolic.vertical_comparison.self_s"] == 10.0 - 3.0 - 4.0
    assert m["extension.extend_points.calls"] == 2
    assert m["extension.extend_points.node_evals"] == 15


def test_traced_replay_of_claim_check():
    from tracing import replay_job

    stats = [run.JobStats(job) for job in build_jobs("claim-check", 2)]
    tr = Tracer()
    layers = run.traced_round(tr, stats, replay_job, layer_metrics, 0)
    assert all(st.failed == 0 for st in stats)
    assert layers["certify.claim_check.d2.qualified_ratio"] > 0.0
    assert layers["certify.matrix_delta_many.d3.matrices_per_s"] > 0.0
    assert layers["extension.extend_points.calls"] == 0
    assert {s["job"] for s in tr.spans} == {"r0:claim-check:d2", "r0:claim-check:d3"}


def test_refuses_to_run_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark: exit nonzero, print no result
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "claim-check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""

