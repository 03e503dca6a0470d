#!/usr/bin/env python3
"""monolift benchmark: run one workload of CLI jobs and print one JSON result line.

    python3 perfbench/run.py --workload lift-pairs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load model: a closed loop in one process.  The jobs of a workload form a
round; rounds run back to back, one job at a time, in-process through
``monolift.cli.main(argv)``, for ``--seconds``.  Every job's argv is derived
from ``--seed``.  Each job is checked against its expected output, and each
repeat must be byte-identical to the first run of the same argv.

Times are scaled CPU seconds.  Each job's CPU time (``time.process_time``;
BLAS runs on one thread) is scaled by the host speed that a fixed reference
kernel measures right before and after it (calib.py).  On a shared host both
the wall time and the CPU time of the same code move by tens of percent
between minutes; the scaled time keeps the program's cost and drops the
host's.  The first round warms up and is checked but not timed.  Raw CPU and
wall times stay in the record and the stderr summary.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced rounds with traced replays of the same
jobs (see tracing.py), then runs the kernel micro-benchmarks (micro.py),
and reports the per-layer metrics.

The last line of stdout is the result; a readable summary goes to stderr and
the full record (environment, per-job figures, spans) to
perfbench/results/.  ``--workload all`` runs every workload in a fresh
interpreter and prints a table of every metric with its unit.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: a second thread's
# spin-waits would count in the CPU time the benchmark measures.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("lift-pairs", "grid-tables", "claim-check")
SETUP_SAMPLES = 4      # fresh interpreters timed per untraced run, besides the run's own import
MIN_ROUNDS = 3         # a warm-up round, then timed repeats (the rerun check needs one)
REF_SHARE = 0.05       # reference-kernel CPU before a job, and again after it, per job CPU second
MAX_REF_PASSES = 8     # at most this many reference passes on each side of a job
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(*run.timed_import())"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_import() -> tuple[float, float]:
    """Import monolift.cli from the checkout's source tree.

    Returns the import's CPU seconds and the CPU seconds of one pass of the
    pure-Python reference kernel, timed around it (numpy is not loaded yet).
    """
    if not (SRC / "monolift" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'monolift'}")
    from calib import per_pass_cpu_s, python_pass
    sys.path.insert(0, str(SRC))
    before = per_pass_cpu_s(python_pass, 3)
    t0 = time.process_time()
    import monolift.cli  # noqa: F401  (timed: this is setup_s)
    cpu = time.process_time() - t0
    return cpu, 0.5 * (before + per_pass_cpu_s(python_pass, 3))


def setup_samples(count: int) -> list[tuple[float, float]]:
    """``timed_import`` in ``count`` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(HERE)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        cpu, ref = done.stdout.split()[-2:]
        out.append((float(cpu), float(ref)))
    return out


class JobStats:
    def __init__(self, job):
        self.job = job
        self.scaled: list[float] = []      # scaled CPU seconds per timed untraced run
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.ref: list[float] = []         # reference-pass CPU seconds around each timed run
        self.traced: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None


def run_cli(main, argv):
    """One in-process CLI call: (exit code or exception text, stdout, stderr, CPU s, wall s)."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception as exc:  # a crashing job is a failed job; the run goes on
        code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), time.process_time() - c0, time.perf_counter() - t0


def record(st: JobStats, problems: list[str]):
    st.attempted += 1
    if problems:
        st.failed += 1
        st.problems.extend(problems[:3])


def untraced_round(main, stats, check_output, timed, working_set):
    from calib import NOMINAL_PASS_S, per_pass_cpu_s, reference_pass
    nominal = NOMINAL_PASS_S[working_set]
    for st in stats:
        passes = 1
        if st.cpu:
            passes = min(MAX_REF_PASSES, max(1, round(REF_SHARE * statistics.median(st.cpu)
                                                      / nominal)))
        before = per_pass_cpu_s(reference_pass, passes, working_set)
        code, out, err, cpu, wall = run_cli(main, st.job.argv)
        ref = 0.5 * (before + per_pass_cpu_s(reference_pass, passes, working_set))
        if timed:
            st.scaled.append(cpu * nominal / ref)
            st.cpu.append(cpu)
            st.wall.append(wall)
            st.ref.append(ref)
        if code != 0 and err.strip():
            code = f"{code} ({err.strip().splitlines()[-1]})"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if st.digest is None:
            problems = check_output(st.job, code, out)
            st.digest = digest
        elif code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = [] if digest == st.digest else ["output differs from the first run"]
        record(st, problems)


def traced_round(tracer, stats, replay_job, layer_metrics, round_idx):
    first = len(tracer.spans)
    for st in stats:
        try:
            st.traced.append(replay_job(tracer, st.job, f"r{round_idx}:{st.job.name}"))
            record(st, [])
        except Exception as exc:  # a replay that crashes fails its job, not the run
            record(st, [f"traced replay: {type(exc).__name__}: {exc}"])
    return layer_metrics(tracer.spans[first:])


def median_sum(stats, attr="scaled", keep=lambda job: True) -> float:
    return sum(statistics.median(getattr(st, attr)) for st in stats
               if keep(st.job) and getattr(st, attr))


def end_to_end(stats, setups):
    from calib import NOMINAL_PYTHON_PASS_S
    scaled = median_sum(stats)
    lift_s = median_sum(stats, keep=lambda job: job.node_evals > 0)
    match_s = median_sum(stats, keep=lambda job: job.matrices > 0)
    extra = {}
    if lift_s:
        extra["lift_evals_per_s"] = sum(st.job.node_evals for st in stats) / lift_s
    if match_s:
        extra["matrices_per_s"] = sum(st.job.matrices for st in stats) / match_s
    errs = [st.job.measures["lift_rel_err"] for st in stats if "lift_rel_err" in st.job.measures]
    if errs:
        extra["lift_rel_err"] = max(errs)
    extra["cpu_s"] = median_sum(stats, "cpu")
    extra["wall_s"] = median_sum(stats, "wall")
    extra["ref_pass_s"] = statistics.median(r for st in stats for r in st.ref)
    extra["setup_cpu_s"] = statistics.median(cpu for cpu, _ in setups)
    metrics = {
        "scaled_cpu_s": scaled,
        "setup_s": statistics.median(cpu * NOMINAL_PYTHON_PASS_S / ref for cpu, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # lift node evaluations per scaled CPU second where the workload lifts, else matrices
        "work_per_scaled_cpu_s": extra.get("lift_evals_per_s", extra.get("matrices_per_s")),
    }
    return metrics, extra


def run_workload(args) -> int:
    own_import = timed_import()
    from monolift.cli import main

    from envinfo import environment
    from jobs import REFERENCE_WORKING_SET, build_jobs, check_output

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(ROOT, args.workload, args.seed)
    stats = [JobStats(job) for job in build_jobs(args.workload, args.seed)]
    samples = setup_samples(SETUP_SAMPLES) if not args.trace else []

    tracer = None
    rounds_layers = []
    if args.trace:
        from tracing import Tracer, layer_metrics, replay_job
        tracer = Tracer()
    start = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        untraced_round(main, stats, check_output, rounds > 0, REFERENCE_WORKING_SET[args.workload])
        if tracer is not None:
            rounds_layers.append(traced_round(tracer, stats, replay_job, layer_metrics, rounds))
        rounds += 1
        last = time.perf_counter() - t_round
        if rounds >= MIN_ROUNDS and time.perf_counter() - start + last > args.seconds:
            break
    measured_s = time.perf_counter() - start

    setups = [own_import] + samples
    metrics, extra = end_to_end(stats, setups)
    record_doc = {"environment": env, "rounds": rounds, "measured_s": measured_s,
                  "setup_cpu_and_ref_s": setups, "extra": extra}
    if tracer is not None:
        from micro import BYTES_MODEL, run_micro
        layers = {k: statistics.median(r[k] for r in rounds_layers) for k in rounds_layers[0]}
        layers["trace.replay_s"] = median_sum(stats, "traced")
        # raw CPU on both sides; the replay skips argument parsing and output
        # formatting, so this can be negative
        layers["trace.overhead_s"] = layers["trace.replay_s"] - extra["cpu_s"]
        micro = run_micro(args.seed)
        metrics = {**micro, **{k: layers[k] for k in ("trace.replay_s", "trace.overhead_s")}}
        record_doc.update(replay_layers=layers, micro=micro, bytes_model=BYTES_MODEL,
                          spans=tracer.spans)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    attempted = sum(st.attempted for st in stats)
    failed = sum(st.failed for st in stats)
    extra["fail_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record_doc["result"] = result
    record_doc["jobs"] = [{"name": st.job.name, "argv": st.job.argv,
                           "median_s": statistics.median(st.scaled),
                           "scaled_s": st.scaled, "cpu_s": st.cpu, "wall_s": st.wall,
                           "ref_pass_s": st.ref, "traced_s": st.traced,
                           "attempted": st.attempted, "failed": st.failed,
                           "problems": st.problems, "measures": st.job.measures}
                          for st in stats]
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record_doc, indent=1, default=float) + "\n")
    summarize(args, env, stats, result, extra, record_doc.get("replay_layers"), rounds)
    print(json.dumps(result))
    return 0


def summarize(args, env, stats, result, extra, layers, rounds):
    err = sys.stderr
    err.write(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
              f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
              f"blas_threads={env['blas'].get('threads')} nproc={env['nproc']}\n")
    for st in stats:
        state = "FAIL " + "; ".join(st.problems) if st.failed else "ok"
        err.write(f"  {st.job.name:22s} median {statistics.median(st.scaled):8.4f} s scaled "
                  f"{statistics.median(st.cpu):8.4f} s CPU {statistics.median(st.wall):8.4f} s wall  "
                  f"x{len(st.scaled)}  {state}\n")
    for name, m in result["metrics"].items():
        err.write(f"  {name:52s} {m['value']:.6g} {m['unit']}\n")
    for name, value in extra.items():
        err.write(f"  {name:52s} {value:.6g}\n")
    for name, value in (layers or {}).items():
        err.write(f"  replay {name:45s} {value:.6g}\n")


def replay_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "ratio" if "ratio" in name else "count"


def run_all(args) -> int:
    """Every workload in its own interpreter; one table of every metric with its unit."""
    units = {"fail_ratio": "failed/attempted", "lift_evals_per_s": "evals/s",
             "cpu_s": "s", "wall_s": "s", "ref_pass_s": "s", "setup_cpu_s": "s",
             "matrices_per_s": "matrices/s", "lift_rel_err": "1"}
    ok = True
    print(f"{'workload':12s} {'metric':59s} {'value':>14s} unit")
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{workload:12s} failed to run: {done.stderr.strip()[-500:]}")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        doc = json.loads((RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json").read_text())
        ok = ok and result["correct"]
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        rows += [(k, v, units[k]) for k, v in doc["extra"].items()]
        rows += [(f"replay {k}", v, replay_unit(k)) for k, v in doc.get("replay_layers", {}).items()]
        for name, value, unit in rows:
            print(f"{workload:12s} {name:59s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
