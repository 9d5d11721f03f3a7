"""magfem benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload pm_toy_k1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; magfem is imported from ``src/``
there, never from an installed copy. Workloads, metric names and units are
read from ``BENCHMARK.json`` at the root. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``perfbench {...}``) adds the environment,
every sample, the failure share and the metrics that are not gated. A
fuller record, and with tracing the spans, go to ``perfbench/out/``.

A run of one workload, in one process:

1. one set-up (for cli_io it writes the mesh file the solve reads);
2. one untimed warm-up operation, checked like the others: the first
   study in a process ran about 20 % slower than later ones;
3. untraced: cycles of one timed set-up and one timed operation until
   ``--seconds`` have passed; ``setup_s`` and ``time_to_solution_s`` are
   the medians. Interleaving spreads both samples over the whole run, as
   the speed of a shared machine can drift over tens of seconds;
   traced: pairs of one untraced operation and one traced cycle (a
   set-up plus an operation with every layer patched) until ``--seconds``
   have passed. Per-layer metrics are medians over the traced cycles, and
   ``trace.overhead_ratio`` is the median traced operation time over the
   median untraced one.

Every operation's output is checked against ``perfbench/reference.json``
(see ``check.py``). An operation fails (``failed``, and ``ok_frac`` is the
share that did not) when it raises, fails its check, or a Newton solve does
not converge. An inner CG solve that misses its tolerance is read from
``CGInfo.converged`` and counted in the summary's ``fail_frac`` and in
``solver.cg_unconverged``, but does not fail the operation: every cli_io
solve has one, whose true residual stalls at the rounding floor about 1.6
times above its 1e-12 tolerance while the answer passes its check.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: a single-threaded baseline.
# On a 2-core x86 machine, 2 OpenBLAS threads made pm_toy_k1 about 20 %
# slower and doubled its CPU time. The thread count also fixes the summation
# order of dot products, and with it the CG counts (pm_toy_k1: 13,259 with
# one thread, 13,264 with two; manufactured_k3: 8,953 and 8,952).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Per-layer metrics that read zero on a workload whose path never reaches
# them (no file I/O in a study, no CLI in a study, no refinement-error
# evaluation in cli_io); they are reported in the summary line only.
SUMMARY_ONLY = (
    "mesh.io_s",
    "femspace.eval_curl_batch_s",
    "harness.self_s",
    "harness.error_eval_s",
    "cli.self_s",
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


def import_magfem():
    if not (SRC / "magfem" / "__init__.py").is_file():
        raise BenchError(f"no magfem source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import magfem

    if Path(magfem.__file__).resolve().parent != (SRC / "magfem").resolve():
        raise BenchError(f"imported magfem from {magfem.__file__}, not from {SRC}")
    return magfem


def _load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def environment():
    import numpy
    import scipy

    src_lines = 0
    for path in sorted((SRC / "magfem").glob("*.py")):
        src_lines += sum(1 for line in path.read_text().splitlines() if line.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "src_magfem_lines": src_lines,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


class Runner:
    """Runs, times and checks the operations of one workload."""

    def __init__(self, workload, inputs, reference, probe):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.probe = probe
        self.attempted = 0
        self.failed = 0        # raised, failed its check, or Newton did not converge
        self.incorrect = 0     # raised or failed its check
        self.inner_missed = 0  # finished correctly, but an inner CG solve missed its tolerance
        self.problems = []
        self.newton_iters = []

    def setup(self):
        t0 = perf_counter()
        self.workload.setup(self.inputs)
        return perf_counter() - t0

    def operation(self):
        """One operation; returns its wall time, which excludes the check."""
        self.probe.reset()
        output, error = None, None
        t0 = perf_counter()
        try:
            output = self.workload.run(self.inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        problems = [error] if error else self.workload.check(self.inputs, output, self.reference)
        hard = problems + self.probe.newton_problems()
        inner = self.probe.cg_problems()
        self.attempted += 1
        self.incorrect += bool(problems)
        self.failed += bool(hard)
        self.inner_missed += bool(inner and not hard)
        if hard or inner:
            self.problems.append(hard + inner)
        self.newton_iters.append(self.probe.newton_iters)
        return elapsed


def run_untraced(runner, seconds):
    runner.setup()
    runner.operation()  # warm-up
    setups, times = [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        setups.append(runner.setup())
        times.append(runner.operation())
    metrics = {
        "time_to_solution_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "newton_iters": statistics.median_low(runner.newton_iters),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    return metrics, {"time_to_solution_s": times, "setup_s": setups}, []


def run_traced(runner, seconds, tracer):
    import tracing

    runner.setup()
    runner.operation()  # warm-up
    untraced, traced, cycles, problems = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(runner.operation())
        with tracer.cycle(len(traced)) as spans:
            runner.workload.setup(runner.inputs)
            traced.append(runner.operation())
        metrics, layer_self, roots = tracing.cycle_metrics(spans)
        covered = sum(layer_self.values())
        if not abs(covered - roots) <= 1e-9 * roots:
            problems.append(f"layer self times sum to {covered!r}, root spans to {roots!r}")
        metrics["trace.self_sum_ratio"] = covered / roots
        metrics["layer_self_s"] = layer_self
        cycles.append(metrics)
    metrics = tracing.median_metrics([{k: v for k, v in c.items() if k != "layer_self_s"} for c in cycles])
    metrics["trace.time_to_solution_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    samples = {
        "untraced_time_to_solution_s": untraced,
        "traced_time_to_solution_s": traced,
        "layer_self_s": [c["layer_self_s"] for c in cycles],
    }
    return metrics, samples, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    spec = _load_spec()
    import_magfem()
    import tracing
    from workloads import WORKLOADS, SolverProbe

    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    probe = SolverProbe()
    probe.install()
    tracer = tracing.Tracer() if args.trace else None
    try:
        runner = Runner(workload, workload.inputs(args.seed, workdir), reference, probe)
        if tracer is None:
            metrics, samples, trace_problems = run_untraced(runner, args.seconds)
        else:
            metrics, samples, trace_problems = run_traced(runner, args.seconds, tracer)
    finally:
        probe.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": runner.incorrect == 0 and not trace_problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "warmup": "one set-up and one untimed, checked operation before timing",
        "fail_frac": {"value": (runner.failed + runner.inner_missed) / runner.attempted, "unit": "ratio"},
        "inner_solve_missed_ops": runner.inner_missed,
        "newton_iters": runner.newton_iters,
        "problems": runner.problems + trace_problems,
        "samples": samples,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")
    brief = {k: summary[k] for k in ("workload", "seed", "environment", "fail_frac")}
    brief["problems"] = summary["problems"][:3]
    brief["samples"] = {k: len(v) for k, v in samples.items()}
    brief["not_gated"] = {k: v for k, v in metrics.items() if k in SUMMARY_ONLY or k == "trace.self_sum_ratio"}
    print("perfbench " + json.dumps(brief))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
