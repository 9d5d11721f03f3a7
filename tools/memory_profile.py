"""Memory profile: how much does each magfem phase allocate on top of its inputs?

    python3 tools/memory_profile.py [--src path/to/src]

Runs three solves and two studies in-process under ``tracemalloc``, which
also traces numpy's array buffers:

* ``cli_io``: ``magfem solve --fields`` on the 32,768-triangle file mesh of
  ``mesh gen --n 64`` and ``mesh refine`` (linear law, ``js`` source), as
  the benchmark's cli_io operation does; the two mesh commands run before
  tracing starts;
* ``pm_toy``: ``Problem`` construction and ``newton_solve`` of the pm_toy
  benchmark's level 2 at k = 1;
* ``manufactured``: the same for the manufactured benchmark's level 3 at
  k = 3; the refinements of both run before tracing starts;
* ``pm_toy_study``: ``run_study(pm_toy_benchmark(), order=1, levels=2)``,
  perfbench's pm_toy_k1 operation: three level solves, two of them at
  once, then the errors of each level pair;
* ``manufactured_study``: ``run_study(manufactured_benchmark(), order=3,
  levels=4)``, perfbench's manufactured_k3 operation: four P4 level
  solves, then each level's errors against the exact solution.

Every phase listed in ``PHASES`` is wrapped wherever a magfem module holds
it. For each phase the report gives the number of calls, its largest
``rise`` (the traced peak during a call minus the traced memory when the
call began: the transient a call adds on top of what was already live) and
its largest ``peak`` (the absolute traced peak during a call), in MiB
(2^20 bytes, the unit of the benchmark's ``peak_rss_mb``). A
phase's figures include the phases it calls, and while two threads run,
the other thread's allocations too. ``traced_peak_mb`` is the peak of the
whole run and ``peak_set_by`` the phases open when it was reached, one
``outer > inner`` chain per thread. ``--src`` imports magfem from another source tree,
so a parent commit and a change can be profiled with the same script. BLAS
is pinned to one thread, as in the test suite. The result is one JSON
object on standard output; it is a report, not a test.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import io
import json
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

MB = 2**20

#: (module, attribute) of every profiled phase; the classes Problem and
#: VCycle are profiled through their constructors.
PHASES = (
    ("mesh", "parse_mesh"),
    ("cli", "read_problem_config"),
    ("assembly", "Problem"),
    ("femspace", "build_space"),
    ("quadrature", "mapped_points"),
    ("femspace", "tabulate_curl"),
    ("assembly", "_csr_pattern"),
    ("solver", "newton_solve"),
    ("assembly", "assemble_energy"),
    ("assembly", "assemble_residual"),
    ("assembly", "residual_scale"),
    ("assembly", "assemble_hessian"),
    ("assembly", "_coarse_element_matrices"),
    ("multigrid", "hierarchy"),
    ("solver", "solve_cg"),
    ("multigrid", "VCycle"),
    ("assembly", "fields_at_quadrature"),
    ("cli", "_write_fields_csv"),
    ("harness", "_refinement_errors"),
    ("harness", "_manufactured_errors"),
    ("harness", "_degree_errors"),
)

#: cli_io's run config: the benchmark's linear law and current density.
CLI_CONFIG = """\
[problem]
k = 1
dirichlet_tags = 1

[material.1]
law = linear
nu = 1000.0

[source]
form = js
region.1 = 100000.0
"""


class PhaseMeter:
    """Largest transient and absolute traced peak of every wrapped call.

    All calls, on every thread, share tracemalloc's one peak counter. Each
    call's entry and exit is an event: under one lock, the peak since the
    last event is credited to every call open on any thread, since each was
    open throughout, and the counter is reset. So every call sees the peak
    of its whole duration, and the run's peak is credited to the calls open
    when it was reached (`peak_set_by`).
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.open = {}  # thread id -> [name, memory at entry, peak so far] per open call
        self.stats = {}
        self.peak = 0
        self.peak_set_by = []

    def _flush(self):
        peak = tracemalloc.get_traced_memory()[1]
        for stack in self.open.values():
            for frame in stack:
                frame[2] = max(frame[2], peak)
        if peak > self.peak:
            self.peak = peak
            self.peak_set_by = [" > ".join(f[0] for f in s) for s in self.open.values() if s]
        tracemalloc.reset_peak()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.lock:
                self._flush()
                current = tracemalloc.get_traced_memory()[0]
                stack = self.open.setdefault(threading.get_ident(), [])
                frame = [name, current, current]
                stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                with self.lock:
                    self._flush()
                    stack.pop()
                    top = frame[2]
                    stat = self.stats.setdefault(
                        name, {"calls": 0, "rise_mb": 0.0, "peak_mb": 0.0}
                    )
                    stat["calls"] += 1
                    stat["rise_mb"] = max(stat["rise_mb"], round((top - frame[1]) / MB, 1))
                    stat["peak_mb"] = max(stat["peak_mb"], round(top / MB, 1))

        return wrapped


@contextlib.contextmanager
def phases_traced():
    """Wrap every phase in every magfem module that holds it; yields the meter."""
    import magfem

    modules = [m for name, m in sys.modules.items() if name.startswith("magfem.")]
    meter = PhaseMeter()
    saved = []
    for module_name, attr in PHASES:
        original = getattr(getattr(magfem, module_name), attr)
        if isinstance(original, type):
            init = "__post_init__" if "__post_init__" in vars(original) else "__init__"
            saved.append((original, init, getattr(original, init)))
            setattr(original, init, meter.wrap(attr, getattr(original, init)))
            continue
        wrapped = meter.wrap(attr, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                saved.append((module, attr, original))
                setattr(module, attr, wrapped)
    tracemalloc.start()
    try:
        yield meter
    finally:
        tracemalloc.stop()
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def profile(run):
    with phases_traced() as meter:
        meter.wrap("whole", run)()
    whole = meter.stats.pop("whole")
    ranked = sorted(meter.stats.items(), key=lambda item: -item[1]["rise_mb"])
    return {
        "traced_peak_mb": whole["peak_mb"],
        "peak_set_by": meter.peak_set_by,
        "phases": dict(ranked),
    }


def cli_io(workdir):
    from magfem import cli

    def magfem(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"magfem {' '.join(argv[:2])} exited with {code}")

    coarse, fine = os.path.join(workdir, "coarse.mesh"), os.path.join(workdir, "fine.mesh")
    config = os.path.join(workdir, "run.ini")
    Path(config).write_text(CLI_CONFIG)
    magfem("mesh", "gen", "--n", "64", "--out", coarse)
    magfem("mesh", "refine", "--in", coarse, "--out", fine)
    return lambda: magfem(
        "solve", "--config", config, "--mesh", fine,
        "--out", os.path.join(workdir, "solve.json"),
        "--fields", os.path.join(workdir, "fields.csv"),
    )


def finest_level(factory, level, order):
    from magfem import assembly, harness, solver

    benchmark = getattr(harness, factory)()
    mesh = harness.mesh_at_level(benchmark, level)  # the refinements are not profiled

    def run():
        problem = assembly.Problem(
            mesh=mesh, order=order, materials=benchmark.materials,
            dirichlet_tags=benchmark.dirichlet_tags, hs_field=benchmark.hs_field,
            js_density=benchmark.js_density,
        )
        _, report = solver.newton_solve(problem)
        if not report.converged:
            raise RuntimeError(f"{factory} level {level} did not converge ({report.failure})")

    return run


def study(factory, order, levels):
    from magfem import harness

    benchmark = getattr(harness, factory)()
    return lambda: harness.run_study(benchmark, order=order, levels=levels)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="source tree to import magfem from (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import magfem.cli  # noqa: F401  (from the tree put on sys.path above)

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        out["cli_io"] = profile(cli_io(workdir))
    out["pm_toy"] = profile(finest_level("pm_toy_benchmark", 2, 1))
    out["manufactured"] = profile(finest_level("manufactured_benchmark", 3, 3))
    out["pm_toy_study"] = profile(study("pm_toy_benchmark", 1, 2))
    out["manufactured_study"] = profile(study("manufactured_benchmark", 3, 4))
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
