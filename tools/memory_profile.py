"""Memory profile: how much does each magfem phase allocate on top of its inputs?

    python3 tools/memory_profile.py [--src path/to/src]

Runs three solves in-process under ``tracemalloc``, which also traces
numpy's array buffers:

* ``cli_io``: ``magfem solve --fields`` on the 32,768-triangle file mesh of
  ``mesh gen --n 64`` and ``mesh refine`` (linear law, ``js`` source), as
  the benchmark's cli_io operation does; the two mesh commands run before
  tracing starts;
* ``pm_toy``: ``Problem`` construction and ``newton_solve`` of the pm_toy
  benchmark's level 2 at k = 1;
* ``manufactured``: the same for the manufactured benchmark's level 3 at
  k = 3; the refinements of both run before tracing starts.

Every phase listed in ``PHASES`` is wrapped wherever a magfem module holds
it. For each phase the report gives the number of calls, its largest
``rise`` (the traced peak during a call minus the traced memory when the
call began: the transient a call adds on top of what was already live) and
its largest ``peak`` (the absolute traced peak during a call), in MiB
(2^20 bytes, the unit of the benchmark's ``peak_rss_mb``). A
phase's figures include the phases it calls. ``traced_peak_mb`` is the
peak of the whole solve. ``--src`` imports magfem from another source tree,
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

    Nested calls share tracemalloc's one peak counter: a call resets it on
    entry after handing the peak so far to its caller's frame, and passes
    its own peak up on exit, so every frame sees the peak of its whole call.
    """

    def __init__(self):
        self.stack = []  # [memory at entry, peak so far] per open call
        self.stats = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][1] = max(self.stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                if self.stack:
                    self.stack[-1][1] = max(self.stack[-1][1], top)
                stat = self.stats.setdefault(name, {"calls": 0, "rise_mb": 0.0, "peak_mb": 0.0})
                stat["calls"] += 1
                stat["rise_mb"] = max(stat["rise_mb"], round((top - frame[0]) / MB, 1))
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
    return {"traced_peak_mb": whole["peak_mb"], "phases": dict(ranked)}


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
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
