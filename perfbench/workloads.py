"""The benchmark's workloads: inputs from a seed, set-up, one operation, its check.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.

* ``pm_toy_k1`` -- ``run_study(pm_toy_benchmark(), order=1, levels=2)``:
  levels 0-2 are solved (up to 25,281 free dofs, 29 Newton systems). It is
  bound by the inner Jacobi-PCG solve.
* ``manufactured_k3`` -- ``run_study(manufactured_benchmark(), order=3,
  levels=4)``: P4 elements up to 16,129 free dofs. It is bound by assembly,
  is the only workload checked against an exact solution, and the only one
  that backtracks in the line search.
* ``cli_io`` -- ``magfem mesh gen --n 64`` and ``mesh refine`` (32,768
  triangles, written and re-read as files), then ``magfem solve`` with a
  fields CSV for a single-region linear law driven by a ``js`` current. It
  is bound by parsing, space building and the fields writer.

The seed chooses the source polarity of the studies. The laws are even in
b, so flipping every source flips the solution and leaves every error,
count and iteration the same, bit for bit; one reference serves both. For
cli_io the seed scales the current density, and the energy of the linear
problem scales with its square.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random

from magfem import assembly, cli, harness, solver

from check import check_cli, check_study, count_lines


class SolverProbe:
    """Records every Newton and CG outcome by wrapping the solver's module globals.

    ``newton_solve`` drops ``CGInfo.converged``; wrapping ``solve_cg``, which
    it looks up as a module global, recovers it from outside.
    """

    def __init__(self):
        self.cg = []      # CGInfo of every inner solve
        self.newton = []  # NewtonReport of every Newton solve
        self._saved = None

    def install(self):
        solve_cg, newton_solve = solver.solve_cg, solver.newton_solve
        self._saved = (solve_cg, newton_solve)

        def probed_cg(*args, **kwargs):
            x, info = solve_cg(*args, **kwargs)
            self.cg.append(info)
            return x, info

        def probed_newton(*args, **kwargs):
            coeffs, report = newton_solve(*args, **kwargs)
            self.newton.append(report)
            return coeffs, report

        solver.solve_cg, solver.newton_solve = probed_cg, probed_newton

    def uninstall(self):
        solver.solve_cg, solver.newton_solve = self._saved

    def reset(self):
        self.cg.clear()
        self.newton.clear()

    @property
    def newton_iters(self):
        return sum(report.n_iterations for report in self.newton)

    def cg_problems(self):
        missed = [info for info in self.cg if not info.converged]
        if not missed:
            return []
        return [
            f"{len(missed)} of {len(self.cg)} inner CG solves missed their tolerance "
            f"(true residual {max(info.residual_norm for info in missed):.3e})"
        ]

    def newton_problems(self):
        failures = [r.failure for r in self.newton if not r.converged]
        return [f"{len(failures)} Newton solves did not converge: {failures}"] if failures else []


class Study:
    """A refinement study of a built-in benchmark through ``harness.run_study``."""

    def __init__(self, name, make_benchmark, order, levels):
        self.name = name
        self.make_benchmark = make_benchmark  # polarity (+1 or -1) -> Benchmark
        self.order = order
        self.levels = levels

    def inputs(self, seed, workdir, sign=None):
        if sign is None:
            sign = random.Random(seed).choice((1.0, -1.0))
        return {"sign": sign, "benchmark": self.make_benchmark(sign)}

    def solved_levels(self, benchmark):
        extra = 1 if benchmark.error_mode == "successive-refinement" else 0
        return range(self.levels + extra)

    def setup(self, inp):
        """Build every solved level's Problem and unit stiffness."""
        benchmark = inp["benchmark"]
        for level in self.solved_levels(benchmark):
            problem = harness.problem_at_level(benchmark, level, order=self.order)
            assembly.assemble_unit_stiffness(problem)

    def run(self, inp):
        rows = harness.run_study(inp["benchmark"], order=self.order, levels=self.levels)
        return [dataclasses.asdict(row) for row in rows]

    def check(self, inp, rows, reference):
        return check_study(self.name, rows, reference)


#: cli_io problem: reluctivity of the linear law (m/H) and the current
#: density (A/m^2) at scale 1
CLI_NU = 1000.0
CLI_JS = 1.0e5
CLI_MESH_N = 64

CLI_CONFIG = """\
[problem]
k = 1
dirichlet_tags = 1

[material.1]
law = linear
nu = {nu!r}

[source]
form = js
region.1 = {js!r}
"""


def _cli(argv):
    """Run ``magfem`` in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class CliIO:
    """Mesh files written and re-read by the CLI, then one ``solve`` with fields."""

    name = "cli_io"

    def inputs(self, seed, workdir, scale=None):
        if scale is None:
            scale = random.Random(seed).uniform(0.5, 2.0)
        paths = {
            key: os.path.join(workdir, name)
            for key, name in (
                ("coarse", "coarse.mesh"),
                ("fine", "fine.mesh"),
                ("config", "run.ini"),
                ("telemetry", "telemetry.json"),
                ("fields", "fields.csv"),
            )
        }
        with open(paths["config"], "w") as f:
            f.write(CLI_CONFIG.format(nu=CLI_NU, js=CLI_JS * scale))
        return {"scale": scale, **paths}

    def setup(self, inp):
        """``mesh gen`` and ``mesh refine``: the mesh file the solve reads."""
        for argv in (
            ["mesh", "gen", "--n", str(CLI_MESH_N), "--out", inp["coarse"]],
            ["mesh", "refine", "--in", inp["coarse"], "--out", inp["fine"]],
        ):
            code, err = _cli(argv)
            if code != 0:
                raise RuntimeError(f"magfem {' '.join(argv[:2])} exited with {code}: {err.strip()}")

    def run(self, inp):
        for key in ("telemetry", "fields"):
            if os.path.exists(inp[key]):
                os.remove(inp[key])
        code, err = _cli(
            [
                "solve",
                "--config", inp["config"],
                "--mesh", inp["fine"],
                "--out", inp["telemetry"],
                "--fields", inp["fields"],
            ]
        )
        return {"exit": code, "stderr": err}

    def check(self, inp, out, reference):
        telemetry = None
        if os.path.exists(inp["telemetry"]):
            with open(inp["telemetry"]) as f:
                telemetry = json.load(f)
        lines = count_lines(inp["fields"]) if os.path.exists(inp["fields"]) else 0
        problems = check_cli(out["exit"], telemetry, lines, inp["scale"], reference)
        if problems and out["stderr"].strip():
            problems.append("stderr: " + out["stderr"].strip())
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Study(
            "pm_toy_k1",
            lambda sign: harness.pm_toy_benchmark(remanence=sign * 1.3),
            order=1,
            levels=2,
        ),
        Study(
            "manufactured_k3",
            lambda sign: harness.manufactured_benchmark(peak_flux=sign * 1.5),
            order=3,
            levels=4,
        ),
        CliIO(),
    )
}
