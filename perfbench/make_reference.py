"""Write perfbench/reference.json from the current source tree.

    python3 perfbench/make_reference.py

Run it only on code whose outputs are known to be right; the committed
reference was made from the seed code. It solves each workload once at
polarity +1 and current scale 1 and records what the output check compares,
together with the Newton tolerance the check's allowances scale with.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import BENCH_DIR, import_magfem

import_magfem()

from magfem import mesh, quadrature, solver  # noqa: E402

from workloads import WORKLOADS, SolverProbe  # noqa: E402


def main():
    probe = SolverProbe()
    probe.install()
    reference = {"newton_tolerance": solver.NewtonConfig().tol_increment}
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=BENCH_DIR / "out")
    try:
        for name in ("pm_toy_k1", "manufactured_k3"):
            study = WORKLOADS[name]
            probe.reset()
            rows = study.run(study.inputs(0, workdir, sign=1.0))
            reference[name] = {
                "rows": rows,
                "newton_iters": probe.newton_iters,
                "cg_iters": sum(info.iterations for info in probe.cg),
            }
        cli_io = WORKLOADS["cli_io"]
        inp = cli_io.inputs(0, workdir, scale=1.0)
        cli_io.setup(inp)
        probe.reset()
        out = cli_io.run(inp)
        if out["exit"] != 0:
            sys.exit(f"cli_io solve failed: {out['stderr']}")
        with open(inp["telemetry"]) as f:
            telemetry = json.load(f)
        with open(inp["fine"]) as f:
            ne = mesh.parse_mesh(f.read()).num_triangles
        reference["cli_io"] = {
            "energy": telemetry["final"]["energy"],
            "ne": ne,
            "nq": len(quadrature.rule_for_degree(2)),  # k = 1: exactness 2k
            "newton_iters": probe.newton_iters,
            "cg_iters": sum(info.iterations for info in probe.cg),
        }
    finally:
        probe.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
