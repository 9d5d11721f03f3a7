"""Write the outputs a byte-identity check compares: studies, meshes, fields.

    python3 tools/study_outputs.py --out DIR [--src path/to/src]

Runs ``magfem`` in-process from the source tree ``--src`` and writes into
``--out``:

* ``study_<benchmark>_k<k>.csv`` for the four built-in benchmarks at
  ``--degree`` 0..3 (``--levels 2`` for k >= 2, the benchmark's default
  otherwise), with the per-level telemetry JSON in
  ``study_<benchmark>_k<k>/``;
* ``coarse.mesh`` from ``mesh gen``, ``fine.mesh`` from ``mesh refine``,
  and ``solve.json`` and ``fields.csv`` from ``solve --fields`` on the
  fine mesh, with the run config in ``run.ini``;
* ``linear.json`` and ``linear_fields.csv`` from ``solve --fields`` on the
  fine mesh with the config ``linear.ini``: perfbench's cli_io problem, a
  linear law driven by a ``js`` current;
* ``singular.json`` from ``solve`` with the config ``singular.ini``: no
  Dirichlet boundary, so the potential is fixed only up to a constant
  and the Newton Hessian is singular;
* ``mapped.json`` and ``mapped_fields.csv`` from ``solve --fields`` with
  the config ``mapped.ini``: the singular problem's iron and source on the
  quarter annulus, the image of a generated mesh under a ``[map]``;
* one ``material-check`` per law kind, whose output is in the log;
* ``log.txt``: every command with its exit code and standard output.

Commands run inside ``--out`` with relative paths, so two trees' outputs
differ only where the program's output does. Run it once on each tree and
compare the two directories with ``diff -r``. BLAS is pinned to one
thread, as in the test suite.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import sys
from pathlib import Path

BENCHMARKS = ("manufactured", "two_wire_disc", "pm_toy", "annulus_mapped")
DEGREES = range(4)

#: Nonlinear iron driven by a current density: the solve exercises the
#: Brauer law, the js source and the multigrid P_p -> P1 step on a file mesh.
SOLVE_CONFIG = """\
[problem]
k = 1
dirichlet_tags = 1

[material.1]
law = brauer

[source]
form = js
region.1 = 4000.0
"""

#: perfbench's cli_io problem: a linear law driven by a current density.
LINEAR_CONFIG = """\
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

#: One material-check per law kind; the linear kinds get non-default parameters.
MATERIAL_CHECKS = (
    ["brauer"],
    ["linear", "--params", "nu=1000"],
    ["permanent_magnet", "--params", "mx=1.1e6", "my=-3e5"],
    ["anisotropic", "--params", "n11=3", "n22=2", "n12=1"],
)

#: Nonlinear iron under a constant source field on a generated mesh, with
#: no Dirichlet boundary: a consistent, singular problem.
SINGULAR_CONFIG = """\
[problem]
k = 0
dirichlet_tags =

[mesh]
unit_square_n = 4

[material.1]
law = brauer

[source]
form = hs
hs_x = 1000.0
hs_y = 300.0
"""


#: The singular problem on a quarter annulus: with no Dirichlet boundary the
#: constant source field loads the potential, and the fields CSV holds the
#: mapped points and fields.
MAPPED_CONFIG = SINGULAR_CONFIG + """
[map]
name = quarter_annulus
r_inner = 0.5
r_outer = 1.0
"""


def commands():
    """Every magfem argv, in the order they run."""
    for name in BENCHMARKS:
        for k in DEGREES:
            stem = f"study_{name}_k{k}"
            levels = ["--levels", "2"] if k >= 2 else []
            yield ["study", "--benchmark", name, "--degree", str(k), *levels,
                   "--csv", f"{stem}.csv", "--telemetry", stem]
    yield ["mesh", "gen", "--n", "16", "--out", "coarse.mesh"]
    yield ["mesh", "refine", "--in", "coarse.mesh", "--out", "fine.mesh"]
    yield ["solve", "--config", "run.ini", "--mesh", "fine.mesh",
           "--out", "solve.json", "--fields", "fields.csv"]
    yield ["solve", "--config", "linear.ini", "--mesh", "fine.mesh",
           "--out", "linear.json", "--fields", "linear_fields.csv"]
    yield ["solve", "--config", "singular.ini", "--out", "singular.json"]
    yield ["solve", "--config", "mapped.ini", "--out", "mapped.json",
           "--fields", "mapped_fields.csv"]
    for check in MATERIAL_CHECKS:
        yield ["material-check", "--material", *check]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="directory to write into")
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="source tree to import magfem from (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from magfem import cli

    args.out.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out)
    Path("run.ini").write_text(SOLVE_CONFIG)
    Path("linear.ini").write_text(LINEAR_CONFIG)
    Path("singular.ini").write_text(SINGULAR_CONFIG)
    Path("mapped.ini").write_text(MAPPED_CONFIG)
    log = []
    for argv_ in commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv_)
        log.append(f"$ magfem {' '.join(argv_)}\nexit {code}\n{stdout.getvalue()}")
        print(f"exit {code}: magfem {' '.join(argv_[:3])}", file=sys.stderr)
    Path("log.txt").write_text("".join(log))


if __name__ == "__main__":
    main()
