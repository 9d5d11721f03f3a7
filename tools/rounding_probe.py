"""Rounding probe: how often does criterion 03's energy sequence rise under noise?

    python3 tools/rounding_probe.py --seeds 12 [--src path/to/src]

Acceptance criterion 03 asks the recorded Newton energies of four
benchmark solves to decay exactly (``b <= a``). Whether they do can hang
on the last few ulps of a step's energy. This script reruns the same four
solves (same benchmarks, levels, degree and default ``NewtonConfig`` as
``tests/test_acceptance.py``) once unperturbed and once for each of N
seeds, with every ``multigrid.VCycle.inverse_factor`` (the inverse L^-1 of
the coarsest operator's Cholesky factor) multiplied entrywise by
``1 + 1e-15 G``, G standard normal from that seed. The coarsest solve
L^-T (L^-1 r) stays symmetric, and the perturbation moves only rounding.

For each benchmark it reports how many seeds made a recorded energy rise,
which seeds those were, the largest rise in ulps of the energy it rose
from, and the largest rise of the unperturbed run. ``--src`` imports
magfem from another source tree, so a parent commit and a change can be
probed with the same script. BLAS is pinned to one thread, as in the test
suite. The result is one JSON object on standard output; it is a report,
not a test.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

import numpy as np

#: Relative size of the perturbation of the coarsest inverse factor.
NOISE = 1e-15

#: (name, benchmark factory, level, degree): criterion 03's four solves.
SOLVES = (
    ("manufactured", "manufactured_benchmark", 1, 1),
    ("two_wire_disc", "two_wire_disc_benchmark", 0, 1),
    ("pm_toy", "pm_toy_benchmark", 0, 1),
    ("annulus_mapped", "annulus_mapped_benchmark", 1, 1),
)


def largest_rise_ulps(energies):
    """Largest rise b - a over consecutive energies, in ulps of a; 0 if none."""
    rises = [(b - a) / np.spacing(abs(a)) for a, b in zip(energies, energies[1:]) if b > a]
    return float(max(rises, default=0.0))


def solve_energies(problem, rng):
    """Recorded energies of a default Newton solve; noise on every coarsest
    inverse factor when `rng` is given."""
    from magfem import multigrid, solver

    real_init = multigrid.VCycle.__init__

    def perturbed_init(self, operators, levels):
        real_init(self, operators, levels)
        g = rng.standard_normal(self.inverse_factor.shape)
        self.inverse_factor = self.inverse_factor * (1.0 + NOISE * g)

    if rng is not None:
        multigrid.VCycle.__init__ = perturbed_init
    try:
        _, report = solver.newton_solve(problem)
    finally:
        multigrid.VCycle.__init__ = real_init
    if not report.converged:
        raise RuntimeError(f"solve did not converge ({report.failure})")
    return report.energies()


def probe(seeds):
    from magfem import harness  # from the tree that main() put on sys.path

    out = {}
    for name, factory, level, degree in SOLVES:
        problem = harness.problem_at_level(getattr(harness, factory)(), level, order=degree)
        rises = [largest_rise_ulps(solve_energies(problem, np.random.default_rng(s)))
                 for s in range(seeds)]
        out[name] = {
            "rises": sum(r > 0 for r in rises),
            "rising_seeds": [s for s, r in enumerate(rises) if r > 0],
            "max_rise_ulps": max(rises),
            "unperturbed_rise_ulps": largest_rise_ulps(solve_energies(problem, None)),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=12, help="number of noise seeds (default 12)")
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="source tree to import magfem from (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    print(json.dumps({"noise": NOISE, "seeds": args.seeds, "benchmarks": probe(args.seeds)}, indent=2))


if __name__ == "__main__":
    main()
