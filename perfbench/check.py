"""Output checks against the reference made from the seed code.

Each check returns a list of problems; an empty list means the output is
correct. The checks compare what must not change exactly (element and dof
counts, CSV shape) and what a different but equally converged solver may
move within a tolerance tied to the solver's stopping tolerance:

* ``err_b`` and ``err_h`` may differ from the reference by at most
  ``ERR_RTOL_FACTOR * tol * ref + ERR_ATOL_FACTOR * tol``, where ``tol`` is the
  Newton stopping tolerance recorded in the reference. A final iterate that
  moves within that tolerance moves a relative L2 error by about ``tol``
  absolute (the absolute part, which decides the finest manufactured_k3
  rows). On the singular pm_toy problem the field error is amplified:
  stopping at 1e-12 instead of 1e-10 moved its ``err_h`` by 6e-9 relative,
  which the relative part covers more than ten times over. A 1 % change of
  any error is rejected on every row.
* ``eoc_b`` must lie in the README's documented band: 4 +- 0.1 for P4
  elements on the smooth manufactured problem, positive for pm_toy. pm_toy's
  ``eoc_h`` is negative at these levels and is not checked.
* Newton iteration counts are reported as a metric, not checked.
* cli_io: exit code 0, a converged solve, the energy within 1e-9 relative
  of the reference energy scaled by the square of the current scale (the
  law is linear, so the energy is quadratic in the current), and
  ``ne * nq + 1`` CSV lines.
"""

from __future__ import annotations

import math

ERR_RTOL_FACTOR = 1e3
ERR_ATOL_FACTOR = 5.0
ENERGY_RTOL = 1e-9

# per study workload: (eoc_b lower bound, eoc_b upper bound) on rows 1..
EOC_B_BANDS = {
    "manufactured_k3": (3.9, 4.1),
    "pm_toy_k1": (0.0, math.inf),
}


def error_allowance(ref_value, tol):
    return ERR_RTOL_FACTOR * tol * abs(ref_value) + ERR_ATOL_FACTOR * tol


def check_study(workload, rows, reference):
    """Compare study rows (dicts with level, ne, dof, err_b, eoc_b, err_h) to the reference."""
    ref = reference[workload]
    tol = reference["newton_tolerance"]
    problems = []
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    lo, hi = EOC_B_BANDS[workload]
    for row, want in zip(rows, ref["rows"]):
        level = want["level"]
        for key in ("level", "ne", "dof"):
            if row[key] != want[key]:
                problems.append(f"level {level}: {key} = {row[key]}, reference {want[key]}")
        for key in ("err_b", "err_h"):
            diff = abs(row[key] - want[key])
            if not diff <= error_allowance(want[key], tol):
                problems.append(
                    f"level {level}: {key} = {row[key]!r} differs from reference "
                    f"{want[key]!r} by {diff:.3e} > {error_allowance(want[key], tol):.3e}"
                )
        if row["eoc_b"] is not None and not lo < row["eoc_b"] < hi:
            problems.append(f"level {level}: eoc_b = {row['eoc_b']!r} outside ({lo}, {hi})")
    if any(row["eoc_b"] is None for row in rows[1:]):
        problems.append("missing eoc_b after the first level")
    return problems


def count_lines(path):
    """Number of newline-terminated lines in a file."""
    count = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            count += block.count(b"\n")
    return count


def check_cli(exit_code, telemetry, csv_lines, scale, reference):
    """Check one cli_io solve: exit code, telemetry JSON dict, CSV line count."""
    ref = reference["cli_io"]
    problems = []
    if exit_code != 0:
        problems.append(f"solve exited with code {exit_code}")
    if telemetry is None:
        return problems + ["no telemetry written"]
    if telemetry.get("converged") is not True:
        problems.append("solve did not converge")
    energy = telemetry.get("final", {}).get("energy")
    want = ref["energy"] * scale * scale
    if not isinstance(energy, float) or not abs(energy - want) <= ENERGY_RTOL * abs(want):
        problems.append(f"energy {energy!r}, expected {want!r} (reference x scale^2)")
    want_lines = ref["ne"] * ref["nq"] + 1
    if csv_lines != want_lines:
        problems.append(f"fields CSV has {csv_lines} lines, expected ne*nq+1 = {want_lines}")
    return problems
