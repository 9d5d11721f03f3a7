"""Self-tests of the benchmark's output check and tracer.

    python3 -m pytest -q perfbench
"""

import copy
import json
from pathlib import Path

import pytest

import check
from run import import_magfem

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
STUDIES = ("pm_toy_k1", "manufactured_k3")


def rows(name):
    return copy.deepcopy(REFERENCE[name]["rows"])


@pytest.mark.parametrize("name", STUDIES)
def test_seed_output_passes(name):
    assert check.check_study(name, rows(name), REFERENCE) == []


@pytest.mark.parametrize("name", STUDIES)
def test_change_at_newton_tolerance_passes(name):
    tol = REFERENCE["newton_tolerance"]
    out = rows(name)
    for row in out:
        row["err_b"] += tol
        row["err_h"] -= tol
    assert check.check_study(name, out, REFERENCE) == []


def test_other_blas_thread_count_passes():
    # finest manufactured_k3 row as computed with two BLAS threads, whose
    # dot products sum in another order
    out = rows("manufactured_k3")
    out[-1].update(err_b=1.264638429923633e-07, err_h=3.4913623591076706e-07)
    assert check.check_study("manufactured_k3", out, REFERENCE) == []


@pytest.mark.parametrize("key", ["err_b", "err_h"])
@pytest.mark.parametrize("name", STUDIES)
def test_one_percent_error_change_fails_on_every_row(name, key):
    for level in range(len(REFERENCE[name]["rows"])):
        out = rows(name)
        out[level][key] *= 1.01
        problems = check.check_study(name, out, REFERENCE)
        assert problems and key in problems[0], (level, problems)


@pytest.mark.parametrize("key", ["ne", "dof"])
def test_count_mismatch_fails(key):
    out = rows("pm_toy_k1")
    out[1][key] += 1
    assert check.check_study("pm_toy_k1", out, REFERENCE)


def test_missing_level_fails():
    assert check.check_study("manufactured_k3", rows("manufactured_k3")[:-1], REFERENCE)


@pytest.mark.parametrize("name, eoc", [("manufactured_k3", 3.85), ("manufactured_k3", 4.15), ("pm_toy_k1", -0.01)])
def test_eoc_b_outside_band_fails(name, eoc):
    out = rows(name)
    out[-1]["eoc_b"] = eoc
    assert check.check_study(name, out, REFERENCE)


def test_negative_eoc_h_is_not_checked():
    out = rows("pm_toy_k1")
    assert out[-1]["eoc_h"] < 0
    assert check.check_study("pm_toy_k1", out, REFERENCE) == []


# -- cli_io ----------------------------------------------------------------

CLI_REF = {"cli_io": {"energy": -2.5, "ne": 4, "nq": 3}}


def write_fields(path, rows_count):
    path.write_text("element,qpoint,x,y,bx,by,hx,hy\n" + "0,0,0,0,0,0,0,0\n" * rows_count)
    return check.count_lines(path)


def telemetry(energy, converged=True):
    return {"converged": converged, "final": {"energy": energy}}


def test_cli_correct_output_passes(tmp_path):
    lines = write_fields(tmp_path / "f.csv", 12)
    assert check.check_cli(0, telemetry(-2.5 * 1.3**2), lines, 1.3, CLI_REF) == []


def test_cli_missing_row_fails(tmp_path):
    lines = write_fields(tmp_path / "f.csv", 11)
    assert check.check_cli(0, telemetry(-2.5 * 1.3**2), lines, 1.3, CLI_REF)


def test_cli_energy_not_scaling_with_current_squared_fails(tmp_path):
    lines = write_fields(tmp_path / "f.csv", 12)
    assert check.check_cli(0, telemetry(-2.5 * 1.3), lines, 1.3, CLI_REF)
    assert check.check_cli(0, telemetry(-2.5 * 1.3**2 * (1 + 1e-8)), lines, 1.3, CLI_REF)


def test_cli_failed_solve_fails(tmp_path):
    lines = write_fields(tmp_path / "f.csv", 12)
    assert check.check_cli(2, telemetry(-2.5), lines, 1.0, CLI_REF)
    assert check.check_cli(0, telemetry(-2.5, converged=False), lines, 1.0, CLI_REF)
    assert check.check_cli(0, None, lines, 1.0, CLI_REF)


# -- tracer ----------------------------------------------------------------


def test_traced_cycle_accounts_for_every_layer_and_restores_names():
    import_magfem()
    import tracing
    from magfem import assembly, harness, materials, solver

    originals = (solver.solve_cg, harness.refine_uniform, assembly.mapped_points, materials.BrauerLaw.dw)
    tracer = tracing.Tracer()
    benchmark = harness.manufactured_benchmark(base_n=2)
    with tracer.cycle(0) as spans:
        harness.run_study(benchmark, order=1, levels=2)
    assert (solver.solve_cg, harness.refine_uniform, assembly.mapped_points, materials.BrauerLaw.dw) == originals

    metrics, layer_self, roots = tracing.cycle_metrics(spans)
    assert [s[tracing.NAME] for s in spans if s[tracing.PARENT] < 0] == ["harness.run_study"]
    assert sum(layer_self.values()) == pytest.approx(roots, rel=1e-12)
    assert set(layer_self) == {"harness", "mesh", "quadrature", "femspace", "materials", "assembly", "solver"}
    assert metrics["solver.cg_solves"] == metrics["assembly.hessian_calls"] > 0
    assert metrics["mesh.refine_calls"] == 1
    assert metrics["solver.cg_unconverged"] == 0
