import json
import os
import subprocess
import sys

import numpy as np
import pytest

import magfem as mf
from magfem import cli, geometry
from magfem.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main

BASE_CONFIG = """
[problem]
k = 1
dirichlet_tags = 1

[mesh]
unit_square_n = 4

[material.1]
law = brauer

[source]
form = none
"""

PM_CONFIG = """
[problem]
k = 1
dirichlet_tags = 1

[material.1]
law = permanent_magnet
nu0 = 795774.7154594767
mx = 0.0
my = 795774.0

[newton]
tol_increment = 1e-10
tol_residual = 1e-10
"""

ANNULUS_CONFIG = """
[problem]
k = 1
dirichlet_tags = 1

[mesh]
unit_square_n = 4

[material.1]
law = anisotropic
n11 = 3.0
n12 = 1.0
n22 = 2.0

[map]
name = quarter_annulus
r_inner = 0.5
r_outer = 1.0

[source]
form = hs
hs_x = 0.0
hs_y = 1.0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_writes_telemetry(tmp_path):
    cfg = _write(tmp_path, "run.ini", BASE_CONFIG)
    out = tmp_path / "tele.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["certified"]["gamma"] == 400.0
    assert doc["config"]["rho"] == 0.5


def test_solve_with_mesh_file_and_fields(tmp_path):
    mesh_path = tmp_path / "m.txt"
    mesh_path.write_text(mf.serialize_mesh(mf.generate_unit_square(3)))
    cfg = _write(tmp_path, "run.ini", PM_CONFIG)
    out = tmp_path / "t.json"
    fields = tmp_path / "f.csv"
    code = main(
        ["solve", "--config", cfg, "--mesh", str(mesh_path), "--out", str(out), "--fields", str(fields)]
    )
    assert code == EXIT_OK
    lines = fields.read_text().strip().splitlines()
    assert lines[0] == "element,qpoint,x,y,bx,by,hx,hy"
    assert len(lines) == 1 + 18 * 3  # ne * nq rows for the k=1 rule


def test_solve_annulus_mapped_config(tmp_path):
    cfg = _write(tmp_path, "ann.ini", ANNULUS_CONFIG)
    out = tmp_path / "t.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n_iterations"] == 1  # quadratic energy: one Newton step


def test_solve_missing_config_is_io_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"), "--out", "x"]) == EXIT_IO


JS_CONFIG = """
[problem]
k = 1
dirichlet_tags = 1

[mesh]
unit_square_n = 4

[material.1]
law = brauer

[source]
form = js
region.1 = 2000.0
"""


def test_solve_solver_failure_exit_code(tmp_path):
    cfg = _write(tmp_path, "run.ini", JS_CONFIG + "\n[newton]\nmax_iter = 1\n")
    out = tmp_path / "t.json"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == EXIT_SOLVER
    assert json.loads(out.read_text())["converged"] is False


def test_solve_js_source_converges(tmp_path):
    cfg = _write(tmp_path, "run.ini", JS_CONFIG)
    out = tmp_path / "t.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["n_iterations"] >= 1


def test_solve_rejects_bad_law(tmp_path):
    cfg = _write(tmp_path, "bad.ini", BASE_CONFIG.replace("law = brauer", "law = wrong"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "t.json")]) == EXIT_USAGE


def test_corrupt_mesh_file_is_io_error(tmp_path):
    cfg = _write(tmp_path, "run.ini", PM_CONFIG)
    mesh_path = tmp_path / "m.txt"
    mesh_path.write_text("$Nodes 2\n1 0 0\n")
    assert (
        main(["solve", "--config", cfg, "--mesh", str(mesh_path), "--out", str(tmp_path / "t.json")])
        == EXIT_IO
    )


def test_study_csv(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "--benchmark", "manufactured", "--degree", "1", "--levels", "2", "--csv", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,ne,dof,iter,err_b,eoc_b,err_h,eoc_h"
    assert len(lines) == 3


def test_study_unknown_benchmark(tmp_path):
    assert (
        main(["study", "--benchmark", "zzz", "--csv", str(tmp_path / "x.csv")]) == EXIT_USAGE
    )


def test_study_telemetry_dir(tmp_path):
    out = tmp_path / "study.csv"
    tdir = tmp_path / "tele"
    code = main(
        [
            "study", "--benchmark", "manufactured", "--degree", "1",
            "--levels", "2", "--csv", str(out), "--telemetry", str(tdir),
        ]
    )
    assert code == EXIT_OK
    assert sorted(p.name for p in tdir.iterdir()) == [
        "manufactured_level0.json",
        "manufactured_level1.json",
    ]


def test_study_telemetry_names_the_preconditioner(tmp_path):
    tdir = tmp_path / "tele"
    argv = ["study", "--benchmark", "manufactured", "--degree", "1", "--levels", "2",
            "--csv", str(tmp_path / "study.csv"), "--telemetry", str(tdir)]
    assert main(argv) == EXIT_OK
    for level in (0, 1):
        doc = json.loads((tdir / f"manufactured_level{level}.json").read_text())
        precond = doc["preconditioner"]
        assert precond["kind"] == "multigrid"
        # P2 on every refinement down to the base mesh, then P1 there
        assert len(precond["levels"]) == level + 2
        assert precond["levels"] == sorted(precond["levels"], reverse=True)


def test_solve_telemetry_names_the_preconditioner(tmp_path):
    # unit_square_n = 4 at k = 1: 49 free P2 dofs and 9 P1 dofs on the same mesh
    cfg = _write(tmp_path, "run.ini", JS_CONFIG)
    out = tmp_path / "t.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["preconditioner"] == {"kind": "multigrid", "levels": [49, 9]}


SINGULAR_CONFIG = """
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


def test_solve_without_dirichlet_boundary_converges(tmp_path):
    # every dof is free, so the Hessian is singular along the constants
    cfg = _write(tmp_path, "run.ini", SINGULAR_CONFIG)
    out = tmp_path / "t.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["converged"]
    # 25 free dofs: the coarsest solve alone, with no smoothed level
    assert doc["preconditioner"] == {"kind": "multigrid", "levels": [25]}
    assert "jacobi" not in doc["config"]["cg"]


def test_material_check_brauer(capsys):
    assert main(["material-check", "--material", "brauer"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "s_star" in out
    assert "gamma = 400" in out
    assert "L''   = " in out and "(sampled estimate; pair scan " in out


def test_material_check_with_params(capsys):
    code = main(
        ["material-check", "--material", "anisotropic", "--params", "n11=2", "n22=8"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma = 2" in out
    assert "L     = 8" in out


def test_material_check_unknown(capsys):
    assert main(["material-check", "--material", "unobtainium"]) == EXIT_USAGE


def test_mesh_gen_and_refine_round_trip(tmp_path):
    m1 = tmp_path / "m.txt"
    m2 = tmp_path / "m2.txt"
    assert main(["mesh", "gen", "--n", "3", "--out", str(m1)]) == EXIT_OK
    assert main(["mesh", "refine", "--in", str(m1), "--out", str(m2)]) == EXIT_OK
    mesh = mf.parse_mesh(m2.read_text())
    assert mesh.num_triangles == 4 * 18


def test_usage_error_exit_code():
    assert main(["solve"]) == EXIT_USAGE  # missing required arguments
    assert main([]) == EXIT_USAGE


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iter", "-1"),
        ("cg_rel_tol", "nan"),
        ("cg_rel_tol", "-1"),
        ("cg_max_iter", "0"),
        ("cg_max_iter", "-5"),
        ("max_backtracks", "-1"),
        ("tol_increment", "nan"),
        ("tol_residual", "-1"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "study"])
def test_out_of_range_newton_setting_is_a_usage_error(tmp_path, capsys, command, key, value):
    cfg = _write(tmp_path, "run.ini", JS_CONFIG + f"\n[newton]\n{key} = {value}\n")
    out = str(tmp_path / "out")
    if command == "solve":
        args = ["solve", "--config", cfg, "--out", out]
    else:
        args = ["study", "--benchmark", "manufactured", "--levels", "2", "--csv", out, "--config", cfg]
    assert main(args) == EXIT_USAGE
    assert f"{key} must be" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key", ["cg_jacobi", "cg_rel_tl"])
@pytest.mark.parametrize("command", ["solve", "study"])
def test_unknown_newton_key_is_a_usage_error(tmp_path, capsys, command, key):
    cfg = _write(tmp_path, "run.ini", JS_CONFIG + f"\n[newton]\n{key} = false\n")
    out = str(tmp_path / "out")
    if command == "solve":
        args = ["solve", "--config", cfg, "--out", out]
    else:
        args = ["study", "--benchmark", "manufactured", "--levels", "2", "--csv", out, "--config", cfg]
    assert main(args) == EXIT_USAGE
    assert f"unknown key {key}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_study_abort_writes_partial_csv_and_exits_2(tmp_path):
    cfg = _write(tmp_path, "hard.ini", "[newton]\nmax_iter = 1\n")
    out = tmp_path / "study.csv"
    code = main(
        [
            "study", "--benchmark", "manufactured", "--degree", "1",
            "--levels", "2", "--csv", str(out), "--config", cfg,
        ]
    )
    assert code == EXIT_SOLVER
    # a failed study has no rows: the header and the abort line only
    assert out.read_text().splitlines() == [
        "level,ne,dof,iter,err_b,eoc_b,err_h,eoc_h",
        "# aborted: manufactured level 0 did not converge (max_iter)",
    ]


def test_non_finite_newton_direction_exits_2(tmp_path, nan_newton_direction):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "--benchmark", "manufactured", "--degree", "1", "--levels", "2", "--csv", str(out)]
    )
    assert code == EXIT_SOLVER
    assert out.read_text().splitlines()[-1] == "# aborted: manufactured level 0 did not converge (non_finite)"
    cfg = _write(tmp_path, "run.ini", JS_CONFIG)
    telemetry = tmp_path / "t.json"
    assert main(["solve", "--config", cfg, "--out", str(telemetry)]) == EXIT_SOLVER
    assert json.loads(telemetry.read_text())["failure"] == "non_finite"


def test_ascent_newton_direction_exits_2(tmp_path, reversed_newton_direction):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "--benchmark", "manufactured", "--degree", "1", "--levels", "2", "--csv", str(out)]
    )
    assert code == EXIT_SOLVER
    assert out.read_text().splitlines()[-1] == "# aborted: manufactured level 0 did not converge (linear_solve)"
    cfg = _write(tmp_path, "run.ini", JS_CONFIG)
    telemetry = tmp_path / "t.json"
    assert main(["solve", "--config", cfg, "--out", str(telemetry)]) == EXIT_SOLVER
    assert json.loads(telemetry.read_text())["failure"] == "linear_solve"


def test_study_honors_newton_config(tmp_path):
    cfg = _write(
        tmp_path,
        "loose.ini",
        "[newton]\ntol_increment = 1e-3\ntol_residual = 1e-3\n",
    )
    out = tmp_path / "study.csv"
    code = main(
        [
            "study", "--benchmark", "manufactured", "--degree", "1",
            "--levels", "2", "--csv", str(out), "--config", cfg,
        ]
    )
    assert code == EXIT_OK
    rows = out.read_text().strip().splitlines()[1:]
    iters = [int(r.split(",")[3]) for r in rows]
    assert all(i < 7 for i in iters)  # looser tolerance stops earlier


def test_material_check_rejects_malformed_params():
    assert (
        main(["material-check", "--material", "brauer", "--params", "k1:3.8"])
        == EXIT_USAGE
    )


def test_mesh_refine_missing_file_is_io_error(tmp_path):
    assert (
        main(["mesh", "refine", "--in", str(tmp_path / "none.msh"), "--out", "x"])
        == EXIT_IO
    )


def test_mesh_refine_empty_mesh_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "empty.msh"
    path.write_text("$Nodes 0\n$Triangles 0\n$BoundaryEdges 0\n")
    code = main(["mesh", "refine", "--in", str(path), "--out", str(tmp_path / "out.msh")])
    assert code == EXIT_IO
    assert "mesh has no triangles" in capsys.readouterr().err


def test_js_source_with_map_solves(tmp_path):
    # the map folds into the quadrature weights, so a current density is
    # integrated over the physical domain like a source field
    cfg_text = ANNULUS_CONFIG.replace(
        "form = hs\nhs_x = 0.0\nhs_y = 1.0", "form = js\nregion.1 = 10.0"
    )
    assert "form = js" in cfg_text
    cfg = _write(tmp_path, "js.ini", cfg_text)
    out = tmp_path / "t.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["converged"] and doc["n_iterations"] == 1


LINEAR_JS_CONFIG = """
[problem]
k = 2
dirichlet_tags = 1

[mesh]
unit_square_n = 8

[material.1]
law = linear
nu = 1000.0

[source]
form = js
region.1 = 1e5
"""


def test_affine_map_scales_the_energy_by_sixteen(tmp_path):
    # x -> 2x: the Piola-mapped curls halve and the weights grow by J = 4, so
    # the stiffness is unchanged and the load of a current density is 4x;
    # the solution is then 4x and the energy -load.a/2 is 16x the unmapped one
    energies = []
    for name, text in (
        ("plain.ini", LINEAR_JS_CONFIG),
        ("mapped.ini", LINEAR_JS_CONFIG + "\n[map]\nname = affine\na11 = 2\na22 = 2\n"),
    ):
        out = tmp_path / f"{name}.json"
        assert main(["solve", "--config", _write(tmp_path, name, text), "--out", str(out)]) == EXIT_OK
        energies.append(json.loads(out.read_text())["final"]["energy"])
    plain, mapped = energies
    assert plain < 0.0
    assert mapped == pytest.approx(16.0 * plain, rel=1e-13)


@pytest.mark.parametrize(
    "section, message",
    [
        ("name = quarter_annulus\nr_outer = 1.0", "[map] needs r_inner"),
        ("name = affine\na11 = 2.0", "[map] needs a22"),
        ("name = affine\na11 = 2.0\na22 = nan", "[map] a22 must be finite"),
    ],
)
def test_solve_incomplete_map_is_usage_error(tmp_path, capsys, section, message):
    cfg = _write(tmp_path, "run.ini", LINEAR_JS_CONFIG + f"\n[map]\n{section}\n")
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "t.json")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key",
    [
        ("name = affine\na11 = 2.0\na22 = 2.0\na_12 = 5.0", "a_12"),
        ("name = quarter_annulus\nr_inner = 0.5\nr_outer = 1.0\na11 = 2.0", "a11"),
        ("name = identity\nr_inner = 0.5", "r_inner"),
    ],
)
def test_solve_unknown_map_key_is_usage_error(tmp_path, capsys, section, key):
    cfg = _write(tmp_path, "run.ini", LINEAR_JS_CONFIG + f"\n[map]\n{section}\n")
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "t.json")])
    assert code == EXIT_USAGE
    assert f"[map] unknown key {key}" in capsys.readouterr().err
    assert set(cli.MAP_KEYS) == set(geometry.BUILTIN_MAPS)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dirichlet_tags = 1", "dirichlet_tag = 2", "[problem] unknown key dirichlet_tag"),
        ("region.1 = 2000.0", "region.1 = 2000.0\nregoin.2 = 3", "[source] unknown key regoin.2"),
        ("form = js", "form = js\nhs_x = 1.0", "[source] unknown key hs_x for form 'js'"),
        ("region.1 = 2000.0", "region.1 = 2000.0\nregion.9 = 1e5", "[source] region.9: no triangle"),
    ],
)
def test_solve_unknown_problem_or_source_key_is_usage_error(tmp_path, capsys, old, new, message):
    # the unit square carries region 1 only, so region.9 names no triangle
    cfg = _write(tmp_path, "run.ini", JS_CONFIG.replace(old, new))
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "t.json")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_material_check_missing_required_param_names_it(capsys):
    code = main(["material-check", "--material", "anisotropic", "--params", "n22=2"])
    assert code == EXIT_USAGE
    assert "'n11'" in capsys.readouterr().err


def test_solve_config_missing_required_param_names_it(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", ANNULUS_CONFIG.replace("n11 = 3.0\n", ""))
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "t.json")])
    assert code == EXIT_USAGE
    assert "'n11'" in capsys.readouterr().err


def test_solve_overflowed_residual_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", JS_CONFIG.replace("region.1 = 2000.0", "region.1 = 1e300"))
    out = tmp_path / "t.json"
    with np.errstate(over="ignore"):
        code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == EXIT_SOLVER
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["failure"] == "non_finite"
    assert "non_finite" in capsys.readouterr().err


def test_solve_overflowing_trial_exits_2(tmp_path, capsys, overflowing_newton_direction):
    cfg = _write(tmp_path, "run.ini", JS_CONFIG.replace("region.1 = 2000.0", "region.1 = 1e-100"))
    out = tmp_path / "t.json"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == EXIT_SOLVER
    assert json.loads(out.read_text())["failure"] == "non_finite"
    assert capsys.readouterr().err.splitlines()[0] == "solver did not converge: non_finite"


def test_value_error_while_solving_is_not_a_usage_error(tmp_path, monkeypatch):
    # only reading input classifies a ValueError as usage; in a solve it is a bug
    def broken(*args, **kwargs):
        raise ValueError("a bug in the solver")

    monkeypatch.setattr(mf.solver, "newton_solve", broken)
    cfg = _write(tmp_path, "run.ini", JS_CONFIG)
    with pytest.raises(ValueError, match="a bug in the solver"):
        main(["solve", "--config", cfg, "--out", str(tmp_path / "t.json")])


@pytest.mark.parametrize("command", ["solve", "study"])
def test_config_without_section_header_is_usage_error(tmp_path, capsys, command):
    cfg = _write(tmp_path, "run.ini", "k = 1\n")
    if command == "solve":
        argv = ["solve", "--config", cfg, "--out", str(tmp_path / "t.json")]
    else:
        argv = ["study", "--benchmark", "manufactured", "--config", cfg,
                "--csv", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: File contains no section headers")


@pytest.mark.parametrize("flag, value", [("--levels", "1"), ("--degree", "4"), ("--degree", "-1")])
def test_study_rejects_bad_levels_and_degree(tmp_path, capsys, flag, value):
    argv = ["study", "--benchmark", "manufactured", "--csv", str(tmp_path / "x.csv"), flag, value]
    assert main(argv) == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_solve_overflowed_residual_prints_no_numpy_warning(tmp_path):
    # a fresh interpreter with numpy's default error handling and warnings shown
    cfg = _write(tmp_path, "run.ini", JS_CONFIG.replace("region.1 = 2000.0", "region.1 = 1e300"))
    src = os.path.dirname(os.path.dirname(mf.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "magfem.cli", "solve", "--config", cfg,
         "--out", str(tmp_path / "t.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == EXIT_SOLVER
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.splitlines()[0] == "solver did not converge: non_finite"


@pytest.mark.parametrize(
    "source, key",
    [
        ("form = hs\nhs_x = nan", "hs_x"),
        ("form = hs\nhs_y = -inf", "hs_y"),
        ("form = js\nregion.1 = inf", "region.1"),
    ],
)
def test_solve_non_finite_source_value_names_key(tmp_path, capsys, source, key):
    cfg = _write(tmp_path, "run.ini", BASE_CONFIG.replace("form = none", source))
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "t.json")])
    assert code == EXIT_USAGE
    assert f"[source] {key} must be finite" in capsys.readouterr().err


def test_material_check_rejects_non_finite_param(capsys):
    code = main(["material-check", "--material", "linear", "--params", "nu=nan"])
    assert code == EXIT_USAGE
    assert "'nu' must be finite" in capsys.readouterr().err


def test_solve_mesh_with_nan_vertex_is_io_error(tmp_path, capsys):
    text = mf.serialize_mesh(mf.generate_unit_square(2)).replace("\n1 0 0\n", "\n1 nan 0\n", 1)
    assert "\n1 nan 0\n" in text
    mesh_path = tmp_path / "m.txt"
    mesh_path.write_text(text)
    cfg = _write(tmp_path, "run.ini", PM_CONFIG)
    code = main(["solve", "--config", cfg, "--mesh", str(mesh_path), "--out", str(tmp_path / "t.json")])
    assert code == EXIT_IO
    assert "non-finite" in capsys.readouterr().err


def _magfem(hash_seed, *args):
    """Run the magfem command line in a fresh interpreter; fails on a nonzero exit."""
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    subprocess.run([sys.executable, "-m", "magfem.cli", *args], env=env, check=True,
                   capture_output=True, timeout=300)


def test_cli_outputs_are_deterministic(tmp_path):
    # two fresh processes with different hash seeds write byte-identical files
    cfg = _write(tmp_path, "run.ini", JS_CONFIG)
    outputs = []
    for seed in ("1", "2"):
        tele, fields, study = (tmp_path / f"{seed}.{ext}" for ext in ("json", "fields.csv", "study.csv"))
        study_tele = tmp_path / f"{seed}.telemetry"
        _magfem(seed, "solve", "--config", cfg, "--out", str(tele), "--fields", str(fields))
        _magfem(seed, "study", "--benchmark", "manufactured", "--degree", "1", "--levels", "2",
                "--csv", str(study), "--telemetry", str(study_tele))
        per_level = sorted(study_tele.iterdir())
        outputs.append([p.name for p in per_level] + [p.read_bytes() for p in (tele, fields, study, *per_level)])
    assert outputs[0] == outputs[1]
    assert outputs[0][:2] == ["manufactured_level0.json", "manufactured_level1.json"]
    assert all(outputs[0])
