"""Multigrid: prolongations, algebraic levels, V-cycle, Jacobi fallbacks."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, eigsh

import magfem as mf
from magfem import assembly, harness, multigrid, solver
from magfem.femspace import CoefficientVector, build_space

from conftest import galerkin_oracle, interpolate

PROLONGATION_TOL = 1e-12      # relative, max-norm
SYMMETRY_TOL = 1e-12          # relative to the largest preconditioner entry
SMOOTHER_BOUND = 2.0          # x += W (r - A x) converges iff lambda_max(W A) < 2
MAX_CG_PER_NEWTON_STEP = 20   # manufactured k=1, levels 1-3
SAME_SOLUTION_TOL = 1e-10     # relative curl norm, multigrid vs Jacobi
BASE_P1_DOFS_40 = 39 * 39     # interior vertices of generate_unit_square(40)
MAX_CG_PER_SOLVE_PARSED = 30  # P2 on parsed unit squares, n = 16-128 (measured 12-25)


def _dirichlet_on_line(mesh):
    """Mesh whose Dirichlet tag 1 covers the boundary on the line through its
    first boundary edge (tag 2 elsewhere), plus that line's linear function."""
    u, v = mesh.vertices[mesh.boundary_edges[0]]
    normal = np.array([u[1] - v[1], v[0] - u[0]])

    def line(x):
        return (np.atleast_2d(x) - u) @ normal

    ends = mesh.vertices[mesh.boundary_edges]
    on = np.all(np.abs(line(ends.reshape(-1, 2)).reshape(-1, 2)) < 1e-12, axis=1)
    tags = np.where(on, 1, 2)
    return mf.Mesh(mesh.vertices, mesh.triangles, mesh.region_tag, mesh.boundary_edges, tags), line


def test_only_refinement_sets_parent():
    base = mf.generate_unit_square(2)
    fine = mf.refine_uniform(base)
    assert fine.parent is base and base.parent is None
    assert mf.with_region_tags(fine, fine.region_tag).parent is None
    assert mf.parse_mesh(mf.serialize_mesh(fine)).parent is None


def _chain(space):
    """The hierarchy's spaces: P_p on each mesh down to the base, then P1 there."""
    meshes = [space.mesh]
    while meshes[-1].parent is not None:
        meshes.append(meshes[-1].parent)
    spaces = [build_space(m, space.degree, space.dirichlet_tags) for m in meshes]
    return spaces + [build_space(meshes[-1], 1, space.dirichlet_tags)]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("base", ["unit_square", "disc"])
def test_prolongation_maps_coarse_interpolant_to_fine_interpolant(base, degree):
    mesh = mf.generate_unit_square(3) if base == "unit_square" else harness.disc_mesh(2)
    mesh, line = _dirichlet_on_line(mesh)
    fine = build_space(mf.refine_uniform(mf.refine_uniform(mesh)), degree, {1})

    def poly(x):  # degree p, zero on the Dirichlet line
        x = np.atleast_2d(x)
        return line(x) * (1.0 + x[:, 0] - 2.0 * x[:, 1]) ** (degree - 1)

    steps = multigrid.hierarchy(fine)
    spaces = _chain(fine)
    assert len(steps) == (3 if degree > 1 else 2)
    for i, level in enumerate(steps):
        f = poly if spaces[i + 1].degree == degree else line  # P_p -> P1 step: linear
        want = interpolate(spaces[i], f).values
        got = level.P @ interpolate(spaces[i + 1], f).values
        assert np.max(np.abs(got - want)) <= PROLONGATION_TOL * np.max(np.abs(want))


def test_prolongation_rejects_a_fine_mesh_without_matching_parent():
    coarse = mf.generate_unit_square(3)
    refined = mf.refine_uniform(coarse)
    parsed = mf.parse_mesh(mf.serialize_mesh(refined))  # same mesh, no parent
    other = mf.refine_uniform(mf.generate_unit_square(4))  # a parent, but not coarse
    coarse_space = build_space(coarse, 2, {1})
    for mesh in (parsed, other):
        with pytest.raises(ValueError, match="not a uniform refinement"):
            multigrid.prolongation(build_space(mesh, 2, {1}), coarse_space)
    # an equal copy of the parent is accepted, as run_study's levels need
    copy = multigrid.prolongation(
        build_space(mf.refine_uniform(mf.generate_unit_square(3)), 2, {1}), coarse_space
    )
    own = multigrid.prolongation(build_space(refined, 2, {1}), coarse_space)
    assert (copy != own).nnz == 0


def _newton_iterate(problem):
    """The iterate after the first Newton step from zero."""
    history = []
    solver.newton_solve(problem, cfg=solver.NewtonConfig(max_iter=1), history=history)
    return CoefficientVector(problem.space, history[1])


def _state(case, order):
    """A Newton state on a refined mesh: the manufactured exact solution (deep
    in the nonlinear range), or pm_toy's first Newton iterate, where saturated
    iron makes the Hessian strongly anisotropic."""
    if case == "manufactured":
        bench = harness.manufactured_benchmark(base_n=2)
        problem = harness.problem_at_level(bench, 1, order=order)
        return problem, interpolate(problem.space, bench.exact_potential)
    problem = harness.problem_at_level(harness.pm_toy_benchmark(base_n=5), 1, order=order)
    return problem, _newton_iterate(problem)


def _hessian(case, order):
    problem, state = _state(case, order)
    return problem, assembly.assemble_hessian(problem, state)


def _vcycle(case, order):
    """The Hessian at `_state`, the V-cycle a Newton step builds for it, and
    its geometric levels."""
    problem, state = _state(case, order)
    levels = multigrid.hierarchy(problem.space)
    operators = assembly.assemble_hessian(problem, state, levels)
    return operators[0], multigrid.VCycle(operators, levels), levels


def _lambda_max(A, weights):
    root = sp.diags(np.sqrt(weights))
    return eigsh(root @ A @ root, k=1, which="LA", return_eigenvectors=False)[0]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("case", ["manufactured", "pm_toy"])
def test_vcycle_is_symmetric_positive_definite(case, order):
    A, vcycle, _ = _vcycle(case, order)
    M = np.column_stack([vcycle(e) for e in np.eye(A.shape[0])])
    scale = np.max(np.abs(M))
    assert np.max(np.abs(M - M.T)) <= SYMMETRY_TOL * scale
    assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("case", ["manufactured", "pm_toy"])
def test_smoother_converges_on_every_level(case, order):
    _, vcycle, _ = _vcycle(case, order)
    for A_level, weights, _, _ in vcycle.levels:
        assert _lambda_max(A_level, weights) < SMOOTHER_BOUND


def test_solve_cg_reads_the_finest_diagonal_once(monkeypatch):
    # solve_cg checks the diagonal and hands it to the smoother weights
    problem, state = _state("pm_toy", 1)
    levels = multigrid.hierarchy(problem.space)
    A, *coarse = assembly.assemble_hessian(problem, state, levels)
    rhs = -assembly.assemble_residual(problem, state)
    reads = []
    diagonal = type(A).diagonal
    monkeypatch.setattr(type(A), "diagonal", lambda M, k=0: reads.append(M is A) or diagonal(M, k))
    _, info = solver.solve_cg(A, rhs, levels=levels, coarse=coarse)
    assert info.preconditioner == "multigrid" and info.converged
    assert reads.count(True) == 1


def test_plain_damped_jacobi_would_diverge_on_saturated_p4():
    # why the smoother weights are capped: omega / a_ii alone fails here
    A, _, _ = _vcycle("pm_toy", 3)
    assert _lambda_max(A, multigrid.OMEGA / A.diagonal()) > SMOOTHER_BOUND


def test_cg_iterations_stay_flat_under_refinement():
    bench = harness.manufactured_benchmark()
    for level in (1, 2, 3):
        _, report = solver.newton_solve(harness.problem_at_level(bench, level, order=1))
        assert report.converged
        assert max(rec.cg_iters for rec in report.iterations) <= MAX_CG_PER_NEWTON_STEP


def _solve(mesh, order, dirichlet, law=None, **source):
    problem = assembly.Problem(
        mesh=mesh, order=order, materials={1: law or mf.brauer_reference()},
        dirichlet_tags=frozenset(dirichlet), **source,
    )
    coeffs, report = solver.newton_solve(problem)
    return problem, coeffs, report


_field = harness.manufactured_benchmark().hs_field


def _source(x):
    x = np.atleast_2d(x)
    return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2])


def _jacobi_solve(monkeypatch, mesh, order, dirichlet, **source):
    """The same solve with Jacobi-PCG: no hierarchy, so no V-cycle is built."""
    with monkeypatch.context() as m:
        m.setattr(multigrid, "hierarchy", lambda space: ())
        problem, coeffs, report = _solve(mesh, order, dirichlet, **source)
    assert report.preconditioner["kind"] == "jacobi"
    return problem, coeffs, report


def _assert_same_solution(problem, a_mg, a_jac):
    diff = assembly.curl_norm(problem, a_mg.values - a_jac.values)
    assert diff <= SAME_SOLUTION_TOL * assembly.curl_norm(problem, a_mg.values)


def test_hierarchy_of_parsed_mesh_is_the_p_step(monkeypatch):
    mesh = mf.parse_mesh(mf.serialize_mesh(mf.refine_uniform(mf.generate_unit_square(4))))
    assert mesh.parent is None
    problem, a_mg, report = _solve(mesh, 1, {1}, hs_field=_field)
    steps = multigrid.hierarchy(problem.space)
    assert [level.P.shape for level in steps] == [(225, 49)]
    assert report.converged
    assert report.preconditioner == {"kind": "multigrid", "levels": [225, 49]}
    _, a_jac, report_jac = _jacobi_solve(monkeypatch, mesh, 1, {1}, hs_field=_field)
    assert report_jac.converged
    _assert_same_solution(problem, a_mg, a_jac)


def test_hierarchy_is_empty_for_parentless_p1():
    mesh = mf.parse_mesh(mf.serialize_mesh(mf.refine_uniform(mf.generate_unit_square(4))))
    problem, _, report = _solve(mesh, 0, {1}, hs_field=_field)
    assert multigrid.hierarchy(problem.space) == ()
    assert report.converged
    assert report.preconditioner == {"kind": "jacobi", "levels": [problem.space.n_free]}


def test_hierarchy_is_empty_without_constrained_dofs():
    mesh = mf.refine_uniform(mf.generate_unit_square(4))
    # singular but consistent: Curl 1 = 0, so the load is orthogonal to the constants
    problem, _, report = _solve(mesh, 1, set(), mf.LinearLaw(1.0), hs_field=_source)
    assert not problem.space.constrained.any()
    assert multigrid.hierarchy(problem.space) == ()
    assert report.converged


def test_base_over_the_coarse_cap_gets_algebraic_levels(monkeypatch):
    mesh = mf.refine_uniform(mf.generate_unit_square(40))
    assert build_space(mesh.parent, 1, {1}).n_free == BASE_P1_DOFS_40 > multigrid.MAX_COARSE_DOFS
    source = dict(js_density=lambda x: np.full(len(x), 1e3))
    problem, a_mg, report = _solve(mesh, 0, {1}, **source)
    steps = multigrid.hierarchy(problem.space)
    assert [level.P.shape[1] for level in steps] == [BASE_P1_DOFS_40]
    vcycle = multigrid.VCycle(assembly.assemble_hessian(problem, a_mg, steps), steps)
    assert len(vcycle.levels) > len(steps)  # algebraic levels below the base
    assert vcycle.sizes[len(steps)] == BASE_P1_DOFS_40
    assert len(vcycle.inverse_factor) <= multigrid.MAX_COARSE_DOFS
    assert report.converged
    assert report.preconditioner == {"kind": "multigrid", "levels": vcycle.sizes}
    _, a_jac, report_jac = _jacobi_solve(monkeypatch, mesh, 0, {1}, **source)
    assert report_jac.converged
    _assert_same_solution(problem, a_mg, a_jac)


def test_multigrid_and_jacobi_give_the_same_solution(monkeypatch):
    refined = harness.mesh_at_level(harness.manufactured_benchmark(base_n=4), 2)
    copy = mf.Mesh(
        refined.vertices, refined.triangles, refined.region_tag,
        refined.boundary_edges, refined.boundary_tag,
    )
    assert refined.parent is not None and copy.parent is None
    problem, a_mg, report_mg = _solve(refined, 1, {1}, hs_field=_field)
    _, a_jac, report_jac = _jacobi_solve(monkeypatch, copy, 1, {1}, hs_field=_field)
    assert multigrid.hierarchy(problem.space) != ()
    assert report_mg.converged and report_jac.converged
    assert report_mg.n_iterations == report_jac.n_iterations
    _assert_same_solution(problem, a_mg, a_jac)


def test_indefinite_matrix_with_multigrid_raises_solver_error():
    # positive diagonal, but negative on smooth vectors: the Galerkin coarse
    # operator is indefinite
    mesh = mf.refine_uniform(mf.generate_unit_square(4))
    problem = assembly.Problem(
        mesh=mesh, order=0, materials={1: mf.LinearLaw(1.0)}, dirichlet_tags=frozenset({1}),
    )
    K = assembly.assemble_unit_stiffness(problem)
    A = (K - sp.diags(0.5 * K.diagonal())).tocsr()
    levels = multigrid.hierarchy(problem.space)
    coarse = galerkin_oracle(A, levels)
    with pytest.raises(solver.SolverError, match="not SPD"):
        solver.solve_cg(A, np.ones(A.shape[0]), levels=levels, coarse=coarse)


def _parsed_square_problem(n, order=1):
    """cli_io's problem: a linear law driven by a current on a parsed unit square."""
    mesh = mf.parse_mesh(mf.serialize_mesh(mf.generate_unit_square(n)))
    return assembly.Problem(
        mesh=mesh, order=order, materials={1: mf.LinearLaw(1000.0)},
        dirichlet_tags=frozenset({1}), js_density={1: 1e5},
    )


def _base_operator(case):
    """The base P1 Galerkin operator of a parsed P2 square's Hessian (over
    the coarse cap), or of pm_toy's saturated P3 Hessian on a refined mesh."""
    if case == "parsed":
        problem = _parsed_square_problem(32)
        A = assembly.assemble_hessian(problem, mf.zero_coefficients(problem.space))
    else:
        problem, A = _hessian("pm_toy", 2)
    return galerkin_oracle(A, multigrid.hierarchy(problem.space))[-1]


@pytest.mark.parametrize("case", ["parsed", "pm_toy"])
def test_aggregation_puts_every_row_in_exactly_one_aggregate(case):
    A = _base_operator(case)
    agg = multigrid.aggregate(A)
    assert agg.shape == (A.shape[0],) and agg.min() >= 0
    sizes = np.bincount(agg)
    assert sizes.min() >= 1 and len(sizes) < A.shape[0]
    T = (multigrid.aggregation_prolongation(A) != 0).astype(int)
    # the smoothed prolongator keeps each aggregate's tentative column
    assert np.all(T[np.arange(A.shape[0]), agg] == 1)


@pytest.mark.parametrize("case", ["parsed", "pm_toy"])
def test_aggregation_is_bit_identical_across_builds(case):
    first, second = _base_operator(case), _base_operator(case)
    assert np.array_equal(multigrid.aggregate(first), multigrid.aggregate(second))
    P1 = multigrid.aggregation_prolongation(first)
    P2 = multigrid.aggregation_prolongation(second)
    assert np.array_equal(P1.indptr, P2.indptr) and np.array_equal(P1.indices, P2.indices)
    assert P1.data.tobytes() == P2.data.tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_vcycle_with_algebraic_levels_is_symmetric_positive_definite(order, monkeypatch):
    monkeypatch.setattr(multigrid, "MAX_COARSE_DOFS", 8)  # aggregate below the base
    A, vcycle, steps = _vcycle("pm_toy", order)
    assert len(vcycle.levels) > len(steps)
    for A_level, weights, _, _ in vcycle.levels:
        assert _lambda_max(A_level, weights) < SMOOTHER_BOUND
    M = np.column_stack([vcycle(e) for e in np.eye(A.shape[0])])
    scale = np.max(np.abs(M))
    assert np.max(np.abs(M - M.T)) <= SYMMETRY_TOL * scale
    assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0


def test_cg_iterations_stay_bounded_on_parsed_meshes():
    for n in (16, 32, 64, 128):
        _, report = solver.newton_solve(_parsed_square_problem(n))
        assert report.converged
        assert report.preconditioner["kind"] == "multigrid"
        assert max(rec.cg_iters for rec in report.iterations) <= MAX_CG_PER_SOLVE_PARSED


def test_algebraic_levels_import_no_scipy_linear_algebra():
    # a fresh interpreter: this module itself imports eigsh
    code = (
        "import sys, magfem as mf\n"
        "from magfem import assembly, solver\n"
        "mesh = mf.parse_mesh(mf.serialize_mesh(mf.generate_unit_square(24)))\n"
        "problem = assembly.Problem(mesh=mesh, order=1, materials={1: mf.brauer_reference()},\n"
        "                           dirichlet_tags=frozenset({1}), js_density={1: 1e5})\n"
        "_, report = solver.newton_solve(problem)\n"
        "assert report.converged and len(report.preconditioner['levels']) > 2\n"
        "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules))\n"
    )
    src = str(pathlib.Path(mf.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stalled_aggregation_over_the_coarse_cap_factors_no_dense_matrix(monkeypatch):
    # off-diagonals at 0.01 sqrt(a_ii a_jj), below THETA: no strong coupling,
    # so aggregation keeps every one of the 1,200 rows
    n = 3 * multigrid.MAX_COARSE_DOFS
    diag = 1.0 + np.random.default_rng(0).random(n)
    off = -0.01 * np.sqrt(diag[:-1] * diag[1:])
    A = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    assert multigrid.aggregation_prolongation(A).shape == (n, n)
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(len(a)) or cholesky(a))
    vcycle = multigrid.VCycle((A,), ())
    assert max(factored, default=0) <= multigrid.MAX_COARSE_DOFS
    assert vcycle.inverse_factor is None and vcycle.sizes == [n]
    M = np.column_stack([vcycle(e) for e in np.eye(n)])
    assert np.max(np.abs(M - M.T)) <= SYMMETRY_TOL * np.max(np.abs(M))
    assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0
    rhs = np.ones(n)
    x, info = cg(A, rhs, rtol=1e-12, M=LinearOperator(A.shape, matvec=vcycle))
    assert info == 0
    assert np.linalg.norm(rhs - A @ x) <= 1e-10 * np.linalg.norm(rhs)


GALERKIN_TOL = 1e-13  # relative to the largest entry: element-built vs sparse product
COARSE_SOLVE_TOL = 1e-13  # relative: factored vs dense inverse, and backward error


def _galerkin_case(case):
    """Problems whose hierarchies cover every kind of geometric step."""
    if case == "pm_toy":  # P2 over two refinements, then P2 -> P1
        return harness.problem_at_level(harness.pm_toy_benchmark(), 2, order=1)
    if case == "manufactured":  # P4 over three refinements, then P4 -> P1
        return harness.problem_at_level(harness.manufactured_benchmark(), 3, order=3)
    if case == "parsed":  # no parent: the P2 -> P1 step alone
        return _parsed_square_problem(16)
    mesh = mf.generate_unit_square(1)  # six refinements: 4^6 > ELEMENT_BATCH children each
    for _ in range(6):
        mesh = mf.refine_uniform(mesh)
    return assembly.Problem(
        mesh=mesh, order=1, materials={1: mf.brauer_reference()},
        dirichlet_tags=frozenset({1}), js_density={1: 3e5},
    )


@pytest.mark.parametrize("state", ["zero", "newton"])
@pytest.mark.parametrize("case", ["pm_toy", "manufactured", "parsed", "deep"])
def test_element_built_operators_match_the_sparse_product(case, state):
    problem = _galerkin_case(case)
    levels = multigrid.hierarchy(problem.space)
    children = [len(level.tables) for level in levels]
    if case == "deep":
        assert problem.mesh.num_triangles == 8192
        assert 4**6 > assembly.ELEMENT_BATCH and children == [4] * 6 + [1]
    if case == "parsed":
        assert children == [1]
    coeffs = mf.zero_coefficients(problem.space)
    if state == "newton":
        coeffs = _newton_iterate(problem)
    operators = assembly.assemble_hessian(problem, coeffs, levels)
    assert operators[0].data.tobytes() == assembly.assemble_hessian(problem, coeffs).data.tobytes()
    oracle = galerkin_oracle(operators[0], levels)
    assert len(operators) == len(oracle) + 1
    for got, want in zip(operators[1:], oracle):
        assert got.shape == want.shape
        # the deep case's base P1 space has no free dof
        largest = np.abs(want.data).max(initial=0.0)
        assert np.abs((got - want).data).max(initial=0.0) <= GALERKIN_TOL * largest


@pytest.mark.parametrize("batch", [1, 7, 100])
def test_coarse_operators_do_not_depend_on_the_element_batch(batch, monkeypatch):
    mesh = mf.refine_uniform(mf.refine_uniform(mf.generate_unit_square(4)))
    problem = assembly.Problem(
        mesh=mesh, order=2, materials={1: mf.brauer_reference()}, dirichlet_tags=frozenset({1}),
    )
    levels = multigrid.hierarchy(problem.space)
    coeffs = CoefficientVector(
        problem.space, np.random.default_rng(3).normal(scale=0.1, size=problem.space.n_free)
    )
    whole = assembly.assemble_hessian(problem, coeffs, levels)
    assert problem.mesh.num_triangles <= assembly.ELEMENT_BATCH
    monkeypatch.setattr(assembly, "ELEMENT_BATCH", batch)  # rounded up to 16 fine elements
    batched = assembly.assemble_hessian(problem, coeffs, levels)
    for a, b in zip(whole, batched):
        assert a.data.tobytes() == b.data.tobytes()


def test_newton_runs_the_sparse_galerkin_product_only_on_aggregation_levels(monkeypatch):
    # VCycle's only sparse product R (A P) forms each aggregation level's
    # operator, so counting the aggregation prolongators counts the products
    products = []
    real = multigrid.aggregation_prolongation

    def counted(A):
        P = real(A)
        products.append(P)
        return P

    monkeypatch.setattr(multigrid, "aggregation_prolongation", counted)
    refined = harness.problem_at_level(harness.pm_toy_benchmark(), 1, order=1)
    _, report = solver.newton_solve(refined)
    assert report.converged and len(report.preconditioner["levels"]) == 3
    assert products == []  # geometric levels only: every operator from element matrices

    parsed = _parsed_square_problem(32)
    levels = multigrid.hierarchy(parsed.space)
    _, report = solver.newton_solve(parsed)
    assert report.converged
    algebraic = len(report.preconditioner["levels"]) - len(levels) - 1
    assert algebraic > 0
    assert len(products) == report.n_iterations * algebraic
    assert not any(P is level.P for P in products for level in levels)


@pytest.mark.parametrize("state", ["zero", "newton"])
def test_factored_coarsest_solve_matches_the_dense_inverse(state):
    problem = _galerkin_case("pm_toy")  # the benchmark's 361-row coarsest operator
    levels = multigrid.hierarchy(problem.space)
    coeffs = mf.zero_coefficients(problem.space)
    if state == "newton":
        coeffs = _newton_iterate(problem)
    operators = assembly.assemble_hessian(problem, coeffs, levels)
    vcycle = multigrid.VCycle(operators, levels)
    A = operators[-1].toarray()
    assert vcycle.sizes[-1] == len(A) == 361
    F = vcycle.inverse_factor
    assert np.array_equal(F, np.tril(F))
    dense = np.linalg.inv(np.linalg.cholesky(A))  # the dense inverse of the same factor
    want = dense.T @ dense
    assert np.abs(F.T @ F - want).max() <= COARSE_SOLVE_TOL * np.abs(want).max()
    r = np.random.default_rng(5).normal(size=len(A))
    x = F.T @ (F @ r)  # the cycle's coarsest solve: backward stable
    assert np.linalg.norm(A @ x - r) <= COARSE_SOLVE_TOL * np.linalg.norm(A, 2) * np.linalg.norm(x)


@pytest.mark.parametrize("n", [1, 5, 8, 37])
def test_lower_inverse_inverts_a_cholesky_factor(n):
    # sizes below, at and off a multiple of the block size
    G = np.random.default_rng(n).normal(size=(n, n))
    L = np.linalg.cholesky(G @ G.T + n * np.eye(n))
    X = multigrid._lower_inverse(L)
    assert np.array_equal(X, np.tril(X))
    assert np.abs(X @ L - np.eye(n)).max() <= 1e-13
