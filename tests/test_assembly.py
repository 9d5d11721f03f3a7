import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import magfem as mf
from magfem.assembly import (
    Problem,
    ProblemConfigError,
    assemble_energy,
    assemble_hessian,
    assemble_residual,
    assemble_unit_stiffness,
)
from magfem import assembly
from magfem.femspace import CoefficientVector, build_space, tabulate_curl, tabulate_values
from magfem.materials import NU0

from conftest import integrate_against_curls, map_jacobians, piola_curls, rng

BRAUER_W0 = 3.8 / (2 * 2.17)  # profile value at zero field


def _problem(law, n=2, order=1, hs=None, js=None):
    return Problem(
        mesh=mf.generate_unit_square(n),
        order=order,
        materials={1: law},
        dirichlet_tags=frozenset({1}),
        hs_field=hs,
        js_density=js,
    )


def _random_coeffs(problem, scale=0.25, seed=0):
    return CoefficientVector(
        problem.space, rng(seed).normal(scale=scale, size=problem.space.n_free)
    )


def test_zero_energy_for_linear_law_at_zero():
    problem = _problem(mf.LinearLaw(2.0))
    assert assemble_energy(problem, mf.zero_coefficients(problem.space)) == 0.0


def test_brauer_energy_offset_at_zero(brauer_law):
    # w(0) = k1/(2 k2) per unit area; the unit square has area 1
    problem = _problem(brauer_law)
    W = assemble_energy(problem, mf.zero_coefficients(problem.space))
    assert W == pytest.approx(BRAUER_W0, rel=1e-13)


def test_permanent_magnet_zero_field_energy():
    problem = _problem(mf.LinearLaw(NU0, (0.0, 1e6)))
    assert assemble_energy(problem, mf.zero_coefficients(problem.space)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_missing_material_rejected():
    with pytest.raises(ProblemConfigError):
        Problem(
            mesh=mf.generate_unit_square(1),
            order=1,
            materials={2: mf.LinearLaw(1.0)},
            dirichlet_tags=frozenset({1}),
        )


def test_both_sources_rejected():
    with pytest.raises(ProblemConfigError):
        _problem(mf.LinearLaw(1.0), hs=lambda x: np.zeros((len(x), 2)), js=lambda x: np.zeros(len(x)))


def test_residual_is_energy_gradient(brauer_law):
    # central-difference oracle at a random state
    problem = _problem(brauer_law, n=2, order=1)
    coeffs = _random_coeffs(problem, seed=1)
    res = assemble_residual(problem, coeffs)
    eps = 1e-6 * (1.0 + np.linalg.norm(coeffs.values))
    fd = np.empty_like(res)
    for i in range(len(res)):
        e = np.zeros_like(coeffs.values)
        e[i] = eps
        wp = assemble_energy(problem, CoefficientVector(problem.space, coeffs.values + e))
        wm = assemble_energy(problem, CoefficientVector(problem.space, coeffs.values - e))
        fd[i] = (wp - wm) / (2 * eps)
    assert np.linalg.norm(res - fd) <= 1e-6 * (1.0 + np.linalg.norm(res))


def test_residual_at_zero_is_minus_load():
    hs = lambda x: np.column_stack([np.sin(x[:, 1]), x[:, 0]])
    problem = _problem(mf.LinearLaw(3.0), n=3, hs=hs)
    res = assemble_residual(problem, mf.zero_coefficients(problem.space))
    # dw(0) = 0, so the residual is exactly the negated load vector
    wq = problem.rule.weights[None, :] * problem.space.element_areas[:, None]
    curls = tabulate_curl(problem.space, problem.rule)
    hs_vals = hs(problem.points.reshape(-1, 2)).reshape(problem.points.shape)
    cell = np.einsum("eq,eqi,eqli->el", wq, hs_vals, curls)
    load = np.zeros(problem.space.num_dofs)
    np.add.at(load, problem.space.conn.ravel(), cell.ravel())
    assert np.allclose(res, -load[~problem.space.constrained], atol=1e-14)
    assert np.array_equal(res, -problem.load)


def test_hessian_matches_residual_differences(brauer_law):
    problem = _problem(brauer_law, n=2, order=1)
    coeffs = _random_coeffs(problem, seed=2)
    H = assemble_hessian(problem, coeffs).toarray()
    eps = 1e-6 * (1.0 + np.linalg.norm(coeffs.values))
    for j in range(H.shape[0]):
        e = np.zeros_like(coeffs.values)
        e[j] = eps
        rp = assemble_residual(problem, CoefficientVector(problem.space, coeffs.values + e))
        rm = assemble_residual(problem, CoefficientVector(problem.space, coeffs.values - e))
        fd_col = (rp - rm) / (2 * eps)
        assert np.linalg.norm(H[:, j] - fd_col) <= 1e-5 * (1.0 + np.linalg.norm(H[:, j]))


def test_hessian_symmetric(brauer_law):
    problem = _problem(brauer_law, n=3, order=2)
    coeffs = _random_coeffs(problem, seed=3)
    H = assemble_hessian(problem, coeffs)
    asym = np.abs((H - H.T).toarray()).max()
    assert asym <= 1e-12 * np.abs(H.toarray()).max()


def test_linear_hessian_is_nu_times_stiffness():
    nu = 2.7
    problem = _problem(mf.LinearLaw(nu), n=3, order=2)
    coeffs = _random_coeffs(problem, seed=4)
    H = assemble_hessian(problem, coeffs)
    K = assemble_unit_stiffness(problem)
    assert np.abs((H - nu * K).toarray()).max() <= 1e-12 * nu * np.abs(K.toarray()).max()


def test_hessian_spectrum_between_material_bounds(brauer_law):
    problem = _problem(brauer_law, n=2, order=1)
    coeffs = _random_coeffs(problem, scale=0.4, seed=5)
    H = assemble_hessian(problem, coeffs).toarray()
    K = assemble_unit_stiffness(problem).toarray()
    eig_H = np.linalg.eigvalsh(H)
    eig_K = np.linalg.eigvalsh(K)
    assert eig_H[0] >= brauer_law.gamma * eig_K[0] * (1 - 1e-10)
    assert eig_H[-1] <= brauer_law.lipschitz * eig_K[-1] * (1 + 1e-10)


def test_quadrature_terms_exact_for_polynomial_data():
    # linear law, hs in P1 per element: <., .>_h terms equal exact integrals;
    # cross-check the load vector against per-element closed forms
    nu = 1.0
    hs = lambda x: np.column_stack([x[:, 1], 2.0 * x[:, 0]])
    problem = _problem(mf.LinearLaw(nu), n=1, order=1, hs=hs)
    res = assemble_residual(problem, mf.zero_coefficients(problem.space))

    # p=2 space on the 2-triangle unit square; integrate hs . Curl phi_i
    # analytically with the conical oracle at high degree
    from conftest import conical_rule
    from magfem.femspace import tabulate_curl

    pts, wts = conical_rule(6)

    class _R:
        degree = 99
        points = pts
        weights = wts

    curls = tabulate_curl(problem.space, _R)
    barycentric = np.column_stack([1.0 - pts.sum(axis=1), pts])  # (nq, 3)
    mapped = np.einsum("qk,nki->nqi", barycentric, problem.mesh.vertices[problem.mesh.triangles])
    hs_vals = hs(mapped.reshape(-1, 2)).reshape(mapped.shape)
    wq = wts[None, :] * problem.space.element_areas[:, None]
    cell = np.einsum("eq,eqi,eqli->el", wq, hs_vals, curls)
    load = np.zeros(problem.space.num_dofs)
    np.add.at(load, problem.space.conn.ravel(), cell.ravel())
    assert np.allclose(res, -load[~problem.space.constrained], atol=1e-13)


def test_js_dict_source_matches_callable():
    region_value = 1700.0
    problem_dict = _problem(mf.LinearLaw(1.0), n=2, js={1: region_value})
    problem_call = _problem(mf.LinearLaw(1.0), n=2, js=lambda x: np.full(len(x), region_value))
    c = _random_coeffs(problem_dict, seed=6)
    c2 = CoefficientVector(problem_call.space, c.values)
    assert assemble_energy(problem_dict, c) == pytest.approx(
        assemble_energy(problem_call, c2), rel=1e-14
    )
    assert np.allclose(
        assemble_residual(problem_dict, c), assemble_residual(problem_call, c2), rtol=1e-14
    )


def test_galerkin_orthogonality_at_solution(small_brauer_problem):
    coeffs, report = mf.newton_solve(small_brauer_problem)
    res = assemble_residual(small_brauer_problem, coeffs)
    first = report.iterations[0].residual_norm
    assert np.linalg.norm(res) <= 1e-9 * first


def test_assembled_matrix_deterministic(brauer_law):
    problem = _problem(brauer_law, n=3, order=2)
    coeffs = _random_coeffs(problem, seed=7)
    H1 = assemble_hessian(problem, coeffs)
    H2 = assemble_hessian(problem, coeffs)
    assert (H1 != H2).nnz == 0
    assert np.array_equal(H1.data, H2.data)


def _reference_operator(problem, nu_d):
    """The four-operand einsum and a COO-to-CSR scatter of the element matrices."""
    space = problem.space
    curls = piola_curls(problem, problem.rule)  # (ne, nq, nl, 2)
    cell = np.einsum("eq,eqli,eqij,eqmj->elm", problem.wq, curls, nu_d, curls)
    nl = space.n_local
    free = space.free_index[space.conn]
    rows = np.repeat(free[:, :, None], nl, axis=2)
    cols = np.repeat(free[:, None, :], nl, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    n = space.n_free
    mat = sp.coo_matrix((cell[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _kernel_problem(case, order, brauer_law):
    from magfem.harness import annulus_mapped_benchmark, pm_toy_benchmark, problem_at_level

    if case == "brauer":
        return _problem(brauer_law, n=3, order=order)
    if case == "pm_toy":  # several regions, magnets
        return problem_at_level(pm_toy_benchmark(), 0, order=order)
    if case == "annulus":  # a domain map and an anisotropic d2w
        return problem_at_level(annulus_mapped_benchmark(base_n=3), 0, order=order)
    return Problem(  # no constrained dof
        mesh=mf.generate_unit_square(3),
        order=order,
        materials={1: brauer_law},
        dirichlet_tags=frozenset(),
    )


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("case", ["brauer", "pm_toy", "annulus", "unconstrained"])
def test_operators_match_einsum_scatter_reference(case, order, brauer_law):
    problem = _kernel_problem(case, order, brauer_law)
    coeffs = _random_coeffs(problem, scale=0.1, seed=order)
    local = coeffs.full()[problem.space.conn]
    b = np.einsum("el,eqli->eqi", local, piola_curls(problem, problem.rule))
    nu_d = assembly._material_apply(problem, "d2w", b)
    ne, nq = problem.wq.shape
    for mat, ref in (
        (assemble_hessian(problem, coeffs), _reference_operator(problem, nu_d)),
        (
            assemble_unit_stiffness(problem),
            _reference_operator(problem, np.broadcast_to(np.eye(2), (ne, nq, 2, 2))),
        ),
    ):
        assert mat.shape == ref.shape == (problem.space.n_free,) * 2
        assert np.array_equal(mat.indptr, ref.indptr)
        assert np.array_equal(mat.indices, ref.indices)
        assert np.array_equal(problem.indptr, ref.indptr)
        assert np.array_equal(problem.indices, ref.indices)
        assert np.abs(mat.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
    for lo, hi in zip(problem.indptr[:-1], problem.indptr[1:]):
        assert np.all(np.diff(problem.indices[lo:hi]) > 0)
    if case == "unconstrained":
        assert problem.space.n_free == problem.space.num_dofs
        assert problem.slots.max() < len(problem.indices)  # no dummy slot used
    else:
        assert problem.slots.max() == len(problem.indices)  # the dummy slot
    assert problem.slots.dtype == problem.indices.dtype == problem.indptr.dtype == np.int32
    again = assemble_hessian(problem, coeffs)
    assert np.array_equal(again.data, assemble_hessian(problem, coeffs).data)


def test_scipy_operations_leave_the_pattern_alone(brauer_law):
    problem = _problem(brauer_law, n=3, order=2)
    pattern = {name: getattr(problem, name).copy() for name in ("slots", "indices", "indptr")}
    H = assemble_hessian(problem, _random_coeffs(problem, seed=8))
    assert H.has_canonical_format or not (
        np.shares_memory(H.indices, problem.indices) or np.shares_memory(H.indptr, problem.indptr)
    )
    v = rng(9).normal(size=H.shape[0])
    H @ v
    H.T.tocsr().sort_indices()
    H.diagonal()
    H + H
    H.tocsr().sum_duplicates()
    H.sum_duplicates()
    H.eliminate_zeros()
    H.data *= 2.0
    for name, before in pattern.items():
        assert np.array_equal(getattr(problem, name), before)
        assert not getattr(problem, name).flags.writeable


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("bench", ["brauer", "pm_toy"])
def test_curl_norm_equals_unit_stiffness_form(bench, order, brauer_law):
    # Newton's increment norm is the quadrature sum of |Curl v|^2; the unit
    # stiffness uses the same rule, which is exact for it (P1-P4)
    from magfem.harness import pm_toy_benchmark, problem_at_level

    if bench == "pm_toy":
        problem = problem_at_level(pm_toy_benchmark(), 0, order=order)
    else:
        problem = _problem(brauer_law, n=3, order=order)
    v = rng(order).normal(size=problem.space.n_free)
    K = assemble_unit_stiffness(problem)
    assert mf.curl_norm(problem, v) ** 2 == pytest.approx(v @ (K @ v), rel=1e-12)


def _state(obj):
    """Identity of every attribute, and of the items of dict attributes."""
    return {
        name: (id(value), {k: id(x) for k, x in value.items()} if isinstance(value, dict) else None)
        for name, value in vars(obj).items()
    }


def _arrays(obj):
    for name, value in vars(obj).items():
        if isinstance(value, dict):
            yield from ((f"{name}[{k}]", x) for k, x in value.items() if isinstance(x, np.ndarray))
        elif isinstance(value, np.ndarray):
            yield name, value


@pytest.mark.parametrize("source", ["hs", "js"])
def test_problem_is_complete_and_read_only_after_construction(source, brauer_law):
    from magfem.harness import _error_rule

    samples = []  # caller-owned source arrays keep their own flags

    def hs(x):
        samples.append(np.full((len(x), 2), 20.0))
        return samples[-1]

    if source == "hs":
        problem = _problem(brauer_law, n=3, order=1, hs=hs)
        assert samples[0].flags.writeable
    else:
        problem = _problem(brauer_law, n=3, order=1, js={1: 50.0})
    before = (_state(problem), _state(problem.space))
    coeffs, report = mf.newton_solve(problem)
    assert report.converged
    mf.fields_at_quadrature(problem, coeffs, rule=_error_rule(problem.order))
    assert (_state(problem), _state(problem.space)) == before
    arrays = list(_arrays(problem)) + list(_arrays(problem.space))
    assert {"curls", "points", "load", "wq", "conn"} <= {name for name, _ in arrays}
    assert [name for name, arr in arrays if arr.flags.writeable] == []
    assert not any(hasattr(problem, name) for name in ("hs", "js", "values"))  # only the load


@pytest.mark.parametrize("own_rule", [True, False])
def test_fields_of_several_vectors_match_one_at_a_time(small_brauer_problem, own_rule):
    from magfem.harness import _error_rule

    problem = small_brauer_problem
    rule = None if own_rule else _error_rule(problem.order)
    rng = np.random.default_rng(3)
    vectors = [
        mf.CoefficientVector(problem.space, rng.standard_normal(problem.space.n_free))
        for _ in range(2)
    ]
    together = mf.fields_at_quadrature(problem, *vectors, rule=rule)
    assert len(together) == 6
    for k, v in enumerate(vectors):
        pts, wq, b, h = mf.fields_at_quadrature(problem, v, rule=rule)
        assert np.array_equal(together[0], pts)
        assert np.array_equal(together[1], wq)
        assert np.array_equal(together[2 + 2 * k], b)
        assert np.array_equal(together[3 + 2 * k], h)


def test_newton_does_not_assemble_unit_stiffness(small_brauer_problem, monkeypatch):
    def forbidden(problem):
        raise AssertionError("newton_solve assembled the unit stiffness")

    monkeypatch.setattr("magfem.assembly.assemble_unit_stiffness", forbidden)
    assert mf.newton_solve(small_brauer_problem)[1].converged


#: Traced transient of a call (its peak above the memory live when it began)
#: over the bytes of what it returns, on a parsed P2 mesh of 4,608 triangles.
#: One np.unique call took the pattern to 8.3x and one np.bincount over all
#: elements the Hessian to 4.7x; sorting once and batching measure 3.8x and 2.4x.
CSR_PATTERN_BUDGET = 4.5
HESSIAN_BUDGET = 3.5

PATTERN_MESHES = {
    "generated": lambda: mf.generate_unit_square(4),
    "refined": lambda: mf.refine_uniform(mf.generate_unit_square(3)),
    "parsed": lambda: mf.parse_mesh(mf.serialize_mesh(mf.refine_uniform(mf.generate_unit_square(3)))),
}


def _unique_pattern(space):
    """The CSR pattern through one np.unique over the element keys: the reference."""
    n = space.n_free
    free = space.free_index[space.conn]
    keys = free[:, :, None] * n + free[:, None, :]
    keys[(free < 0)[:, :, None] | (free < 0)[:, None, :]] = n * n
    unique, slots = np.unique(keys, return_inverse=True)
    nnz = int(np.searchsorted(unique, n * n))
    unique = unique[:nnz]
    index = np.int32 if nnz < np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(unique, np.arange(n + 1) * n)
    return (
        slots.reshape(keys.shape).astype(index),
        (unique % n).astype(index),
        indptr.astype(index),
    )


@pytest.mark.parametrize("dirichlet", [frozenset(), frozenset({1})])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(PATTERN_MESHES))
def test_csr_pattern_matches_the_unique_reference(kind, degree, dirichlet):
    space = build_space(PATTERN_MESHES[kind](), degree, dirichlet)
    assert space.constrained.any() == bool(dirichlet)
    for got, want in zip(assembly._csr_pattern(space), _unique_pattern(space)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _traced_transient(fn, *args):
    """(fn(*args), its traced peak above the memory traced when it began)."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not outer:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def parsed_p2_problem():
    mesh = mf.parse_mesh(mf.serialize_mesh(mf.generate_unit_square(48)))
    return Problem(
        mesh=mesh, order=1, materials={1: mf.brauer_reference()},
        dirichlet_tags=frozenset({1}), js_density={1: 1e5},
    )


def test_csr_pattern_transient_stays_within_budget(parsed_p2_problem):
    pattern, transient = _traced_transient(assembly._csr_pattern, parsed_p2_problem.space)
    assert transient <= CSR_PATTERN_BUDGET * sum(a.nbytes for a in pattern)


def test_hessian_transient_stays_within_budget(parsed_p2_problem):
    coeffs = _random_coeffs(parsed_p2_problem, scale=1e-4, seed=11)
    H, transient = _traced_transient(assemble_hessian, parsed_p2_problem, coeffs)
    assert transient <= HESSIAN_BUDGET * (H.data.nbytes + H.indices.nbytes + H.indptr.nbytes)
    assert parsed_p2_problem.mesh.num_triangles > assembly.ELEMENT_BATCH  # several batches


@pytest.mark.parametrize("batch", [1, 7, 100])
def test_operators_do_not_depend_on_the_element_batch(batch, brauer_law, monkeypatch):
    problem = _problem(brauer_law, n=6, order=2)
    coeffs = _random_coeffs(problem, scale=0.1, seed=12)
    whole = [assemble_hessian(problem, coeffs), assemble_unit_stiffness(problem)]
    assert problem.mesh.num_triangles <= assembly.ELEMENT_BATCH
    monkeypatch.setattr(assembly, "ELEMENT_BATCH", batch)
    batched = [assemble_hessian(problem, coeffs), assemble_unit_stiffness(problem)]
    for a, b in zip(whole, batched):
        assert a.data.tobytes() == b.data.tobytes()


def test_residual_scale_matches_the_absolute_assembly(brauer_law):
    problem = _problem(brauer_law, n=4, order=2, hs=lambda x: np.column_stack([x[:, 1], -x[:, 0]]))
    coeffs = _random_coeffs(problem, scale=0.1, seed=13)
    b = assembly.curl_at_quadrature(problem, coeffs)
    h = np.abs(assembly._material_apply(problem, "dw", b))
    cell = np.einsum("elqi,eqi->el", np.abs(problem.curls), problem.wq[..., None] * h)
    want = float(np.linalg.norm(assembly._free_sum(problem.space, cell) + np.abs(problem.load)))
    assert assembly.residual_scale(problem, coeffs) == want


def test_residual_scale_over_several_batches_matches_the_whole_array_formula(brauer_law):
    problem = _problem(brauer_law, n=33, order=1, js=lambda x: np.full(len(x), 1e5))
    assert problem.mesh.num_triangles > assembly.ELEMENT_BATCH
    coeffs = _random_coeffs(problem, scale=1e-3, seed=14)
    b = assembly.curl_at_quadrature(problem, coeffs)
    h = np.abs(assembly._material_apply(problem, "dw", b))
    cell = np.einsum("elqi,eqi->el", np.abs(problem.curls), problem.wq[..., None] * h)
    want = float(np.linalg.norm(assembly._free_sum(problem.space, cell) + np.abs(problem.load)))
    assert assembly.residual_scale(problem, coeffs) == want


def test_one_region_gives_the_bits_of_the_same_law_over_two_regions(brauer_law):
    mesh = mf.generate_unit_square(6)
    split = mf.with_region_tags(mesh, np.where(np.arange(mesh.num_triangles) % 3 == 0, 2, 1))
    one, two = (
        Problem(mesh=m, order=2, materials=laws, dirichlet_tags=frozenset({1}))
        for m, laws in ((mesh, {1: brauer_law}), (split, {1: brauer_law, 2: brauer_law}))
    )
    assert len(one.region_rows) == 1 and len(two.region_rows) == 2
    b = rng(15).normal(scale=2.0, size=one.points.shape)  # linear and saturated points
    for name in ("w", "dw", "d2w"):
        got = assembly._material_apply(one, name, b)
        assert got.tobytes() == assembly._material_apply(two, name, b).tobytes()
    coeffs = _random_coeffs(one, scale=0.1, seed=16)
    split_coeffs = CoefficientVector(two.space, coeffs.values)
    assert (
        assemble_hessian(one, coeffs).data.tobytes()
        == assemble_hessian(two, split_coeffs).data.tobytes()
    )


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("case", ["brauer", "pm_toy", "annulus", "unconstrained"])
def test_residual_and_its_scale_match_the_per_point_oracle(case, order, brauer_law):
    problem = _kernel_problem(case, order, brauer_law)
    coeffs = _random_coeffs(problem, scale=0.1, seed=16 + order)
    b = assembly.curl_at_quadrature(problem, coeffs)
    h = problem.wq[..., None] * assembly._material_apply(problem, "dw", b)
    cell = integrate_against_curls(problem.curls, h)
    want = assembly._free_sum(problem.space, cell) - problem.load
    got = assemble_residual(problem, coeffs)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    cell = integrate_against_curls(problem.curls, np.abs(h), magnitude=True)
    scale = np.linalg.norm(assembly._free_sum(problem.space, cell) + np.abs(problem.load))
    assert assembly.residual_scale(problem, coeffs) == pytest.approx(scale, rel=1e-13, abs=0.0)


def test_region_current_densities_follow_the_region_tags():
    mesh = mf.generate_unit_square(4)
    tags = np.where(np.arange(mesh.num_triangles) % 3 == 0, 2, 1)
    tags[5] = 7  # a region without a current
    mesh = mf.with_region_tags(mesh, tags)
    law = mf.LinearLaw(1.0)
    density = {1: 3.0, 2: -0.25}
    problem = Problem(
        mesh=mesh, order=1, materials={1: law, 2: law, 7: law},
        dirichlet_tags=frozenset({1}), js_density=density,
    )
    # load_i = sum over regions of j_region * integral of phi_i over the region
    phi = problem.wq[:, :, None] * tabulate_values(problem.space, problem.rule)[None]
    want = np.zeros(problem.space.num_dofs)
    for tag, j in density.items():
        rows = np.nonzero(tags == tag)[0]
        np.add.at(want, problem.space.conn[rows].ravel(), j * phi[rows].sum(axis=1).ravel())
    want = want[~problem.space.constrained]
    assert np.allclose(problem.load, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def _sampled_energy_and_residual(problem, coeffs):
    """Reference energy and residual that sample the source on every call.

    h_s enters the integrand of both; j_s is integrated against the basis
    values. No load vector is used. On a mapped problem both energy
    integrands carry the map's J.
    """
    ne, nq, _ = problem.points.shape
    flat = problem.points.reshape(-1, 2)
    hs = js = None
    if problem.hs_field is not None:
        hs = np.asarray(problem.hs_field(flat), float).reshape(ne, nq, 2)
    elif isinstance(problem.js_density, dict):
        js = np.array([problem.js_density.get(int(t), 0.0) for t in problem.mesh.region_tag])
        js = np.repeat(js[:, None], nq, axis=1)
    elif problem.js_density is not None:
        js = np.asarray(problem.js_density(flat), float).reshape(ne, nq)
    values = tabulate_values(problem.space, problem.rule)
    weights, areas = problem.rule.weights, problem.space.element_areas
    b = assembly.curl_at_quadrature(problem, coeffs)
    integrand = assembly._material_apply(problem, "w", b)
    h = assembly._material_apply(problem, "dw", b)
    if hs is not None:
        integrand = integrand - np.sum(hs * b, axis=2)
        h = h - hs
    jac = 1.0 if problem.domain_map is None else map_jacobians(problem, problem.rule)[1]
    energy = float(((jac * integrand) @ weights) @ areas)
    cell = integrate_against_curls(problem.curls, problem.wq[..., None] * h)
    if js is not None:
        a_vals = coeffs.full()[problem.space.conn] @ values.T
        energy -= float(((jac * js * a_vals) @ weights) @ areas)
        cell -= np.einsum("eq,eq,ql->el", problem.wq, js, values)
    return energy, assembly._free_sum(problem.space, cell)


def _source_problem(source, brauer_law):
    from magfem.harness import annulus_mapped_benchmark, problem_at_level

    if source == "annulus":
        return problem_at_level(annulus_mapped_benchmark(order=2), 1)
    mesh = mf.generate_unit_square(4)
    tags = np.where(np.arange(mesh.num_triangles) % 3 == 0, 2, 1)
    tags[5] = 7  # a region without a current
    mesh = mf.with_region_tags(mesh, tags)
    kw = {
        "hs": {"hs_field": lambda x: np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2])},
        "js_dict": {"js_density": {1: 3.0e3, 2: -250.0}},
        "js_callable": {"js_density": lambda x: 1e3 * np.cos(2.0 * x[:, 0]) * x[:, 1]},
        "none": {},
    }[source]
    materials = {1: brauer_law, 2: mf.LinearLaw(2.0), 7: brauer_law}
    return Problem(mesh=mesh, order=2, materials=materials, dirichlet_tags=frozenset({1}), **kw)


@pytest.mark.parametrize("source", ["hs", "js_dict", "js_callable", "none", "annulus"])
def test_load_vector_matches_the_sampled_source(source, brauer_law):
    problem = _source_problem(source, brauer_law)
    for seed in (14, 15):
        coeffs = _random_coeffs(problem, scale=0.05, seed=seed)
        energy, residual = _sampled_energy_and_residual(problem, coeffs)
        assert assemble_energy(problem, coeffs) == pytest.approx(energy, rel=1e-13, abs=0.0)
        got = assemble_residual(problem, coeffs)
        assert np.abs(got - residual).max() <= 1e-13 * np.abs(residual).max()
    if source == "none":
        assert not problem.load.any()
