import numpy as np
import pytest

import magfem as mf
from magfem import femspace
from magfem.femspace import eval_curl_batch, tabulate_curl
from magfem.harness import disc_mesh
from magfem.quadrature import rule_for_degree

from conftest import (
    BoundaryCompatibilityError,
    eval_basis,
    eval_curl_field,
    interpolate,
    l2_norm_oracle,
    rng,
)


def test_all_dirichlet_n1_p1_has_no_free_dofs():
    space = mf.build_space(mf.generate_unit_square(1), 1, {1})
    assert space.n_free == 0


def test_all_dirichlet_n2_p1_has_one_free_dof():
    space = mf.build_space(mf.generate_unit_square(2), 1, {1})
    assert space.n_free == 1


def test_single_triangle_p2_has_six_dofs():
    single = mf.Mesh(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0, 1, 2)],
        [1],
        [(0, 1), (1, 2), (2, 0)],
        [1, 1, 1],
    )
    space = mf.build_space(single, 2)
    assert space.num_dofs == 6
    assert space.n_free == 6


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_local_dimension(p):
    space = mf.build_space(mf.generate_unit_square(2), p)
    assert space.conn.shape[1] == (p + 1) * (p + 2) // 2


def test_unknown_dirichlet_tag_rejected():
    with pytest.raises(ValueError):
        mf.build_space(mf.generate_unit_square(2), 1, {7})


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        mf.build_space(mf.generate_unit_square(2), 5)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_lagrange_duality_at_dof_nodes(p):
    # basis i at dof node j equals delta_ij, on a skewed element
    mesh = mf.Mesh(
        [(0.1, -0.2), (1.3, 0.1), (0.4, 1.1)],
        [(0, 1, 2)],
        [1],
        [(0, 1), (1, 2), (2, 0)],
        [1, 1, 1],
    )
    space = mf.build_space(mesh, p)
    from magfem.femspace import _reference_nodes

    nodes = _reference_nodes(p)
    for j, node in enumerate(nodes):
        values, _ = eval_basis(space, 0, node)
        expected = np.zeros(len(nodes))
        expected[j] = 1.0
        assert np.allclose(values, expected, atol=5e-11)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_partition_of_unity_and_curl_sum(p):
    space = mf.build_space(mf.generate_unit_square(3), p)
    points = rng(1).dirichlet([1, 1, 1], size=10)[:, :2]  # random reference points
    for pt in points:
        values, curls = eval_basis(space, 5, pt)
        assert np.sum(values) == pytest.approx(1.0, abs=1e-12)
        # curl of the constant 1; rounding scales with the curl magnitudes
        scale = max(1.0, np.abs(curls).max())
        assert np.allclose(np.sum(curls, axis=0), 0.0, atol=1e-13 * scale)


def test_eval_basis_rejects_bad_element():
    space = mf.build_space(mf.generate_unit_square(1), 1)
    with pytest.raises(IndexError):
        eval_basis(space, 99, (0.2, 0.2))


def test_connectivity_is_conforming_across_elements():
    # evaluating the same global basis function from both sides of a shared
    # edge gives the same trace values
    mesh = mf.generate_unit_square(2)
    space = mf.build_space(mesh, 3)
    # elements 0 and 1 share the diagonal edge (vertices 0 and 4)
    t0, t1 = 0, 1
    shared = set(space.conn[t0]) & set(space.conn[t1])
    assert len(shared) == 4  # 2 vertices + 2 edge dofs for p=3
    # interpolate a global function and compare its trace from both sides
    f = lambda x: x[:, 0] ** 2 + 0.5 * x[:, 1]
    coeffs = interpolate(space, f)
    for s in np.linspace(0.05, 0.95, 5):
        # physical point on the shared diagonal from (0,0) to (0.5,0.5)
        phys = np.array([0.5 * s, 0.5 * s])
        vals = []
        for t in (t0, t1):
            pv = mesh.vertices[mesh.triangles[t]]
            B = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
            ref = np.linalg.solve(B, phys - pv[0])
            basis_vals, _ = eval_basis(space, t, ref)
            vals.append(basis_vals @ coeffs.full()[space.conn[t]])
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_interpolation_reproduces_polynomials(p):
    space = mf.build_space(mf.generate_unit_square(3), p)
    f = lambda x: (0.3 + x[:, 0] + 0.5 * x[:, 1]) ** p / (2.5**p)
    coeffs = interpolate(space, f)
    pts = rng(2).random((30, 2))
    for x in pts:
        tri = _locate(space.mesh, x)
        pv = space.mesh.vertices[space.mesh.triangles[tri]]
        B = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
        ref = np.linalg.solve(B, x - pv[0])
        vals, _ = eval_basis(space, tri, ref)
        got = vals @ coeffs.full()[space.conn[tri]]
        assert got == pytest.approx(f(x[None, :])[0], abs=1e-12)


def _locate(mesh, x):
    for t, tri in enumerate(mesh.triangles):
        pv = mesh.vertices[tri]
        B = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
        ref = np.linalg.solve(B, x - pv[0])
        if ref[0] >= -1e-12 and ref[1] >= -1e-12 and ref.sum() <= 1 + 1e-12:
            return t
    raise AssertionError("point not located")


def test_quartic_bubble_reproduced_by_p4():
    space = mf.build_space(mf.generate_unit_square(2), 4, {1})
    f = lambda x: x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1])
    coeffs = interpolate(space, f)
    pts = rng(3).random((20, 2))
    for x in pts:
        tri = _locate(space.mesh, x)
        pv = space.mesh.vertices[space.mesh.triangles[tri]]
        B = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
        ref = np.linalg.solve(B, x - pv[0])
        vals, _ = eval_basis(space, tri, ref)
        got = vals @ coeffs.full()[space.conn[tri]]
        assert got == pytest.approx(f(x[None, :])[0], abs=1e-12)


def test_interpolate_zero_gives_zero_vector():
    space = mf.build_space(mf.generate_unit_square(2), 2, {1})
    coeffs = interpolate(space, lambda x: np.zeros(len(x)))
    assert np.all(coeffs.values == 0.0)


def test_interpolate_rejects_nonzero_boundary_trace():
    space = mf.build_space(mf.generate_unit_square(2), 1, {1})
    with pytest.raises(BoundaryCompatibilityError):
        interpolate(space, lambda x: np.ones(len(x)))


@pytest.mark.parametrize("p", [1, 2])
def test_interpolation_error_decays_at_rate_p_plus_1(p):
    # EOC of the L2 interpolation error of sin(pi x) sin(pi y) over
    # 3 refinements approaches p+1 (oracle: independent conical rule)
    f = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    errors = []
    mesh = mf.generate_unit_square(4)
    for _ in range(3):
        space = mf.build_space(mesh, p, {1})
        coeffs = interpolate(space, f)
        full = coeffs.full()

        def sampler(elements, ref):
            vals = femspace._shape_values(space.degree, ref)
            local = full[space.conn[elements]]
            approx = np.sum(vals * local, axis=1)
            pv = mesh.vertices[mesh.triangles[elements]]
            B = np.stack([pv[:, 1] - pv[:, 0], pv[:, 2] - pv[:, 0]], axis=2)
            phys = pv[:, 0] + np.einsum("nij,nj->ni", B, ref)
            return approx - f(phys)

        errors.append(l2_norm_oracle(mesh, sampler, 2 * p + 4))
        mesh = mf.refine_uniform(mesh)
    eoc = np.log2(errors[-2] / errors[-1])
    assert eoc == pytest.approx(p + 1, abs=0.2)


def test_curl_of_interpolated_y_is_unit_x():
    space = mf.build_space(mf.generate_unit_square(3), 2)  # no Dirichlet
    coeffs = interpolate(space, lambda x: x[:, 1])
    for t in (0, 7, 12):
        val = eval_curl_field(space, coeffs, t, (0.3, 0.3))
        assert np.allclose(val, [1.0, 0.0], atol=1e-12)


def test_curl_of_interpolated_x_is_minus_unit_y():
    space = mf.build_space(mf.generate_unit_square(3), 2)
    coeffs = interpolate(space, lambda x: x[:, 0])
    for t in (1, 5, 16):
        val = eval_curl_field(space, coeffs, t, (0.25, 0.5))
        assert np.allclose(val, [0.0, -1.0], atol=1e-12)


def test_zero_coefficients_have_zero_curl():
    space = mf.build_space(mf.generate_unit_square(2), 2, {1})
    coeffs = mf.zero_coefficients(space)
    assert np.allclose(eval_curl_field(space, coeffs, 3, (0.2, 0.6)), 0.0)


def test_coefficient_vector_length_checked():
    space = mf.build_space(mf.generate_unit_square(2), 1, {1})
    with pytest.raises(ValueError):
        mf.CoefficientVector(space, np.zeros(space.n_free + 1))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_curl_quadrature_norm_equals_l2_norm(p):
    # the 2k-exact rule integrates |Curl v_h|^2 exactly, so the discrete
    # norm coincides with the true L2 norm (oracle: conical rule)
    mesh = mf.generate_unit_square(3)
    space = mf.build_space(mesh, p, {1})
    rule = rule_for_degree(max(2 * (p - 1), 1))
    curls = tabulate_curl(space, rule)
    areas = np.abs(mesh.signed_areas())
    generator = rng(4)
    for _ in range(10):
        coeffs = mf.CoefficientVector(space, generator.normal(size=space.n_free))
        local = coeffs.full()[space.conn]
        b = np.einsum("el,eqli->eqi", local, curls)
        quad_norm = np.sqrt((((b**2).sum(2)) @ rule.weights) @ areas)

        def sampler(elements, ref):
            return eval_curl_batch(space, coeffs, elements, ref)

        oracle = l2_norm_oracle(mesh, sampler, 2 * p)
        assert quad_norm == pytest.approx(oracle, rel=1e-12)


def test_curl_norm_positive_for_nonzero_fields():
    mesh = mf.generate_unit_square(3)
    space = mf.build_space(mesh, 2, {1})
    rule = rule_for_degree(2)
    curls = tabulate_curl(space, rule)
    areas = np.abs(mesh.signed_areas())
    generator = rng(5)
    for _ in range(20):
        values = generator.normal(size=space.n_free)
        coeffs = mf.CoefficientVector(space, values)
        local = coeffs.full()[space.conn]
        b = np.einsum("el,eqli->eqi", local, curls)
        norm = np.sqrt((((b**2).sum(2)) @ rule.weights) @ areas)
        assert norm > 1e-8 * np.linalg.norm(values)


def _old_tabulate_curl(space, rule):
    """The former einsum: inverse-transpose gradients, then rotated to curls."""
    grads = femspace._shape_gradients(space.degree, rule.points)
    g = np.einsum("eji,qlj->eqli", space.element_inverse, grads)
    return np.stack([g[..., 1], -g[..., 0]], axis=-1)


def _old_eval_curl_batch(space, coeffs, elements, points):
    grads = femspace._shape_gradients(space.degree, points)
    g = np.einsum("nji,nlj->nli", space.element_inverse[elements], grads)
    curl = np.stack([g[..., 1], -g[..., 0]], axis=-1)
    local = coeffs.full()[space.conn[elements]]
    return np.einsum("nl,nli->ni", local, curl)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_tabulate_curl_bit_identical_to_einsum(p):
    # the two-term curl kernel rounds exactly like the contraction it replaced
    mesh = mf.refine_uniform(disc_mesh(3))
    space = mf.build_space(mesh, p, {1})
    rule = rule_for_degree(8)
    assert np.array_equal(tabulate_curl(space, rule), _old_tabulate_curl(space, rule))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_eval_curl_batch_bit_identical_to_einsum(p):
    space = mf.build_space(disc_mesh(3), p, {1})
    generator = rng(6)
    coeffs = mf.CoefficientVector(space, generator.normal(size=space.n_free))
    elements = generator.integers(0, space.mesh.num_triangles, size=200)
    points = generator.dirichlet(np.ones(3), size=200)[:, :2]
    got = eval_curl_batch(space, coeffs, elements, points)
    assert np.array_equal(got, _old_eval_curl_batch(space, coeffs, elements, points))
