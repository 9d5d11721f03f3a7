import numpy as np
import pytest

import magfem as mf
from magfem import assembly, geometry, harness
from magfem.harness import annulus_mapped_benchmark, problem_at_level

from conftest import check_jacobian_consistency, interpolate, piola_curls, rng


def _random_points(n, seed=0):
    return rng(seed).random((n, 2))


def _rotation(th):
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


def _problem(law, domain_map=None, mesh=None, dirichlet_tags=frozenset({1}), **source):
    return mf.Problem(
        mesh=mf.generate_unit_square(3) if mesh is None else mesh,
        order=1,
        materials={1: law},
        dirichlet_tags=dirichlet_tags,
        domain_map=domain_map,
        **source,
    )


def _coeffs(problem, seed, scale=0.3):
    return mf.CoefficientVector(
        problem.space, rng(seed).normal(scale=scale, size=problem.space.n_free)
    )


def _operators(problem, coeffs):
    """Energy, residual and Hessian data of the problem at coeffs."""
    return (
        mf.assemble_energy(problem, coeffs),
        mf.assemble_residual(problem, coeffs),
        mf.assemble_hessian(problem, coeffs).data,
    )


def _assert_close(got, want, rtol):
    for g, w in zip(got, want):
        assert np.abs(np.asarray(g) - w).max() <= rtol * np.abs(w).max()


def _hs(x):
    return np.column_stack([np.sin(x[:, 0]) + 0.5, x[:, 0] * x[:, 1] - 1.0])


def test_identity_map_leaves_law_unchanged(brauer_law):
    # the identity map folds into the tables exactly: the mapped problem is
    # the unmapped one, bit for bit but for the sign of a zero curl entry
    plain = _problem(brauer_law, hs_field=_hs)
    mapped = _problem(brauer_law, geometry.identity_map(), hs_field=_hs)
    assert plain.jacobian is None
    assert np.array_equal(mapped.jacobian, np.ones(plain.wq.shape))
    assert np.array_equal(mapped.curls, plain.curls)
    for name in ("points", "wq", "load"):
        assert getattr(mapped, name).tobytes() == getattr(plain, name).tobytes()
    assert mapped.curls.flags.c_contiguous and not mapped.jacobian.flags.writeable
    coeffs = _coeffs(plain, 1, scale=0.5)
    for got, want in zip(_operators(mapped, coeffs), _operators(plain, coeffs)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert mapped.certified_bounds() == plain.certified_bounds()


def test_uniform_scaling_leaves_isotropic_quadratic_invariant():
    # J = c^2 and b' = b / c cancel: J (nu/2) |b/c|^2 = (nu/2) |b|^2
    c = 2.5
    law = mf.LinearLaw(3.0)
    plain = _problem(law)
    scaled = _problem(law, geometry.affine_map(c * np.eye(2)))
    coeffs = _coeffs(plain, 3)
    _assert_close(_operators(scaled, coeffs), _operators(plain, coeffs), 1e-13)


def test_rotation_leaves_isotropic_law_unchanged(brauer_law):
    # J = 1 and |R b| = |b|, so the energy density of an isotropic law is
    # unchanged, and with it the residual and the Hessian
    plain = _problem(brauer_law)
    rotated = _problem(brauer_law, geometry.affine_map(_rotation(0.7), (0.4, -1.0)))
    coeffs = _coeffs(plain, 5, scale=0.5)
    assert mf.assemble_energy(plain, coeffs) > 0.0
    _assert_close(_operators(rotated, coeffs), _operators(plain, coeffs), 1e-13)


def test_pullback_source_identity(brauer_law):
    for source in (
        {"hs_field": _hs},
        {"js_density": {1: 3e3}},
        {"js_density": lambda x: 1e3 * x[:, 0] * x[:, 1]},
    ):
        plain = _problem(brauer_law, **source)
        mapped = _problem(brauer_law, geometry.identity_map(), **source)
        assert mapped.load.tobytes() == plain.load.tobytes()
        assert np.abs(plain.load).max() > 0.0


def test_pullback_source_rotation_preserves_magnitude(brauer_law):
    # the physical source h'(x') on a rotated square loads the potential as
    # the hand-written reference source F^T h'(phi(x)) = R^T h'(R x) does
    R = _rotation(-1.2)
    rotated = _problem(brauer_law, geometry.affine_map(R), hs_field=_hs)

    def hs_reference(x):
        pulled = _hs(x @ R.T) @ R
        assert np.allclose(np.linalg.norm(pulled, axis=1), np.linalg.norm(_hs(x @ R.T), axis=1))
        return pulled

    reference = _problem(brauer_law, hs_field=hs_reference)
    _assert_close([rotated.load], [reference.load], 1e-13)


def test_pullback_source_scaling(brauer_law):
    # on the square scaled by c the hand-written source is F^T h'(c x) = c h'(c x)
    c = 3.0
    scaled = _problem(brauer_law, geometry.affine_map(c * np.eye(2)), hs_field=_hs)
    reference = _problem(brauer_law, hs_field=lambda x: c * _hs(c * x))
    _assert_close([scaled.load], [reference.load], 1e-13)


def test_current_density_is_integrated_against_j(brauer_law):
    # a current density j'(x') on the annulus loads the potential as the
    # hand-written reference density J(x) j'(phi(x)) on the square does
    amap = geometry.quarter_annulus_map(0.5, 1.0)

    def js(xp):
        return 1e3 * xp[:, 0] * xp[:, 1] + 50.0

    for density, on_square in (
        (js, lambda x: amap.J(x) * js(amap.phi(x))),
        ({1: 3e3}, lambda x: amap.J(x) * 3e3),
    ):
        mapped = _problem(brauer_law, amap, js_density=density)
        reference = _problem(brauer_law, js_density=on_square)
        _assert_close([mapped.load], [reference.load], 1e-13)


def test_pushforward_identity(brauer_law):
    plain = _problem(brauer_law)
    mapped = _problem(brauer_law, geometry.identity_map())
    coeffs = _coeffs(plain, 7)
    b = assembly.curl_at_quadrature(mapped, coeffs)
    assert b.tobytes() == assembly.curl_at_quadrature(plain, coeffs).tobytes()


def test_pushforward_scaling_divides_by_c(brauer_law):
    c = 2.0
    plain = _problem(brauer_law)
    scaled = _problem(brauer_law, geometry.affine_map(c * np.eye(2)))
    coeffs = _coeffs(plain, 8)
    b_ref = assembly.curl_at_quadrature(plain, coeffs)
    assert np.allclose(assembly.curl_at_quadrature(scaled, coeffs), b_ref / c, rtol=1e-14)
    assert np.allclose(scaled.points, c * plain.points, rtol=1e-14)


def test_pushforward_rotation_is_isometric(brauer_law):
    R = _rotation(0.4)
    plain = _problem(brauer_law)
    rotated = _problem(brauer_law, geometry.affine_map(R))
    coeffs = _coeffs(plain, 9)
    b_ref = assembly.curl_at_quadrature(plain, coeffs)
    b = assembly.curl_at_quadrature(rotated, coeffs)
    assert np.allclose(b, b_ref @ R.T, rtol=1e-13, atol=1e-14)
    assert np.allclose(np.linalg.norm(b, axis=2), np.linalg.norm(b_ref, axis=2), rtol=1e-13)


def test_curl_at_quadrature_is_the_piola_transform(brauer_law):
    # on the curved map: b = F b_ref / J at every point, from the oracle's
    # own transform of the reference curls
    problem = _problem(brauer_law, geometry.quarter_annulus_map(0.5, 1.0))
    coeffs = _coeffs(problem, 10)
    local = coeffs.full()[problem.space.conn]
    want = np.einsum("el,eqli->eqi", local, piola_curls(problem, problem.rule))
    got = assembly.curl_at_quadrature(problem, coeffs)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    flat = mf.generate_unit_square(3)
    reference = assembly.mapped_points(flat, problem.rule.points).reshape(-1, 2)
    want_points = problem.domain_map.phi(reference).reshape(problem.points.shape)
    assert np.array_equal(problem.points, want_points)


def test_orientation_reversing_map_rejected():
    with pytest.raises(geometry.OrientationError):
        geometry.affine_map([[1.0, 0.0], [0.0, -1.0]])


def test_problem_on_orientation_reversing_map_rejected():
    # phi(x, y) = (x, (x - 1/2) y) folds the square over at x = 1/2: J = x - 1/2
    folding = geometry.DomainMap(
        phi=lambda x: np.column_stack([x[:, 0], (x[:, 0] - 0.5) * x[:, 1]]),
        F=lambda x: np.stack(
            [np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
             np.column_stack([x[:, 1], x[:, 0] - 0.5])], axis=1,
        ),
        J=lambda x: x[:, 0] - 0.5,
    )
    with pytest.raises(geometry.OrientationError, match="orientation reversing"):
        _problem(mf.LinearLaw(1.0), folding)


def test_newton_never_calls_the_map_after_construction():
    amap = geometry.quarter_annulus_map(0.5, 1.0)
    calls = []

    def counted(name):
        fn = getattr(amap, name)
        return lambda x: calls.append(name) or fn(x)

    counting = geometry.DomainMap(phi=counted("phi"), F=counted("F"), J=counted("J"))
    problem = _problem(mf.brauer_reference(), counting, hs_field=_hs)
    assert sorted(set(calls)) == ["F", "J", "phi"]
    calls.clear()
    _, report = mf.newton_solve(problem)
    assert report.converged and report.n_iterations > 1
    assert calls == []


def test_quarter_annulus_jacobian_consistency():
    amap = geometry.quarter_annulus_map(0.5, 1.0)
    err = check_jacobian_consistency(amap, _random_points(50, 10))
    assert err <= 1e-5


def test_quarter_annulus_covers_annulus():
    amap = geometry.quarter_annulus_map(0.5, 1.0)
    x = _random_points(200, 11)
    xp = amap.phi(x)
    r = np.linalg.norm(xp, axis=1)
    assert np.all((r >= 0.5 - 1e-12) & (r <= 1.0 + 1e-12))
    assert np.all(xp >= -1e-12)


def test_monotonicity_pairing_identity():
    # <F^T (h1' - h2'), b1 - b2> = J <h1' - h2', b1' - b2'> pointwise
    generator = rng(12)
    for _ in range(100):
        F = generator.normal(size=(2, 2))
        if np.linalg.det(F) <= 0.05:
            F = F + 2.0 * np.eye(2)
        J = np.linalg.det(F)
        b1, b2 = generator.normal(size=2), generator.normal(size=2)
        h1, h2 = generator.normal(size=2), generator.normal(size=2)
        lhs = (F.T @ (h1 - h2)) @ (b1 - b2)
        rhs = J * ((h1 - h2) @ (F @ (b1 - b2) / J))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_monotonicity_pairing_through_pulled_back_law(brauer_law):
    # the mapped residual's pairing <r(a1) - r(a2), a1 - a2> is the physical
    # pairing of h = dw(b) and b = F b_ref / J, integrated with the weights J
    problem = _problem(brauer_law, geometry.quarter_annulus_map(0.5, 1.0), hs_field=_hs)
    a1, a2 = _coeffs(problem, 13, scale=0.6), _coeffs(problem, 14, scale=0.6)
    lhs = (mf.assemble_residual(problem, a1) - mf.assemble_residual(problem, a2)) @ (
        a1.values - a2.values
    )
    curls = piola_curls(problem, problem.rule)
    weights = problem.rule.weights * problem.space.element_areas[:, None] * problem.jacobian

    def fields(a):
        b = np.einsum("el,eqli->eqi", a.full()[problem.space.conn], curls)
        h = brauer_law.dw(problem.points.reshape(-1, 2), b.reshape(-1, 2)).reshape(b.shape)
        return b, h

    (b1, h1), (b2, h2) = fields(a1), fields(a2)
    rhs = np.sum(weights * np.sum((h1 - h2) * (b1 - b2), axis=2))
    assert lhs > 0.0
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_energy_invariance_under_affine_map():
    # an affine map carries the straight mesh onto a straight mesh with the
    # same space: the mapped problem and the unmapped one on the image mesh
    # agree term for term
    A = np.array([[1.3, 0.4], [-0.2, 1.1]])
    amap = geometry.affine_map(A, (0.3, -0.1))
    law = mf.LinearLaw([[2.0, 0.5], [0.5, 1.5]])
    mesh = mf.generate_unit_square(3)
    image = mf.Mesh(
        amap.phi(mesh.vertices),
        mesh.triangles,
        mesh.region_tag,
        mesh.boundary_edges,
        mesh.boundary_tag,
    )
    mapped = _problem(law, amap, mesh=mesh, hs_field=_hs)
    direct = _problem(law, mesh=image, hs_field=_hs)
    assert np.allclose(mapped.points, direct.points, rtol=1e-14, atol=1e-15)
    coeffs = _coeffs(mapped, 15)
    _assert_close(_operators(mapped, coeffs), _operators(direct, coeffs), 1e-12)


def test_energy_invariance_under_polar_map_converges():
    # curved map: the energies of a(x) = x_1 on polygonal image meshes and on
    # the mapped square both converge to (nu/2) |Omega|: the polygons' at
    # O(h^2), the interpolant of a(phi(x)) on the exact domain at O(h^4)
    amap = geometry.quarter_annulus_map(0.5, 1.0)
    law = mf.LinearLaw(2.0)
    exact = 0.5 * 2.0 * np.pi / 4.0 * (1.0 - 0.25)
    mapped_diffs, image_diffs = [], []
    for n in (4, 8, 16):
        grid = mf.generate_unit_square(n)
        image = mf.Mesh(
            amap.phi(grid.vertices),
            grid.triangles,
            grid.region_tag,
            grid.boundary_edges,
            grid.boundary_tag,
        )
        for mesh, domain_map, diffs in ((grid, amap, mapped_diffs), (image, None, image_diffs)):
            problem = _problem(law, domain_map, mesh=mesh, dirichlet_tags=frozenset())
            phi = (lambda x: amap.phi(x)[:, 0]) if domain_map else (lambda x: x[:, 0])
            coeffs = interpolate(problem.space, phi)
            diffs.append(abs(mf.assemble_energy(problem, coeffs) - exact))
    assert mapped_diffs == sorted(mapped_diffs, reverse=True)
    assert image_diffs == sorted(image_diffs, reverse=True)
    assert mapped_diffs[-1] <= 2e-3 * exact
    assert mapped_diffs[-1] < image_diffs[-1]
    assert mapped_diffs[-2] / mapped_diffs[-1] > 12.0


def test_l2_norm_of_one_is_the_annulus_area():
    problem = problem_at_level(annulus_mapped_benchmark(), 0)
    rule = harness._error_rule(problem.order)
    ones = np.ones((problem.mesh.num_triangles, len(rule.weights)))
    want = np.sqrt(np.pi / 4.0 * (1.0 - 0.25))
    assert harness._l2_norm(problem, rule, ones) == pytest.approx(want, rel=1e-14, abs=0.0)
