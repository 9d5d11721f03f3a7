import numpy as np
import pytest

import magfem as mf
from magfem import geometry
from magfem.quadrature import rule_for_degree

from conftest import check_jacobian_consistency, rng


def _random_points(n, seed=0):
    return rng(seed).random((n, 2))


def test_identity_map_leaves_law_unchanged(brauer_law):
    law = geometry.pullback_material(geometry.identity_map(), brauer_law)
    x = _random_points(40, 1)
    b = rng(2).normal(scale=1.4, size=(40, 2))
    assert np.allclose(law.w(x, b), brauer_law.w(x, b), rtol=1e-14)
    assert np.allclose(law.dw(x, b), brauer_law.dw(x, b), rtol=1e-14)
    assert np.allclose(law.d2w(x, b), brauer_law.d2w(x, b), rtol=1e-14)
    assert law.gamma == pytest.approx(brauer_law.gamma)
    assert law.lipschitz == pytest.approx(brauer_law.lipschitz)


def test_uniform_scaling_leaves_isotropic_quadratic_invariant():
    # J = c^2 and b' = b/c cancel: J * (nu/2)|b/c|^2 = (nu/2)|b|^2
    c = 2.5
    phys = mf.LinearLaw(3.0)
    law = geometry.pullback_material(geometry.affine_map(c * np.eye(2)), phys)
    x = _random_points(30, 3)
    b = rng(4).normal(size=(30, 2))
    assert np.allclose(law.w(x, b), phys.w(x, b), rtol=1e-13)
    assert np.allclose(law.dw(x, b), phys.dw(x, b), rtol=1e-13)


def test_rotation_leaves_isotropic_law_unchanged(brauer_law):
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    law = geometry.pullback_material(geometry.affine_map(R), brauer_law)
    x = _random_points(30, 5)
    b = rng(6).normal(scale=1.2, size=(30, 2))
    assert np.allclose(law.w(x, b), brauer_law.w(x, b), rtol=1e-13)


def test_pullback_source_identity():
    hs = lambda x: np.column_stack([x[:, 0] ** 2, -x[:, 1]])
    pulled = geometry.pullback_source(geometry.identity_map(), hs)
    x = _random_points(20, 7)
    assert np.allclose(pulled(x), hs(x), rtol=1e-14)


def test_pullback_source_rotation_preserves_magnitude():
    th = -1.2
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    hs = lambda x: np.column_stack([np.sin(x[:, 0]), np.cos(x[:, 1])])
    pulled = geometry.pullback_source(geometry.affine_map(R), hs)
    x = _random_points(20, 8)
    assert np.allclose(
        np.linalg.norm(pulled(x), axis=1),
        np.linalg.norm(hs(x @ R.T), axis=1),
        rtol=1e-13,
    )


def test_pullback_source_scaling():
    c = 3.0
    hs = lambda x: np.column_stack([x[:, 1], np.ones(len(x))])
    pulled = geometry.pullback_source(geometry.affine_map(c * np.eye(2)), hs)
    x = _random_points(20, 9)
    assert np.allclose(pulled(x), c * hs(c * x), rtol=1e-13)


def test_pushforward_identity():
    b = np.array([0.3, -0.8])
    assert np.allclose(geometry.pushforward_b(geometry.identity_map(), [0.1, 0.9], b), b)


def test_pushforward_scaling_divides_by_c():
    c = 2.0
    b = np.array([1.0, -0.5])
    out = geometry.pushforward_b(geometry.affine_map(c * np.eye(2)), [0.2, 0.3], b)
    assert np.allclose(out, b / c)


def test_pushforward_rotation_is_isometric():
    th = 0.4
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    b = np.array([0.7, 0.2])
    out = geometry.pushforward_b(geometry.affine_map(R), [0.5, 0.5], b)
    assert np.allclose(out, R @ b)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(b))


def test_orientation_reversing_map_rejected():
    with pytest.raises(geometry.OrientationError):
        geometry.affine_map([[1.0, 0.0], [0.0, -1.0]])


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
    # the pulled-back law's gradient pairing equals the physical pairing
    amap = geometry.quarter_annulus_map(0.5, 1.0)
    law = geometry.pullback_material(amap, brauer_law)
    x = _random_points(50, 13)
    generator = rng(14)
    b1 = generator.normal(scale=1.1, size=(50, 2))
    b2 = generator.normal(scale=1.1, size=(50, 2))
    F, J = amap.jacobians(x)
    xp = amap.phi(x)
    b1p = np.einsum("nij,nj->ni", F, b1) / J[:, None]
    b2p = np.einsum("nij,nj->ni", F, b2) / J[:, None]
    lhs = np.sum((law.dw(x, b1) - law.dw(x, b2)) * (b1 - b2), axis=1)
    rhs = J * np.sum(
        (brauer_law.dw(xp, b1p) - brauer_law.dw(xp, b2p)) * (b1p - b2p), axis=1
    )
    assert np.allclose(lhs, rhs, rtol=1e-11)


def test_energy_invariance_under_affine_map():
    # integrate w(b) over the reference mesh vs w'(b') over the image mesh
    A = np.array([[1.3, 0.4], [-0.2, 1.1]])
    amap = geometry.affine_map(A, (0.3, -0.1))
    phys = mf.LinearLaw([[2.0, 0.5], [0.5, 1.5]])
    law = geometry.pullback_material(amap, phys)

    mesh = mf.generate_unit_square(3)
    image = mf.Mesh(
        amap.phi(mesh.vertices),
        mesh.triangles,
        mesh.region_tag,
        mesh.boundary_edges,
        mesh.boundary_tag,
    )
    rule = rule_for_degree(6)

    def b_ref(x):  # smooth polynomial test field on the reference domain
        return np.column_stack([x[:, 0] * x[:, 1] + 0.2, x[:, 1] ** 2 - x[:, 0]])

    w_ref = mf.discrete_inner_product(
        mesh, rule, lambda x: law.w(x, b_ref(x)), lambda x: np.ones(len(x))
    )

    Ainv = np.linalg.inv(A)

    def w_phys(xp):
        x = (xp - np.array([0.3, -0.1])) @ Ainv.T
        F, J = amap.jacobians(x)
        bp = np.einsum("nij,nj->ni", F, b_ref(x)) / J[:, None]
        return phys.w(xp, bp)

    w_img = mf.discrete_inner_product(
        image, rule, w_phys, lambda x: np.ones(len(x))
    )
    assert w_ref == pytest.approx(w_img, rel=1e-12)


def test_energy_invariance_under_polar_map_converges():
    # curved map: polygonal image meshes converge to the pulled-back value
    amap = geometry.quarter_annulus_map(0.5, 1.0)
    phys = mf.LinearLaw(2.0)
    law = geometry.pullback_material(amap, phys)
    rule = rule_for_degree(8)

    def b_ref(x):
        return np.column_stack([np.sin(x[:, 0]), x[:, 1]])

    mesh = mf.generate_unit_square(4)
    w_ref = mf.discrete_inner_product(
        mesh, rule, lambda x: law.w(x, b_ref(x)), lambda x: np.ones(len(x))
    )

    diffs = []
    for n in (8, 16, 32):
        grid = mf.generate_unit_square(n)
        image = mf.Mesh(
            amap.phi(grid.vertices),
            grid.triangles,
            grid.region_tag,
            grid.boundary_edges,
            grid.boundary_tag,
        )

        def w_phys_on_image(xp):
            # invert the polar map analytically
            r = np.linalg.norm(xp, axis=1)
            th = np.arctan2(xp[:, 1], xp[:, 0])
            x = np.column_stack([(r - 0.5) / 0.5, th / (0.5 * np.pi)])
            x = np.clip(x, 0.0, 1.0)
            F, J = amap.jacobians(x)
            bp = np.einsum("nij,nj->ni", F, b_ref(x)) / J[:, None]
            return phys.w(xp, bp)

        w_img = mf.discrete_inner_product(
            image, rule, w_phys_on_image, lambda x: np.ones(len(x))
        )
        diffs.append(abs(w_img - w_ref))
    assert diffs[-1] < diffs[0]
    assert diffs[-1] <= 2e-3 * abs(w_ref)
