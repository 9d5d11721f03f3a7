import numpy as np
import pytest
from hypothesis import given, strategies as st

import magfem as mf
from magfem.quadrature import (
    MAX_DEGREE,
    STORED_DEGREES,
    rule_for_degree,
)

from conftest import conical_rule, monomial_integral


def test_centroid_rule():
    rule = rule_for_degree(1)
    assert len(rule) == 1
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3])
    assert rule.weights[0] == pytest.approx(1.0)


def test_degree_two_rule_is_edge_midpoints():
    rule = rule_for_degree(2)
    assert len(rule) == 3
    assert np.allclose(sorted(map(tuple, rule.points)), [(0.0, 0.5), (0.5, 0.0), (0.5, 0.5)])
    assert np.allclose(rule.weights, 1 / 3)
    for p, q in [(2, 0), (1, 1), (0, 2)]:
        approx = 0.5 * np.sum(rule.weights * rule.points[:, 0] ** p * rule.points[:, 1] ** q)
        assert approx == pytest.approx(monomial_integral(p, q), rel=1e-15)


def test_degree_zero_returns_centroid_rule():
    assert rule_for_degree(0) is rule_for_degree(1)


def test_same_rule_instance_for_same_degree():
    for d in range(MAX_DEGREE + 1):
        assert rule_for_degree(d) is rule_for_degree(d)


@given(st.integers(min_value=0, max_value=MAX_DEGREE))
def test_selection_is_smallest_sufficient_rule(d):
    rule = rule_for_degree(d)
    assert rule.degree >= d
    smaller = [s for s in STORED_DEGREES if d <= s < rule.degree]
    assert not smaller


def test_unsupported_degree_names_maximum():
    with pytest.raises(mf.UnsupportedDegreeError) as err:
        rule_for_degree(MAX_DEGREE + 1)
    assert str(MAX_DEGREE) in str(err.value)


@pytest.mark.parametrize("degree", STORED_DEGREES)
def test_rules_have_positive_weights_summing_to_one(degree):
    rule = rule_for_degree(degree)
    assert np.all(rule.weights > 0)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
    assert np.all(rule.points >= 0)
    assert np.all(rule.points.sum(axis=1) <= 1.0 + 1e-15)


@pytest.mark.parametrize("degree", STORED_DEGREES)
def test_monomial_exactness(degree):
    # closed form: int x^p y^q over the unit triangle = p! q! / (p+q+2)!
    rule = rule_for_degree(degree)
    for total in range(degree + 1):
        for p in range(total + 1):
            q = total - p
            approx = 0.5 * np.sum(
                rule.weights * rule.points[:, 0] ** p * rule.points[:, 1] ** q
            )
            exact = monomial_integral(p, q)
            assert abs(approx - exact) <= 1e-13 * exact


def test_discrete_inner_product_of_ones_is_area(unit_square_4):
    rule = rule_for_degree(2)
    one = lambda x: np.ones(len(x))
    assert mf.discrete_inner_product(unit_square_4, rule, one, one) == pytest.approx(
        1.0, abs=1e-13
    )


def test_discrete_inner_product_x_times_y(unit_square_4):
    rule = rule_for_degree(2)
    val = mf.discrete_inner_product(
        unit_square_4, rule, lambda p: p[:, 0], lambda p: p[:, 1]
    )
    assert val == pytest.approx(0.25, abs=1e-13)


def test_discrete_inner_product_vector_valued(unit_square_4):
    rule = rule_for_degree(4)
    u = lambda p: np.column_stack([p[:, 0], p[:, 1]])
    # <u, u> = int x^2 + y^2 over the unit square = 2/3
    val = mf.discrete_inner_product(unit_square_4, rule, u, u)
    assert val == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_discrete_inner_product_random_p1_pairs_against_closed_form():
    # on each element, int (a + b x + c y)(d + e x + f y) has a closed form
    # via the monomial integrals; compare on a 2-triangle mesh
    mesh = mf.generate_unit_square(1)
    rule = rule_for_degree(2)
    rng = np.random.default_rng(42)
    for _ in range(20):
        coef_u = rng.normal(size=3)
        coef_v = rng.normal(size=3)
        u = lambda p: coef_u[0] + coef_u[1] * p[:, 0] + coef_u[2] * p[:, 1]
        v = lambda p: coef_v[0] + coef_v[1] * p[:, 0] + coef_v[2] * p[:, 1]
        got = mf.discrete_inner_product(mesh, rule, u, v)

        exact = 0.0
        for tri in mesh.triangles:
            pv = mesh.vertices[tri]
            B = np.stack([pv[1] - pv[0], pv[2] - pv[0]], axis=1)
            area = 0.5 * abs(np.linalg.det(B))

            # u(phi(xi)) is affine in xi; integrate the product exactly
            # through the reference monomial integrals
            def on_ref(c):
                const = c[0] + c[1] * pv[0][0] + c[2] * pv[0][1]
                lin = np.array(
                    [
                        c[1] * B[0, 0] + c[2] * B[1, 0],
                        c[1] * B[0, 1] + c[2] * B[1, 1],
                    ]
                )
                return const, lin

            cu, lu = on_ref(coef_u)
            cv, lv = on_ref(coef_v)
            m = monomial_integral
            val = (
                cu * cv * m(0, 0)
                + (cu * lv[0] + cv * lu[0]) * m(1, 0)
                + (cu * lv[1] + cv * lu[1]) * m(0, 1)
                + lu[0] * lv[0] * m(2, 0)
                + (lu[0] * lv[1] + lu[1] * lv[0]) * m(1, 1)
                + lu[1] * lv[1] * m(0, 2)
            )
            exact += 2.0 * area * val
        assert got == pytest.approx(exact, rel=1e-12)


def test_conical_oracle_agrees_with_tables():
    # cross-validation of the two independent constructions
    for degree in STORED_DEGREES:
        pts, wts = conical_rule(degree // 2 + 1)
        rule = rule_for_degree(degree)
        for p, q in [(degree, 0), (0, degree), (degree // 2, degree - degree // 2)]:
            a = 0.5 * np.sum(wts * pts[:, 0] ** p * pts[:, 1] ** q)
            b = 0.5 * np.sum(rule.weights * rule.points[:, 0] ** p * rule.points[:, 1] ** q)
            assert a == pytest.approx(b, rel=1e-12)
