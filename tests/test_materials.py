import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magfem as mf
from magfem.materials import _RADIAL_EPS, NU0, build_law, certify_bounds, radial_samples

from conftest import material_eval, rng

BRAUER_K1, BRAUER_K2, BRAUER_K3 = 3.8, 2.17, 396.2


@pytest.fixture(scope="module")
def brauer(brauer_law):
    return brauer_law


def all_laws():
    return {
        "brauer": mf.brauer_reference(),
        "linear": mf.LinearLaw(2.0),
        "pm": mf.LinearLaw(NU0, (0.0, 1.2 * NU0)),
        "aniso": mf.LinearLaw([[3.0, 1.0], [1.0, 2.0]]),
    }


# -- Brauer construction -------------------------------------------------------


def test_brauer_threshold_location(brauer):
    # bisection oracle: the threshold solves ddw(s) = nu0
    p = brauer.params
    assert 2.0 <= p.s_star <= 2.1

    def ddw(s):
        return BRAUER_K1 * np.exp(BRAUER_K2 * s * s) * (1 + 2 * BRAUER_K2 * s * s) + BRAUER_K3

    lo, hi = 2.0, 2.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ddw(mid) < NU0:
            lo = mid
        else:
            hi = mid
    assert p.s_star == pytest.approx(0.5 * (lo + hi), rel=1e-11)


def test_brauer_c2_matching(brauer):
    from magfem.cli import brauer_c2_residuals

    res = brauer_c2_residuals(brauer.params)
    assert max(res) <= 1e-9


def test_brauer_rejects_missing_threshold():
    with pytest.raises(ValueError):
        mf.brauer_build(k1=3.8, k2=2.17, k3=396.2, nu0=399.0)


@given(
    st.floats(min_value=1000.0, max_value=1e7),
    st.floats(min_value=2000.0, max_value=2e7),
)
@settings(max_examples=30, deadline=None)
def test_brauer_threshold_monotone_in_nu0(nu0_a, nu0_b):
    # ddw is increasing in s, so a larger nu0 moves the root outward
    lo, hi = sorted((nu0_a, nu0_b))
    if hi <= BRAUER_K1 + BRAUER_K3 or hi / lo < 1.001:
        return
    s_lo = mf.brauer_build(BRAUER_K1, BRAUER_K2, BRAUER_K3, lo).s_star
    s_hi = mf.brauer_build(BRAUER_K1, BRAUER_K2, BRAUER_K3, hi).s_star
    assert s_hi > s_lo


def test_brauer_curvature_constant_above_threshold(brauer):
    s = np.linspace(brauer.params.s_star * (1 + 1e-9), 4.0, 50)
    _, _, d2 = brauer._profile(s)
    assert np.allclose(d2, NU0, rtol=1e-14)


def test_brauer_curvature_nondecreasing_below_threshold(brauer):
    s = np.linspace(0.0, brauer.params.s_star, 500)
    _, _, d2 = brauer._profile(s)
    assert np.all(np.diff(d2) >= 0.0)


def test_brauer_at_zero_field(brauer):
    w, h, nu_d = material_eval(brauer, (0.0, 0.0), (0.0, 0.0))
    # w(0) = k1/(2 k2), the unnormalized energy offset of the law
    assert w == pytest.approx(BRAUER_K1 / (2 * BRAUER_K2), rel=1e-14)
    assert np.allclose(h, 0.0)
    assert np.allclose(nu_d, (BRAUER_K1 + BRAUER_K3) * np.eye(2), rtol=1e-12)
    assert BRAUER_K1 + BRAUER_K3 == 400.0


def test_linear_isotropic_example():
    w, h, nu_d = material_eval(mf.LinearLaw(2.0), (0.0, 0.0), (3.0, 0.0))
    assert w == pytest.approx(9.0)
    assert np.allclose(h, [6.0, 0.0])
    assert np.allclose(nu_d, 2.0 * np.eye(2))


def test_permanent_magnet_example():
    w, h, nu_d = material_eval(mf.LinearLaw(1.0, (0.0, 1.0)), (0.0, 0.0), (0.0, 0.0))
    assert w == pytest.approx(0.0)
    assert np.allclose(h, [0.0, -1.0])
    assert np.allclose(nu_d, np.eye(2))


def test_non_finite_flux_rejected(brauer):
    with pytest.raises(ValueError):
        brauer.w(np.zeros((1, 2)), np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize(
    "kind, params, name",
    [
        ("linear", {"nu": "nan"}, "nu"),
        ("brauer", {"k2": float("inf")}, "k2"),
        ("anisotropic", {"n11": 1.0, "n22": 1.0, "n12": float("nan")}, "n12"),
    ],
)
def test_build_law_rejects_non_finite_parameter(kind, params, name):
    with pytest.raises(ValueError, match=f"parameter '{name}' must be finite"):
        build_law(kind, params)


@pytest.mark.parametrize(
    "args",
    [
        (np.nan,),
        (np.inf,),
        (NU0, (np.nan, 0.0)),
        (np.inf, (0.0, 0.0)),
        ([[1.0, 0.0], [0.0, np.inf]],),
    ],
    ids=["nu-nan", "nu-inf", "magnetization-nan", "nu-inf-magnetized", "matrix-inf"],
)
def test_linear_law_rejects_non_finite_parameters(args):
    # library callers get the check build_law applies to INI input
    with pytest.raises(ValueError, match="must be finite"):
        mf.LinearLaw(*args)


@pytest.mark.parametrize(
    "kind, params, matrix, magnetization, bounds",
    [
        ("linear", {"nu": "2.5"}, [[2.5, 0.0], [0.0, 2.5]], (0.0, 0.0), (2.5, 2.5)),
        (
            "permanent_magnet", {"mx": "1.1e6", "my": "-3e5"},
            [[NU0, 0.0], [0.0, NU0]], (1.1e6, -3e5), (NU0, NU0),
        ),
        (
            "anisotropic", {"n11": "3", "n22": "2", "n12": "1"},
            [[3.0, 1.0], [1.0, 2.0]], (0.0, 0.0), (1.381966011250105, 3.618033988749895),
        ),
    ],
    ids=["linear", "permanent_magnet", "anisotropic"],
)
def test_linear_ini_kinds_build_one_linear_law(kind, params, matrix, magnetization, bounds):
    law = build_law(kind, params)
    assert isinstance(law, mf.LinearLaw)
    assert np.array_equal(law.reluctivity, matrix)
    assert np.array_equal(law.magnetization, magnetization)
    assert (law.gamma, law.lipschitz, law.hess_lipschitz) == (*bounds, 0.0)

    (n11, n12), (_, n22) = matrix
    mx, my = magnetization
    b = rng(11).normal(scale=1.5, size=(200, 2))
    b0, b1 = b[:, 0], b[:, 1]
    x = np.zeros_like(b)

    def close(got, want, scale):  # within 4 ulps of the terms' magnitude
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))

    quad = n11 * b0 * b0 + 2 * n12 * b0 * b1 + n22 * b1 * b1
    quad_scale = n11 * b0 * b0 + 2 * np.abs(n12 * b0 * b1) + n22 * b1 * b1
    close(law.w(x, b), 0.5 * quad - (mx * b0 + my * b1),
          0.5 * quad_scale + np.abs(mx * b0) + np.abs(my * b1))
    h = law.dw(x, b)
    close(h[:, 0], n11 * b0 + n12 * b1 - mx, np.abs(n11 * b0) + np.abs(n12 * b1) + abs(mx))
    close(h[:, 1], n12 * b0 + n22 * b1 - my, np.abs(n12 * b0) + np.abs(n22 * b1) + abs(my))
    close(law.d2w(x, b), np.broadcast_to(matrix, (len(b), 2, 2)), np.abs(matrix))


# -- derivative consistency ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(all_laws()))
def test_gradient_matches_finite_differences(name):
    law = all_laws()[name]
    generator = rng(7)
    x = np.zeros((1, 2))
    for _ in range(50):
        b = generator.normal(scale=0.9, size=2)
        step = 1e-5 * (1.0 + np.linalg.norm(b))
        grad = law.dw(x, b[None, :])[0]
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd[i] = (law.w(x, (b + e)[None, :])[0] - law.w(x, (b - e)[None, :])[0]) / (
                2 * step
            )
        assert np.linalg.norm(grad - fd) <= 1e-6 * (1.0 + np.linalg.norm(grad))


@pytest.mark.parametrize("name", sorted(all_laws()))
def test_hessian_matches_finite_differences(name):
    law = all_laws()[name]
    generator = rng(8)
    x = np.zeros((1, 2))
    for _ in range(50):
        b = generator.normal(scale=0.9, size=2)
        step = 1e-5 * (1.0 + np.linalg.norm(b))
        hess = law.d2w(x, b[None, :])[0]
        fd = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd[:, i] = (
                law.dw(x, (b + e)[None, :])[0] - law.dw(x, (b - e)[None, :])[0]
            ) / (2 * step)
        assert np.abs(hess - fd).max() <= 1e-5 * (1.0 + np.abs(hess).max())


@pytest.mark.parametrize("name", sorted(all_laws()))
def test_hessian_symmetric_with_bounded_spectrum(name):
    law = all_laws()[name]
    generator = rng(9)
    b = generator.normal(scale=1.2, size=(200, 2))
    H = law.d2w(np.zeros_like(b), b)
    assert np.abs(H - np.swapaxes(H, 1, 2)).max() <= 1e-12 * np.abs(H).max()
    eigs = np.linalg.eigvalsh(H)
    assert np.all(eigs[:, 0] >= law.gamma * (1 - 1e-12))
    assert np.all(eigs[:, 1] <= law.lipschitz * (1 + 1e-12))


def _outer_product_d2w(law, b):
    """The Hessian written with two full (n, 2, 2) temporaries."""
    b, s, (_, d1, d2) = law._radial(b)
    nu = law._chord(s, d1, d2)
    small = s < _RADIAL_EPS
    safe = np.where(small, 1.0, s)
    unit = b / safe[:, None]
    unit[small] = 0.0
    out = np.zeros((len(s), 2, 2))
    out[:, 0, 0] = nu
    out[:, 1, 1] = nu
    out += (d2 - nu)[:, None, None] * unit[:, :, None] * unit[:, None, :]
    return out


@pytest.mark.parametrize("name", ["brauer"])
def test_hessian_is_bit_identical_to_the_outer_product_form(name):
    law = all_laws()[name]
    generator = rng(10)
    b = np.concatenate([
        generator.normal(scale=1.5, size=(4000, 2)),
        generator.normal(scale=1e-13, size=(50, 2)),  # inside the small-radius branch
        [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-1.0, -0.0], [-0.0, 2.5]],
    ])
    got = law.d2w(np.zeros_like(b), b)
    assert got.tobytes() == _outer_product_d2w(law, b).tobytes()  # the sign of zero too


def test_strong_monotonicity_of_brauer(brauer):
    # gamma |a-b|^2 <= <dw(a) - dw(b), a-b> <= L |a-b|^2 on random pairs
    generator = rng(10)
    a = generator.normal(scale=1.5, size=(1000, 2))
    b = generator.normal(scale=1.5, size=(1000, 2))
    x = np.zeros_like(a)
    pair = np.sum((brauer.dw(x, a) - brauer.dw(x, b)) * (a - b), axis=1)
    dist2 = np.sum((a - b) ** 2, axis=1)
    assert np.all(pair >= brauer.gamma * dist2 * (1 - 1e-12))
    assert np.all(pair <= brauer.lipschitz * dist2 * (1 + 1e-12))


# -- certified bounds ----------------------------------------------------------


def test_certify_linear_law():
    gamma, lip, l2 = certify_bounds(mf.LinearLaw(3.5), radial_samples(2.0))
    assert gamma == pytest.approx(3.5)
    assert lip == pytest.approx(3.5)
    assert l2 == pytest.approx(0.0, abs=1e-12)


def test_certify_anisotropic_diag():
    gamma, lip, l2 = certify_bounds(
        mf.LinearLaw(np.diag([1.0, 4.0])), radial_samples(1.0)
    )
    assert gamma == pytest.approx(1.0)
    assert lip == pytest.approx(4.0)
    assert l2 == pytest.approx(0.0, abs=1e-12)


def test_certify_brauer_bounds(brauer):
    gamma, lip, l2 = certify_bounds(brauer, radial_samples(2 * brauer.params.s_star))
    assert gamma == pytest.approx(400.0, rel=1e-10)
    assert lip == pytest.approx(NU0, rel=1e-10)
    assert l2 > 1e6  # steep curvature growth near the threshold
    assert brauer.gamma == 400.0
    assert brauer.lipschitz == NU0


def test_certify_empty_samples_rejected(brauer):
    with pytest.raises(ValueError):
        certify_bounds(brauer, np.zeros((0, 2)))


def test_brauer_hess_lipschitz_reported(brauer):
    # scan value: max |wt'''| over the core branch; analytic form
    # wt'''(s) = 2 k1 k2 s e^{k2 s^2} (3 + 2 k2 s^2), maximal at s_star
    s = brauer.params.s_star
    analytic = (
        2 * BRAUER_K1 * BRAUER_K2 * s * np.exp(BRAUER_K2 * s * s) * (3 + 2 * BRAUER_K2 * s * s)
    )
    assert brauer.hess_lipschitz == pytest.approx(analytic, rel=1e-2)
