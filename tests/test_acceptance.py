"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion asserts at its stated tolerance, so the pytest
verdict is authoritative either way.
"""

import dataclasses
import time

import numpy as np
import pytest

import magfem as mf
from magfem import assembly, harness
from magfem.femspace import CoefficientVector, eval_curl_batch, tabulate_curl
from magfem.materials import NU0
from magfem.quadrature import STORED_DEGREES, rule_for_degree
from magfem.harness import (
    annulus_mapped_benchmark,
    manufactured_benchmark,
    pm_toy_benchmark,
    problem_at_level,
    two_wire_disc_benchmark,
)

from conftest import (
    annulus_direct_benchmark,
    l2_norm_oracle,
    monomial_integral,
    quadratic_tail_diagnostic,
    rng,
    run_newton_with_history,
    zarantonello_contraction,
    zarantonello_solve,
)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _with_tol(tol, cfg=None):
    return dataclasses.replace(cfg or mf.NewtonConfig(), tol_increment=tol, tol_residual=tol)


# -- shared fixtures -----------------------------------------------------------


@pytest.fixture(scope="module")
def manufactured_studies():
    """4-level studies for k = 1 and k = 2, with wall time."""
    bench = manufactured_benchmark()
    t0 = time.perf_counter()
    rows = {k: harness.run_study(bench, order=k, levels=4) for k in (1, 2)}
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def benchmark_runs():
    """One solve per benchmark plus a high-accuracy reference energy."""
    runs = {}
    specs = [
        ("manufactured", manufactured_benchmark(), 1, 1),
        ("two_wire_disc", two_wire_disc_benchmark(), 0, 1),
        ("pm_toy", pm_toy_benchmark(), 0, 1),
        ("annulus_mapped", annulus_mapped_benchmark(), 1, 1),
    ]
    for name, bench, level, order in specs:
        problem = problem_at_level(bench, level, order=order)
        coeffs, report, history = run_newton_with_history(problem)
        assert report.converged, f"{name} benchmark solve failed"
        ref, ref_report = mf.newton_solve(problem, cfg=_with_tol(1e-13))
        runs[name] = {
            "problem": problem,
            "coeffs": coeffs,
            "report": report,
            "history": history,
            "reference": ref,
            "ref_energy": assembly.assemble_energy(problem, ref),
        }
    return runs


# -- criteria ------------------------------------------------------------------


def test_criterion_01_manufactured_eoc(manufactured_studies):
    rows, elapsed = manufactured_studies
    windows = {1: (1.8, 2.3), 2: (2.7, 3.3)}
    finest = {k: (r[-1].eoc_b, r[-1].eoc_h) for k, r in rows.items()}
    ok = all(
        windows[k][0] <= eoc <= windows[k][1] for k, pair in finest.items() for eoc in pair
    )
    max_ne = max(r[-1].ne for r in rows.values())
    ok = ok and max_ne <= 100_000 and elapsed < 120.0
    _report(
        1,
        ok,
        f"k=1 eoc(b,h)=({finest[1][0]:.3f},{finest[1][1]:.3f}) in [1.8,2.3], "
        f"k=2 eoc(b,h)=({finest[2][0]:.3f},{finest[2][1]:.3f}) in [2.7,3.3], "
        f"finest ne={max_ne}, runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_02_mesh_and_degree_independent_newton_counts(manufactured_studies):
    rows, _ = manufactured_studies
    counts = [r.iter for k in (1, 2) for r in rows[k]]
    spread = max(counts) - min(counts)
    _report(
        2,
        spread <= 1,
        f"iteration counts over 4 levels x k in {{1,2}}: {counts} (spread {spread} <= 1)",
    )


def test_criterion_03_global_energy_contraction_bound(benchmark_runs):
    worst = None
    ok = True
    for name, run in benchmark_runs.items():
        report = run["report"]
        w_ref = run["ref_energy"]
        q = report.q_bound
        energies = report.energies()
        gap0 = energies[0] - w_ref
        for n, w in enumerate(energies):
            ok = ok and (w - w_ref) <= q**n * gap0 * (1 + 1e-12) + 1e-12 * abs(w_ref)
        decays = all(b <= a for a, b in zip(energies, energies[1:]))
        ok = ok and decays
        # companion iterate bound with C = L/gamma
        problem, ref = run["problem"], run["reference"]
        gamma, lip = report.gamma, report.lipschitz
        e0 = assembly.curl_norm(problem, run["history"][0] - ref.values)
        for n, vec in enumerate(run["history"]):
            en = assembly.curl_norm(problem, vec - ref.values)
            ok = ok and en**2 <= (lip / gamma) * q**n * e0**2 * (1 + 1e-10)
        if worst is None or q > worst[1]:
            worst = (name, q)
    _report(
        3,
        ok,
        f"W(a^n) - W_ref <= q^n (W(a^0) - W_ref), monotone decay, and the "
        f"iterate bound with C = L/gamma on all 4 benchmarks "
        f"(loosest q = {worst[1]:.12f} on {worst[0]})",
    )


def test_criterion_04_step_floor_and_energy_norm_sandwich(benchmark_runs):
    ok_floor = True
    for run in benchmark_runs.values():
        report = run["report"]
        floor = min(1.0, 2 * 0.5 * (1 - 0.01) * report.gamma / report.lipschitz)
        ok_floor = ok_floor and all(
            floor <= rec.tau <= 1.0 for rec in report.iterations
        )

    run = benchmark_runs["manufactured"]
    problem, ref = run["problem"], run["reference"]
    gamma, lip = problem.certified_bounds()
    w_ref = run["ref_energy"]
    scale = np.linalg.norm(ref.values)
    generator = rng(100)
    ok_sandwich = True
    for _ in range(100):
        delta = generator.normal(size=problem.space.n_free)
        delta *= 0.01 * scale / np.linalg.norm(delta)
        gap = assembly.assemble_energy(problem, CoefficientVector(problem.space, ref.values + delta)) - w_ref
        nrm2 = assembly.curl_norm(problem, delta) ** 2
        ok_sandwich = ok_sandwich and 0.5 * gamma * nrm2 <= gap * (1 + 1e-9)
        ok_sandwich = ok_sandwich and gap <= 0.5 * lip * nrm2 * (1 + 1e-9)
    _report(
        4,
        ok_floor and ok_sandwich,
        "accepted tau >= min(1, 2 rho (1-sigma) gamma/L) on all runs; "
        "gamma/2 |Curl d|^2 <= W(v)-W(a) <= L/2 |Curl d|^2 for 100 perturbations",
    )


def test_criterion_05_quadratic_tail():
    bench = manufactured_benchmark()
    problem = problem_at_level(bench, 2, order=2)
    coeffs, report, history = run_newton_with_history(problem, cfg=_with_tol(1e-12))
    ref, _ = mf.newton_solve(problem, cfg=_with_tol(1e-13))
    diag = quadratic_tail_diagnostic(report, history, ref, problem)
    tail = report.iterations[diag.full_step_start :]
    ok = (
        diag.sufficient
        and len(tail) >= 3
        and all(rec.tau == 1.0 and rec.backtracks == 0 for rec in tail)
        and np.isfinite(diag.m_hat)
        and diag.stable_within <= 10.0
    )
    _report(
        5,
        ok,
        f"final {len(tail)} iterations all tau=1 with 0 backtracks; "
        f"M_hat={diag.m_hat:.3g}, last ratios stable within x{diag.stable_within:.2f} <= 10",
    )


def test_criterion_06_zarantonello_contraction():
    bench = manufactured_benchmark()
    problem = problem_at_level(bench, 1, order=1)
    gamma, lip = problem.certified_bounds()
    tau = gamma / lip**2
    bound = zarantonello_contraction(tau, gamma, lip)
    cfg = dataclasses.replace(mf.NewtonConfig(), max_iter=6)
    _, report = zarantonello_solve(problem, tau=tau, cfg=cfg)
    ok = len(report.contraction_ratios) >= 3 and all(
        r <= bound + 1e-8 for r in report.contraction_ratios
    )

    nu = 2.0
    lin = problem_at_level(manufactured_benchmark(law=mf.LinearLaw(nu)), 1, order=1)
    zc, zrep = zarantonello_solve(lin, tau=1.0 / nu)
    nref, _ = mf.newton_solve(lin)
    one_step = (
        np.linalg.norm(zc.values - nref.values) <= 1e-10 * np.linalg.norm(nref.values)
        and zrep.contraction_ratios[0] <= 1e-8
    )
    _report(
        6,
        ok and one_step,
        f"ratios max {max(report.contraction_ratios):.12f} <= bound {bound:.12f} + 1e-8; "
        "linear law with tau=1/nu converges in one step",
    )


def test_criterion_07_quadrature_exactness_and_norm_identity():
    worst = 0.0
    for degree in STORED_DEGREES:
        rule = rule_for_degree(degree)
        for total in range(degree + 1):
            for p in range(total + 1):
                q = total - p
                approx = 0.5 * float(
                    np.sum(rule.weights * rule.points[:, 0] ** p * rule.points[:, 1] ** q)
                )
                exact = monomial_integral(p, q)
                worst = max(worst, abs(approx - exact) / exact)
    ok_exact = worst <= 1e-13

    mesh = mf.generate_unit_square(3)
    space = mf.build_space(mesh, 2, {1})
    rule = rule_for_degree(2)  # 2k for k = 1
    curls = tabulate_curl(space, rule)
    areas = np.abs(mesh.signed_areas())
    generator = rng(101)
    worst_norm = 0.0
    for _ in range(100):
        coeffs = CoefficientVector(space, generator.normal(size=space.n_free))
        local = coeffs.full()[space.conn]
        b = np.einsum("el,eqli->eqi", local, curls)
        quad = np.sqrt((((b**2).sum(2)) @ rule.weights) @ areas)
        oracle = l2_norm_oracle(
            mesh, lambda els, ref: eval_curl_batch(space, coeffs, els, ref), 2
        )
        worst_norm = max(worst_norm, abs(quad - oracle) / oracle)
    ok_norm = worst_norm <= 1e-12
    _report(
        7,
        ok_exact and ok_norm,
        f"monomial exactness worst rel err {worst:.2e} <= 1e-13; "
        f"|Curl v|_h vs L2 worst rel dev {worst_norm:.2e} <= 1e-12 over 100 fields",
    )


def test_criterion_08_derivative_chain():
    from magfem.geometry import quarter_annulus_map

    laws = {  # (law, domain map)
        "brauer": (mf.brauer_reference(), None),
        "copper": (mf.LinearLaw(NU0), None),
        "magnet": (mf.LinearLaw(NU0, (0.0, 1.3 * NU0)), None),
        "mapped_anisotropic": (
            mf.LinearLaw(harness.ANNULUS_MATRIX), quarter_annulus_map(0.5, 1.0)
        ),
    }
    ok = True
    details = []
    for name, (law, domain_map) in laws.items():
        problem = assembly.Problem(
            mesh=mf.generate_unit_square(2),
            order=1,
            materials={1: law},
            dirichlet_tags=frozenset({1}),
            domain_map=domain_map,
        )
        generator = rng(hash(name) % 2**32)
        worst_g, worst_h = 0.0, 0.0
        for _ in range(20):
            state = generator.normal(scale=0.25, size=problem.space.n_free)
            coeffs = CoefficientVector(problem.space, state)
            eps = 1e-6 * (1.0 + np.linalg.norm(state))

            res = assembly.assemble_residual(problem, coeffs)
            fd = np.empty_like(res)
            for i in range(len(res)):
                e = np.zeros_like(state)
                e[i] = eps
                wp = assembly.assemble_energy(problem, CoefficientVector(problem.space, state + e))
                wm = assembly.assemble_energy(problem, CoefficientVector(problem.space, state - e))
                fd[i] = (wp - wm) / (2 * eps)
            g_err = np.linalg.norm(res - fd) / (1.0 + np.linalg.norm(res))
            worst_g = max(worst_g, g_err)

            H = assembly.assemble_hessian(problem, coeffs).toarray()
            for j in range(H.shape[0]):
                e = np.zeros_like(state)
                e[j] = eps
                rp = assembly.assemble_residual(problem, CoefficientVector(problem.space, state + e))
                rm = assembly.assemble_residual(problem, CoefficientVector(problem.space, state - e))
                col = (rp - rm) / (2 * eps)
                h_err = np.linalg.norm(H[:, j] - col) / (1.0 + np.linalg.norm(H[:, j]))
                worst_h = max(worst_h, h_err)
        ok = ok and worst_g <= 1e-6 and worst_h <= 1e-5
        details.append(f"{name}: grad {worst_g:.1e}, hess {worst_h:.1e}")
    _report(8, ok, "FD chain at 20 random states per material -- " + "; ".join(details))


def test_criterion_09_pullback_equivalence():
    level = 1
    pa = problem_at_level(annulus_mapped_benchmark(), level)
    pd = problem_at_level(annulus_direct_benchmark(), level)
    ca, _ = mf.newton_solve(pa)
    cd, _ = mf.newton_solve(pd)
    rule = rule_for_degree(4)
    # the same discrete problem on the same space: both evaluated on the direct one
    _, wq, ba, _, bd, _ = assembly.fields_at_quadrature(pd, ca, cd, rule=rule)
    rel = assembly.l2_norm(wq, ba - bd) / assembly.l2_norm(wq, bd)
    tol = 10 * mf.NewtonConfig().tol_residual
    ok_flux = rel <= tol

    generator = rng(102)
    worst = 0.0
    for _ in range(200):
        F = generator.normal(size=(2, 2))
        if np.linalg.det(F) <= 0.05:
            F = F + 2.0 * np.eye(2)
        J = np.linalg.det(F)
        b1, b2 = generator.normal(size=2), generator.normal(size=2)
        h1, h2 = generator.normal(size=2), generator.normal(size=2)
        lhs = (F.T @ (h1 - h2)) @ (b1 - b2)
        rhs = J * ((h1 - h2) @ ((F @ (b1 - b2)) / J))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    ok_pairing = worst <= 1e-12
    _report(
        9,
        ok_flux and ok_pairing,
        f"mapped vs direct flux rel diff {rel:.2e} <= {tol:.0e}; "
        f"pairing identity worst rel dev {worst:.2e} <= 1e-12",
    )


def test_criterion_10_brauer_construction():
    params = mf.brauer_build(k1=3.8, k2=2.17, k3=396.2, nu0=NU0)
    law = mf.BrauerLaw(params)
    from magfem.cli import brauer_c2_residuals

    res = brauer_c2_residuals(params)
    gamma_hat, l_hat, _ = mf.certify_bounds(
        law, mf.radial_samples(2.0 * params.s_star, n=801)
    )
    ok = (
        2.0 <= params.s_star <= 2.1
        and max(res) <= 1e-9
        and law.gamma == 3.8 + 396.2 == 400.0
        and law.lipschitz == NU0
        and abs(gamma_hat - 400.0) <= 1e-9 * 400.0
        and abs(l_hat - NU0) <= 1e-9 * NU0
    )
    _report(
        10,
        ok,
        f"s_star = {params.s_star:.4f} in [2.0, 2.1]; C2 residuals max {max(res):.1e} "
        f"<= 1e-9; scan gamma {gamma_hat:.6f} = k1+k3, L {l_hat:.2f} = nu0",
    )


def test_criterion_11_singular_problem_robustness():
    bench = pm_toy_benchmark()
    counts = []
    for level in range(3):
        problem = problem_at_level(bench, level)
        _, report = mf.newton_solve(problem)
        assert report.converged
        counts.append(report.n_iterations)
    spread = max(counts) - min(counts)
    rows = harness.run_study(bench, levels=2)
    eocs = [r.eoc_b for r in rows if r.eoc_b is not None]
    ok = spread <= 2 and all(e > 0.0 for e in eocs)
    _report(
        11,
        ok,
        f"iteration counts {counts} over 3 levels (spread {spread} <= 2); "
        f"eoc_b {['%.2f' % e for e in eocs]} positive, below k+1 as expected",
    )
