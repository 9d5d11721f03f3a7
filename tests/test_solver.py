import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import magfem as mf
from magfem import assembly, multigrid, solver
from magfem.femspace import CoefficientVector
from magfem.harness import manufactured_benchmark, pm_toy_benchmark, problem_at_level

from conftest import (
    SpatialLinearLaw,
    quadratic_tail_diagnostic,
    rng,
    run_newton_with_history,
    zarantonello_contraction,
    zarantonello_solve,
)


def _tight(cfg=None, **kw):
    return dataclasses.replace(cfg or mf.NewtonConfig(), **kw)


# -- conjugate gradients -------------------------------------------------------


def test_cg_identity_converges_in_one_iteration():
    A = sp.identity(5, format="csr")
    b = np.arange(1.0, 6.0)
    x, info = mf.solve_cg(A, b)
    assert np.allclose(x, b)
    assert info.iterations == 1
    assert info.converged
    assert info.stopped_by == "tolerance"


def test_cg_diagonal_system():
    A = sp.diags([2.0, 1.0]).tocsr()
    x, info = mf.solve_cg(A, np.array([2.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0])
    assert info.converged


def test_cg_zero_rhs():
    A = sp.identity(3, format="csr")
    x, info = mf.solve_cg(A, np.zeros(3))
    assert np.all(x == 0.0)
    assert info.iterations == 0


def test_cg_matches_direct_solve_within_2n_iterations():
    # random SPD systems: finite termination (with rounding slack 2n)
    generator = rng(11)
    for n in (10, 30, 50):
        M = generator.normal(size=(n, n))
        A = sp.csr_matrix(M @ M.T + n * np.eye(n))
        b = generator.normal(size=n)
        cfg = solver.CGConfig(rel_tol=1e-12, max_iter=2 * n)
        x, info = mf.solve_cg(A, b, cfg)
        assert info.converged
        assert info.iterations <= 2 * n
        oracle = np.linalg.solve(A.toarray(), b)
        assert np.allclose(x, oracle, rtol=1e-9, atol=1e-12)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_budget_exhaustion_reported_not_raised():
    generator = rng(12)
    M = generator.normal(size=(40, 40))
    A = sp.csr_matrix(M @ M.T + 1e-3 * np.eye(40))
    b = generator.normal(size=40)
    x, info = mf.solve_cg(A, b, solver.CGConfig(rel_tol=1e-14, max_iter=3))
    assert not info.converged
    assert info.iterations == 3
    assert info.stopped_by == "budget"
    assert info.residual_norm == np.linalg.norm(b - A @ x)


def test_cg_stall_at_the_rounding_floor_is_reported():
    # no float64 solution has a true residual of 1e-20 ||b||: the restarts
    # from the true residual stop halving it, well inside the budget
    generator = rng(13)
    M = generator.normal(size=(30, 30))
    A = sp.csr_matrix(M @ M.T + 30 * np.eye(30))
    b = generator.normal(size=30)
    x, info = mf.solve_cg(A, b, solver.CGConfig(rel_tol=1e-20, max_iter=1000))
    assert info.stopped_by == "floor"
    assert not info.converged
    assert info.iterations < 1000
    assert info.residual_norm <= 1e-13 * np.linalg.norm(b)


def test_cg_deterministic():
    generator = rng(14)
    M = generator.normal(size=(25, 25))
    A = sp.csr_matrix(M @ M.T + 25 * np.eye(25))
    b = generator.normal(size=25)
    x1, _ = mf.solve_cg(A, b)
    x2, _ = mf.solve_cg(A, b)
    assert np.array_equal(x1, x2)


class _IdentityCycle:
    """A preconditioner that returns its input, in `multigrid.VCycle`'s place."""

    def __init__(self, operators, levels, **kwargs):
        self.sizes = [operators[0].shape[0]]

    def __call__(self, r):
        return r.copy()


def test_cg_rejects_indefinite(monkeypatch):
    # a positive diagonal passes the diagonal check, but the V-cycle's
    # coarsest Cholesky factorization fails
    A = sp.csr_matrix([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(solver.SolverError, match="coarse operator not positive definite"):
        mf.solve_cg(A, np.array([1.0, 0.0]))
    # unpreconditioned, the second direction has p.Ap < 0
    monkeypatch.setattr(multigrid, "VCycle", _IdentityCycle)
    with pytest.raises(solver.SolverError, match="not positive definite in CG"):
        mf.solve_cg(A, np.array([1.0, 0.0]))


# -- Newton --------------------------------------------------------------------


def test_newton_config_validation():
    with pytest.raises(ValueError):
        mf.NewtonConfig(rho=0.6)
    with pytest.raises(ValueError):
        mf.NewtonConfig(sigma=0.5)
    with pytest.raises(ValueError):
        mf.NewtonConfig(sigma=0.0)


def test_linear_law_converges_in_one_iteration():
    cfg = mf.NewtonConfig()
    spatial = SpatialLinearLaw(lambda x: np.einsum("n,ij->nij", 1.0 + x[:, 0] ** 2, np.eye(2)))
    for law in (mf.LinearLaw(1.0), spatial):
        problem = problem_at_level(manufactured_benchmark(law=law), 1, order=1)
        assert problem.linear and problem.describe()["linear"] is True
        _, report = mf.newton_solve(problem, cfg=cfg)
        assert report.converged
        # the one step is exact: a linear problem gets no loose first solve
        assert [(rec.tau, rec.backtracks, rec.cg_rel_tol) for rec in report.iterations] == [
            (1.0, 0, cfg.cg.rel_tol)
        ]


def test_newton_directions_satisfy_descent_guarantee(small_brauer_problem):
    # <dw(b) - h_s, Curl da>_h <= -gamma ||Curl da||_h^2 for every step
    problem = small_brauer_problem
    coeffs, report, history = run_newton_with_history(problem)
    gamma, _ = problem.certified_bounds()
    for n, rec in enumerate(report.iterations):
        res = assembly.assemble_residual(
            problem, CoefficientVector(problem.space, history[n])
        )
        delta = (history[n + 1] - history[n]) / rec.tau
        slope = float(res @ delta)
        inc2 = assembly.curl_norm(problem, delta) ** 2
        assert slope <= -gamma * inc2 * (1 - 1e-9)


def test_newton_monotone_energy_decrease(small_brauer_problem):
    coeffs, report = mf.newton_solve(small_brauer_problem)
    energies = report.energies()
    assert report.converged
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_newton_zero_problem_converges_immediately():
    # zero magnetization, zero current: a = 0 is the minimizer
    from magfem.harness import pm_toy_benchmark

    bench = pm_toy_benchmark(remanence=0.0)
    problem = problem_at_level(bench, 0)
    coeffs, report = mf.newton_solve(problem)
    assert report.converged
    assert report.n_iterations == 0
    assert np.all(coeffs.values == 0.0)


def _unconstrained_problem(brauer_law, n=4, order=1, **source):
    # no Dirichlet boundary: the potential is fixed only up to a constant
    return mf.Problem(
        mesh=mf.refine_uniform(mf.generate_unit_square(n)),
        order=order,
        materials={1: brauer_law},
        dirichlet_tags=frozenset(),
        **source,
    )


def _consistent_field(x):
    return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2])


def test_newton_converges_without_constrained_dofs(brauer_law):
    # consistent (Curl 1 = 0, so the load is orthogonal to the constants) but
    # singular: CG used to drift along the constants and meet p.Ap <= 0
    problem = _unconstrained_problem(brauer_law, hs_field=_consistent_field)
    _, report = mf.newton_solve(problem)
    assert report.converged
    # P2 on the refined and the base mesh, then P1 on the base mesh
    assert report.preconditioner == {"kind": "multigrid", "levels": [289, 81, 25]}
    assert all(rec.cg_converged for rec in report.iterations)


def test_inconsistent_singular_problem_is_reported_not_raised(brauer_law):
    # a current density has a load along the constants, which no potential balances
    _, report = mf.newton_solve(_unconstrained_problem(brauer_law, js_density={1: 4e3}))
    assert not report.converged
    assert report.failure == "linear_solve"


def test_consistent_singular_p4_problem_is_not_reported_inconsistent(brauer_law):
    # on P4 the rounding of res . 1 adds up over the elements, to about
    # 73 eps sqrt(n) times the residual's scale on this mesh
    problem = _unconstrained_problem(brauer_law, n=8, order=3, hs_field=_consistent_field)
    _, report = mf.newton_solve(problem)
    assert report.converged


def test_newton_from_nonzero_start_reaches_same_solution(small_brauer_problem):
    problem = small_brauer_problem
    ref, _ = mf.newton_solve(problem)
    a0 = CoefficientVector(
        problem.space, rng(16).normal(scale=0.1, size=problem.space.n_free)
    )
    coeffs, report = mf.newton_solve(problem, a0=a0)
    assert report.converged
    rel = assembly.curl_norm(problem, coeffs.values - ref.values)
    assert rel <= 1e-7 * assembly.curl_norm(problem, ref.values)


def test_newton_respects_max_iter(small_brauer_problem):
    cfg = _tight(max_iter=2)
    coeffs, report = mf.newton_solve(small_brauer_problem, cfg=cfg)
    assert not report.converged
    assert report.failure == "max_iter"
    assert report.n_iterations == 2


def test_newton_stops_on_overflowed_residual(brauer_law):
    # a finite 1e300 current density overflows the residual norm to inf,
    # which must not pass the (then also infinite) rounding-floor test
    problem = mf.Problem(
        mesh=mf.generate_unit_square(4),
        order=1,
        materials={1: brauer_law},
        dirichlet_tags=frozenset({1}),
        js_density={1: 1e300},
    )
    with np.errstate(over="ignore"):
        _, report = mf.newton_solve(problem)
    assert not report.converged
    assert report.failure == "non_finite"
    assert report.n_iterations == 0


def _weak_source_problem(brauer_law):
    # a source of 1e-100 keeps the slope res . delta of an overflowing
    # direction finite, so the line search is what meets the overflow
    return mf.Problem(
        mesh=mf.generate_unit_square(4),
        order=1,
        materials={1: brauer_law},
        dirichlet_tags=frozenset({1}),
        hs_field=lambda x: 1e-100 * np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2]),
    )


def test_newton_stops_on_overflowing_trial(brauer_law, overflowing_newton_direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        coeffs, report = mf.newton_solve(_weak_source_problem(brauer_law))
    assert not report.converged
    assert report.failure == "non_finite"
    assert report.n_iterations == 0
    assert np.all(coeffs.values == 0.0)


def test_newton_stops_on_overflowing_slope(small_brauer_problem, overflowing_newton_direction):
    # with a unit-size source, the descent check res . delta overflows
    # before the line search is reached
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        coeffs, report = mf.newton_solve(small_brauer_problem)
    assert report.failure == "non_finite"
    assert report.n_iterations == 0
    assert np.all(coeffs.values == 0.0)


def test_energy_of_an_overflowed_flux_is_nan(brauer_law):
    problem = _weak_source_problem(brauer_law)
    coeffs = CoefficientVector(problem.space, np.full(problem.space.n_free, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(assembly.assemble_energy(problem, coeffs))


def test_newton_stops_on_non_finite_direction(small_brauer_problem, nan_newton_direction):
    # a NaN direction is a solver failure, caught before the line search
    # evaluates the energy at a NaN trial
    coeffs, report = mf.newton_solve(small_brauer_problem)
    assert not report.converged
    assert report.failure == "non_finite"
    assert report.n_iterations == 0
    assert np.all(coeffs.values == 0.0)  # the last finite iterate: the start


def test_newton_stops_on_ascent_direction(small_brauer_problem, reversed_newton_direction):
    # an ascent direction fails before the line search, which could only
    # backtrack until it gives up
    coeffs, report = mf.newton_solve(small_brauer_problem)
    assert not report.converged
    assert report.failure == "linear_solve"
    assert report.n_iterations == 0
    assert np.all(coeffs.values == 0.0)
    assert '"failure": "linear_solve"' in report.to_json()


def _below_rounding_problem(brauer_law, n=6, order=2):
    # a file mesh (no parent, so multigrid over the P(k+1) -> P1 step alone) on which
    # the last full Newton step's decrease (about 3e-19 at n = 6, k = 2) is far
    # below ulp(W) ~ 1e-16
    mesh = mf.parse_mesh(mf.serialize_mesh(mf.refine_uniform(mf.generate_unit_square(n))))
    return mf.Problem(
        mesh=mesh,
        order=order,
        materials={1: brauer_law},
        dirichlet_tags=frozenset({1}),
        hs_field=lambda x: np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2]),
    )


#: solver.ENERGY_ROUNDING, read before a test sets it to 0.
ENERGY_ROUNDING = solver.ENERGY_ROUNDING


def _solve_with_a_rising_trial(monkeypatch, problem, cfg=mf.NewtonConfig(), every=False):
    """`newton_solve`, with the first trial energy that differs from the last
    assembled energy by less than the energy's rounding forced one ulp above it,
    or with `every` such energy forced.

    Whether that trial's assembled energy rises, ties or falls is the rounding
    of one sum on one mesh; forcing the rise makes Armijo reject the step on
    any mesh, so the below-rounding path runs. Forcing every one also rejects
    the backtracked trials, whose energies differ from the last by rounding too.
    """
    real = assembly.assemble_energy
    energies, forced = [], []

    def energy(problem, coeffs):
        value = real(problem, coeffs)
        last = energies[-1] if energies else None
        within = last is not None and abs(value - last) <= ENERGY_ROUNDING * abs(last)
        if within and (every or not forced):
            value = np.nextafter(last, np.inf)
            forced.append(value)
        energies.append(value)
        return value

    with monkeypatch.context() as m:
        m.setattr(assembly, "assemble_energy", energy)
        coeffs, report = mf.newton_solve(problem, cfg=cfg)
    assert len(forced) == 1 or every
    return coeffs, report


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_line_search_below_energy_rounding_uses_the_derivative(brauer_law, monkeypatch, n, order):
    problem = _below_rounding_problem(brauer_law, n, order)
    _, report = _solve_with_a_rising_trial(monkeypatch, problem)
    assert report.converged
    # the loose first solve leaves one full Armijo step before the forced rise
    assert [(rec.tau, rec.accepted_by) for rec in report.iterations] == [
        (1.0, "armijo"), (1.0, "armijo"), (1.0, "derivative"),
    ]
    # comparing energies alone backtracks on rounding noise until it gives up
    monkeypatch.setattr(solver, "ENERGY_ROUNDING", 0.0)
    with pytest.raises(solver.LineSearchError, match="backtracking exhausted"):
        _solve_with_a_rising_trial(monkeypatch, problem, cfg=_tight(max_iter=10), every=True)


def test_derivative_accepted_steps_record_the_trapezoid_energy(brauer_law, monkeypatch):
    problem = _below_rounding_problem(brauer_law)
    passed_tests = []  # (slope, d) of every trial the derivative test accepted
    real = solver._approximate_wolfe

    def recording(problem, trial, delta, slope, sigma):
        passed, d, res = real(problem, trial, delta, slope, sigma)
        if passed:
            passed_tests.append((slope, d))
        return passed, d, res

    monkeypatch.setattr(solver, "_approximate_wolfe", recording)
    coeffs, report = _solve_with_a_rising_trial(monkeypatch, problem)
    assert report.converged
    kinds = [rec.accepted_by for rec in report.iterations]
    assert kinds.count("derivative") == len(passed_tests) >= 1
    assert set(kinds) <= {"armijo", "derivative"}
    energies = report.energies()
    sigma = mf.NewtonConfig().sigma
    accepted = iter(passed_tests)
    for rec, after in zip(report.iterations, energies[1:]):
        if rec.accepted_by == "armijo":
            assert after < rec.energy
        else:
            slope, d = next(accepted)
            decrease = 0.5 * rec.tau * (slope + d)  # the trapezoid estimate
            assert decrease <= sigma * rec.tau * slope < 0.0
            # a decrease below half an ulp of W leaves the recorded value at W
            assert after == rec.energy + decrease <= rec.energy
    # the residual assembled by the derivative test is the final iterate's
    final = assembly.assemble_residual(problem, coeffs)
    assert report.final_residual_norm == float(np.linalg.norm(final))


@pytest.mark.parametrize("method", ["newton", "zarantonello"])
def test_iteration_records_carry_inner_solve(small_brauer_problem, monkeypatch, method):
    infos = []
    tols = []
    real = solver.solve_cg

    def recording(matrix, rhs, cfg, **kwargs):
        x, info = real(matrix, rhs, cfg, **kwargs)
        infos.append(info)
        tols.append(cfg.rel_tol)
        return x, info

    monkeypatch.setattr(solver, "solve_cg", recording)
    problem = small_brauer_problem
    if method == "newton":
        _, report = mf.newton_solve(problem)
    else:
        gamma, lip = problem.certified_bounds()
        _, report = zarantonello_solve(problem, tau=gamma / lip**2, cfg=_tight(max_iter=3))
    assert len(infos) == report.n_iterations > 0
    assert [
        (r.cg_iters, r.cg_converged, r.cg_residual, r.cg_stopped_by) for r in report.iterations
    ] == [(info.iterations, info.converged, info.residual_norm, info.stopped_by) for info in infos]
    assert [r.cg_rel_tol for r in report.iterations] == tols


def test_forcing_terms_follow_the_residual(small_brauer_problem):
    cfg = mf.NewtonConfig()
    _, report = mf.newton_solve(small_brauer_problem, cfg=cfg)
    first, *later = report.iterations
    assert not small_brauer_problem.linear
    assert first.cg_rel_tol == solver.FORCING_FIRST  # the global phase: a loose first solve
    for rec in later:
        ratio = rec.residual_norm / first.residual_norm
        assert rec.cg_rel_tol == max(cfg.cg.rel_tol, min(solver.FORCING_MAX, ratio))
    assert later[0].cg_rel_tol == solver.FORCING_MAX


@pytest.mark.parametrize(
    "make_benchmark, levels",
    [(pm_toy_benchmark, (0, 1)), (manufactured_benchmark, (0, 1, 2))],
)
def test_forcing_keeps_newton_counts_with_fewer_cg_iterations(make_benchmark, levels, monkeypatch):
    cfg = mf.NewtonConfig()
    problems = [problem_at_level(make_benchmark(), lv, order=1) for lv in levels]
    inexact, exact = _forced_and_exact_solves(problems, cfg, monkeypatch)
    for p, (a, _), (b, _) in zip(problems, inexact, exact):
        gap = assembly.curl_norm(p, a.values - b.values)
        assert gap <= cfg.tol_increment * assembly.curl_norm(p, b.values)


def test_forcing_keeps_newton_counts_on_pm_toy_finest_level(monkeypatch):
    # counts and CG only: the forced and all-exact solutions of this level
    # lie ~18 tol_increment apart (~19 under squared forcing terms)
    problem = problem_at_level(pm_toy_benchmark(), 2, order=1)
    _forced_and_exact_solves([problem], mf.NewtonConfig(), monkeypatch)


def _forced_and_exact_solves(problems, cfg, monkeypatch):
    """Newton solves of `problems` under the forcing terms, then with every
    solve exact; checks that the first converge in as many steps with fewer
    CG iterations in total."""
    inexact = [mf.newton_solve(p, cfg=cfg) for p in problems]
    monkeypatch.setattr(solver, "FORCING_FIRST", cfg.cg.rel_tol)  # every solve exact
    monkeypatch.setattr(solver, "FORCING_MAX", cfg.cg.rel_tol)
    exact = [mf.newton_solve(p, cfg=cfg) for p in problems]

    def cg_total(runs):
        return sum(rec.cg_iters for _, report in runs for rec in report.iterations)

    assert [r.n_iterations for _, r in inexact] == [r.n_iterations for _, r in exact]
    assert all(r.converged for _, r in inexact)
    assert cg_total(inexact) < cg_total(exact)
    return inexact, exact


def test_newton_step_floor_with_certified_bounds(small_brauer_problem):
    coeffs, report = mf.newton_solve(small_brauer_problem)
    assert report.tau_floor == pytest.approx(
        min(1.0, 2 * 0.5 * (1 - 0.01) * 400.0 / mf.NU0)
    )
    for rec in report.iterations:
        assert rec.tau >= report.tau_floor
        assert 0.0 < rec.tau <= 1.0


def test_q_bound_formula(small_brauer_problem):
    cfg = mf.NewtonConfig(rho=0.5, sigma=0.25)
    _, report = mf.newton_solve(small_brauer_problem, cfg=cfg)
    gamma, lip = small_brauer_problem.certified_bounds()
    expected = 1.0 - 4 * 0.5 * 0.25 * 0.75 * (gamma / lip) ** 3
    assert report.q_bound == pytest.approx(expected, rel=1e-14)
    # with gamma = L (linear law), rho=1/2, sigma=1/4: q = 0.625
    assert 1.0 - 4 * 0.5 * 0.25 * (1 - 0.25) * 1.0 == pytest.approx(0.625)


def test_energy_gap_contraction_linear_case():
    # gamma = L: the observed energy gap must decay at least as fast as q
    bench = manufactured_benchmark(law=mf.LinearLaw(2.0))
    problem = problem_at_level(bench, 1, order=1)
    cfg = mf.NewtonConfig(rho=0.5, sigma=0.25)
    _, report = mf.newton_solve(problem, cfg=cfg)
    ref, _ = mf.newton_solve(problem, cfg=_tight(tol_increment=1e-13, tol_residual=1e-13))
    w_min = assembly.assemble_energy(problem, ref)
    gaps = [rec.energy - w_min for rec in report.iterations] + [
        report.final_energy - w_min
    ]
    q = report.q_bound
    for n, gap in enumerate(gaps):
        assert gap <= q**n * gaps[0] * (1 + 1e-12) + 1e-15 * abs(w_min)


def test_r_linear_iterate_bound(small_brauer_problem):
    # ||Curl(a^n - a*)||^2 <= (L/gamma) q^n ||Curl(a^0 - a*)||^2
    problem = small_brauer_problem
    coeffs, report, history = run_newton_with_history(problem)
    ref, _ = mf.newton_solve(problem, cfg=_tight(tol_increment=1e-13, tol_residual=1e-13))
    gamma, lip = problem.certified_bounds()
    q = report.q_bound
    e0 = assembly.curl_norm(problem, history[0] - ref.values)
    for n, vec in enumerate(history):
        en = assembly.curl_norm(problem, vec - ref.values)
        assert en**2 <= (lip / gamma) * q**n * e0**2 * (1 + 1e-10)


def test_energy_norm_sandwich(small_brauer_problem):
    # gamma/2 ||Curl(v - a)||^2 <= W(v) - W(a) <= L/2 ||Curl(v - a)||^2
    problem = small_brauer_problem
    ref, _ = mf.newton_solve(problem, cfg=_tight(tol_increment=1e-13, tol_residual=1e-13))
    w_min = assembly.assemble_energy(problem, ref)
    gamma, lip = problem.certified_bounds()
    scale = np.linalg.norm(ref.values)
    generator = rng(15)
    for _ in range(100):
        delta = generator.normal(size=problem.space.n_free)
        delta *= 0.01 * scale / np.linalg.norm(delta)
        v = CoefficientVector(problem.space, ref.values + delta)
        gap = assembly.assemble_energy(problem, v) - w_min
        nrm2 = assembly.curl_norm(problem, delta) ** 2
        assert 0.5 * gamma * nrm2 <= gap * (1 + 1e-9)
        assert gap <= 0.5 * lip * nrm2 * (1 + 1e-9)


def test_report_json_round_trip(small_brauer_problem):
    import json

    cfg = mf.NewtonConfig()
    _, report = mf.newton_solve(small_brauer_problem, cfg=cfg)
    doc = json.loads(report.to_json(config=cfg))
    assert doc["converged"] is True
    assert doc["n_iterations"] == report.n_iterations
    assert doc["certified"]["gamma"] == 400.0
    assert len(doc["iterations"]) == report.n_iterations
    assert set(doc["iterations"][0]) == {
        "n", "energy", "residual_norm", "tau", "backtracks", "accepted_by", "increment_norm",
        "cg_rel_tol", "cg_iters", "cg_converged", "cg_residual", "cg_stopped_by",
    }
    assert [rec["cg_stopped_by"] for rec in doc["iterations"]] == [
        rec.cg_stopped_by for rec in report.iterations
    ]
    problem = small_brauer_problem
    assert doc["problem"] == {
        "ne": 128, "n_free": problem.space.n_free, "order": 1, "quad_degree": 2, "regions": [1],
        "linear": False,
    }


def test_fixed_point_report_serializes_full_steps(small_brauer_problem):
    import json

    gamma, lip = small_brauer_problem.certified_bounds()
    cfg = _tight(max_iter=3)
    _, report = zarantonello_solve(small_brauer_problem, tau=gamma / lip**2, cfg=cfg)
    doc = json.loads(report.to_json(config=cfg))
    assert [rec["accepted_by"] for rec in doc["iterations"]] == ["full"] * 3  # no line search
    assert doc["failure"] == "max_iter"
    assert doc["config"]["max_iter"] == 3
    assert doc["problem"] == small_brauer_problem.describe()


# -- Zarantonello --------------------------------------------------------------


def test_zarantonello_linear_one_step():
    nu = 2.0
    bench = manufactured_benchmark(law=mf.LinearLaw(nu))
    problem = problem_at_level(bench, 1, order=1)
    coeffs, report = zarantonello_solve(problem, tau=1.0 / nu)
    newton_ref, _ = mf.newton_solve(problem)
    rel = np.linalg.norm(coeffs.values - newton_ref.values) / np.linalg.norm(
        newton_ref.values
    )
    assert rel <= 1e-10
    assert report.contraction_ratios[0] <= 1e-8
    assert zarantonello_contraction(1.0 / nu, nu, nu) == 0.0


def test_zarantonello_contraction_bound_brauer(small_brauer_problem):
    problem = small_brauer_problem
    gamma, lip = problem.certified_bounds()
    tau = gamma / lip**2
    bound = zarantonello_contraction(tau, gamma, lip)
    cfg = _tight(max_iter=6)
    _, report = zarantonello_solve(problem, tau=tau, cfg=cfg)
    assert len(report.contraction_ratios) == 5
    for ratio in report.contraction_ratios:
        assert ratio <= bound + 1e-8


def test_zarantonello_increment_linear_in_tau(small_brauer_problem):
    # one step from a fixed iterate: the increment scales linearly with tau
    problem = small_brauer_problem
    cfg = _tight(max_iter=1)
    incs = {}
    for tau in (1e-10, 2e-10):
        _, report = zarantonello_solve(problem, tau=tau, cfg=cfg)
        incs[tau] = report.iterations[0].increment_norm
    assert incs[2e-10] == pytest.approx(2.0 * incs[1e-10], rel=1e-10)


def test_zarantonello_rejects_nonpositive_tau(small_brauer_problem):
    with pytest.raises(ValueError):
        zarantonello_solve(small_brauer_problem, tau=0.0)


def test_zarantonello_warns_outside_contraction_range(small_brauer_problem):
    gamma, lip = small_brauer_problem.certified_bounds()
    cfg = _tight(max_iter=1)
    with pytest.warns(UserWarning, match="contraction range"):
        zarantonello_solve(small_brauer_problem, tau=4.0 * gamma / lip**2, cfg=cfg)


def test_line_search_failure_is_fatal_with_diagnostics(small_brauer_problem):
    # the default run needs one backtrack on its first step, so a zero
    # backtrack budget must fail loudly
    cfg = _tight(max_backtracks=0)
    with pytest.raises(solver.LineSearchError, match="slope"):
        mf.newton_solve(small_brauer_problem, cfg=cfg)


# -- quadratic tail ------------------------------------------------------------


def test_tail_diagnostic_linear_law_immediate():
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    problem = problem_at_level(bench, 1, order=1)
    coeffs, report, history = run_newton_with_history(problem)
    ref, _ = mf.newton_solve(problem, cfg=_tight(tol_increment=1e-13, tol_residual=1e-13))
    diag = quadratic_tail_diagnostic(report, history, ref, problem)
    assert not diag.sufficient  # single Newton step: no tail to measure
    scale = assembly.curl_norm(problem, ref.values)
    assert diag.errors[-1] <= 1e-10 * scale


def test_tail_diagnostic_brauer(small_brauer_problem):
    problem = small_brauer_problem
    cfg = _tight(tol_increment=1e-12, tol_residual=1e-12)
    coeffs, report, history = run_newton_with_history(problem, cfg=cfg)
    ref, _ = mf.newton_solve(problem, cfg=_tight(tol_increment=1e-13, tol_residual=1e-13))
    diag = quadratic_tail_diagnostic(report, history, ref, problem)
    assert diag.sufficient
    tail = report.iterations[diag.full_step_start :]
    assert len(tail) >= 3
    assert all(rec.tau == 1.0 and rec.backtracks == 0 for rec in tail)
    assert np.isfinite(diag.m_hat)
    assert diag.stable_within <= 10.0


def test_tail_constant_growth_under_refinement():
    # the empirical quadratic-tail constant may grow roughly like 1/h:
    # about 2x per halving, with generous slack since it is a max over
    # only a handful of ratios
    bench = manufactured_benchmark()
    cfg = _tight(tol_increment=1e-12, tol_residual=1e-12)
    refcfg = _tight(tol_increment=1e-13, tol_residual=1e-13)
    mhats = []
    for lv in range(3):
        problem = problem_at_level(bench, lv, order=1)
        _, report, history = run_newton_with_history(problem, cfg=cfg)
        ref, _ = mf.newton_solve(problem, cfg=refcfg)
        diag = quadratic_tail_diagnostic(report, history, ref, problem)
        assert np.isfinite(diag.m_hat)
        mhats.append(diag.m_hat)
    for coarse, fine in zip(mhats, mhats[1:]):
        assert fine <= 2.5 * coarse
    assert mhats[2] <= 6.0 * mhats[0]


def test_history_matches_report(small_brauer_problem):
    coeffs, report, history = run_newton_with_history(small_brauer_problem)
    assert len(history) == report.n_iterations + 1
    assert np.array_equal(history[-1], coeffs.values)


# -- concurrency ---------------------------------------------------------------


def test_concurrent_solves_on_shared_problem_match_serial():
    # The README says independent solves may run concurrently. Four workers
    # share one Problem and a tiny switch interval forces frequent thread
    # switches; every result must equal the serial one bit for bit.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    bench = manufactured_benchmark()
    orders = (1, 2, 1, 2, 1, 2, 1, 2)
    serial = {}
    for k in (1, 2):
        coeffs, report = mf.newton_solve(problem_at_level(bench, 1, order=k))
        serial[k] = (coeffs.values, report.energies())
    shared = {k: problem_at_level(bench, 1, order=k) for k in (1, 2)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(mf.newton_solve, shared[k]) for k in orders]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)

    for k, (coeffs, report) in zip(orders, results):
        assert np.array_equal(coeffs.values, serial[k][0])
        assert report.energies() == serial[k][1]
