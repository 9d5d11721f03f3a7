"""Shared fixtures and independent integration oracles for the test suite."""

import os

# Pin BLAS to one thread before numpy loads, as perfbench/run.py does: the
# thread count fixes the summation order of dot products, so without the pin
# the suite's arithmetic depends on the host's core count. Once, criterion 03
# passed with two OpenBLAS threads and failed with one, on a last-digit rise
# of a two_wire_disc energy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from math import factorial  # noqa: E402

import numpy as np  # noqa: E402
import pytest
from scipy.sparse.linalg import spsolve
from scipy.special import roots_jacobi, roots_legendre

import magfem as mf
from magfem import assembly, multigrid, solver
from magfem.femspace import (
    CoefficientVector,
    _physical_curls,
    _shape_gradients,
    _shape_values,
    tabulate_curl,
    zero_coefficients,
)
from magfem.harness import ANNULUS_MATRIX, ANNULUS_R_INNER, ANNULUS_R_OUTER, Benchmark
from magfem.materials import MaterialLaw, _as_points
from magfem.quadrature import mapped_points


def conical_rule(n):
    """Gauss-Jacobi x Gauss-Legendre product rule on the reference triangle.

    Exact for polynomials of total degree <= 2n - 1. Constructed from
    orthogonal-polynomial roots, independently of the symmetric tables
    shipped in the package, so it can serve as an integration oracle.
    Returned weights sum to one (area-fraction convention).
    """
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
    xi = 0.5 * (1.0 + xj)
    eta = 0.5 * (1.0 + xl)
    pts = []
    wts = []
    for j in range(n):
        for i in range(n):
            pts.append((xi[j], eta[i] * (1.0 - xi[j])))
            wts.append((wj[j] / 4.0) * (wl[i] / 2.0))
    pts = np.array(pts)
    wts = np.array(wts) / 0.5  # normalize: weights sum to 1 on the unit triangle
    return pts, wts


def integrate_reference(f, degree):
    """Oracle integral of f(x, y) over the reference triangle."""
    pts, wts = conical_rule(degree // 2 + 2)
    return 0.5 * float(wts @ f(pts[:, 0], pts[:, 1]))


def l2_norm_oracle(mesh, sampler, degree):
    """Oracle L2 norm over a mesh of a field given by `sampler`.

    sampler(elements, ref_points) returns per-point values (n,) or (n, 2);
    integration uses the conical product rule of exactness >= degree.
    """
    pts, wts = conical_rule(degree // 2 + 2)
    ne = mesh.num_triangles
    nq = len(wts)
    elements = np.repeat(np.arange(ne), nq)
    ref = np.tile(pts, (ne, 1))
    vals = sampler(elements, ref)
    sq = vals * vals
    if sq.ndim == 2:
        sq = sq.sum(axis=1)
    sq = sq.reshape(ne, nq)
    areas = np.abs(mesh.signed_areas())
    return float(np.sqrt((sq @ wts) @ areas))


def monomial_integral(p, q):
    """Exact integral of x^p y^q over the reference triangle."""
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def max_flux_magnitude(problem, coeffs):
    """Largest |b| over all quadrature points of the problem's rule."""
    b = assembly.curl_at_quadrature(problem, coeffs)
    return float(np.max(np.linalg.norm(b, axis=2)))


def check_jacobian_consistency(domain_map, points, step=1e-6):
    """Max relative error between F and finite differences of phi."""
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    F, _ = domain_map.jacobians(x)
    approx = np.empty_like(F)
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        approx[:, :, j] = (domain_map.phi(x + e) - domain_map.phi(x - e)) / (2 * step)
    scale = np.maximum(np.linalg.norm(F, axis=(1, 2)), 1e-30)
    return float(np.max(np.linalg.norm(F - approx, axis=(1, 2)) / scale))


def integrate_against_curls(curls, g, magnitude=False):
    """Oracle for the contraction of the load, the residual and its scale.

    Per-element sums of g . Curl phi_l over the points, one point at a
    time, x before y at each; (ne, nl). `curls` is (ne, nl, nq, 2) and `g`
    (ne, nq, 2) already carries the quadrature weights. With `magnitude`,
    |Curl phi_l| takes the place of Curl phi_l.
    """
    cell = np.zeros(curls.shape[:2])
    for q in range(curls.shape[2]):
        c = np.abs(curls[:, :, q]) if magnitude else curls[:, :, q]
        cell += g[:, q, None, 0] * c[..., 0] + g[:, q, None, 1] * c[..., 1]
    return cell


def piola_curls(problem, rule):
    """Oracle for a Problem's basis curls on `rule`; (ne, nq, nl, 2).

    The reference curls of `tabulate_curl`, and on a mapped problem their
    Piola transform F Curl phi / J, point by point from the map's F and J
    at the reference points.
    """
    curls = tabulate_curl(problem.space, rule)
    if problem.domain_map is None:
        return curls
    F, J = map_jacobians(problem, rule)
    return np.einsum("eqij,eqlj->eqli", F, curls) / J[..., None, None]


def map_jacobians(problem, rule):
    """Oracle for a mapped Problem's F (ne, nq, 2, 2) and J = det F (ne, nq)
    at `rule`'s points, from the domain map itself rather than from `wq`."""
    ne, nq = problem.mesh.num_triangles, len(rule.weights)
    F, J = problem.domain_map.jacobians(mapped_points(problem.mesh, rule.points).reshape(-1, 2))
    return F.reshape(ne, nq, 2, 2), J.reshape(ne, nq)


def direct_newton_solve(monkeypatch, problem):
    """`newton_solve` with every inner solve direct (scipy's `spsolve`), the
    reference of the multigrid-preconditioned CG solves. Reports name the
    preconditioner "direct"."""

    def direct(matrix, rhs, *args, **kwargs):  # the tolerance and levels go unused
        x = spsolve(matrix.tocsc(), rhs)
        residual = float(np.linalg.norm(rhs - matrix @ x))
        return x, solver.CGInfo(0, True, residual, (matrix.shape[0],), "tolerance", "direct")

    with monkeypatch.context() as m:
        m.setattr(solver, "solve_cg", direct)
        return solver.newton_solve(problem)


def galerkin_oracle(matrix, levels):
    """Oracle for the coarse operators of `matrix` on the geometric `levels`.

    scipy's sparse product P^T A P of each level's prolongation, finest
    first: the Galerkin operators that the assembly kernel sums from the
    element matrices.
    """
    operators = []
    A = matrix
    for level in levels:
        A = (level.P.T @ (A @ level.P)).tocsr()
        operators.append(A)
    return operators


BOUNDARY_COMPATIBILITY_TOL = 1e-10


class BoundaryCompatibilityError(ValueError):
    """Interpolated function does not vanish on the Dirichlet boundary."""


def interpolate(space, f):
    """Nodal interpolant of a point-function.

    f maps an (n, 2) coordinate array to (n,) values; it must vanish (to
    within 1e-10, scaled) at constrained dof nodes, otherwise a
    BoundaryCompatibilityError is raised instead of silently projecting.
    Polynomials of total degree <= p are reproduced exactly.
    """
    values = np.asarray(f(space.dof_coords), dtype=float)
    if values.shape != (space.num_dofs,):
        raise ValueError("interpolated function must return one value per dof node")
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    bad = space.constrained & (np.abs(values) > BOUNDARY_COMPATIBILITY_TOL * scale)
    if np.any(bad):
        worst = int(np.argmax(np.abs(values) * bad))
        raise BoundaryCompatibilityError(
            f"function does not vanish on the Dirichlet boundary: value "
            f"{values[worst]:.3e} at node {worst} {space.dof_coords[worst]}"
        )
    return CoefficientVector(space, values[~space.constrained])


def discrete_inner_product(mesh, rule, u, v):
    """<u, v>_h over the mesh; u, v map (n, 2) points to (n,) or (n, 2).

    Scalar-valued functions are multiplied pointwise, vector-valued ones
    are contracted with the Euclidean dot product. The reduction order is
    fixed (element-major) so results are reproducible.
    """
    pts = mapped_points(mesh, rule.points)
    ne, nq, _ = pts.shape
    flat = pts.reshape(ne * nq, 2)
    uu = np.asarray(u(flat), dtype=float)
    vv = np.asarray(v(flat), dtype=float)
    if uu.ndim == 1 and vv.ndim == 1:
        prod = uu * vv
    elif uu.ndim == 2 and vv.ndim == 2:
        prod = np.sum(uu * vv, axis=1)
    else:
        raise ValueError("u and v must both be scalar-valued or both vector-valued")
    prod = prod.reshape(ne, nq)
    areas = np.abs(mesh.signed_areas())
    per_element = prod @ rule.weights
    return float(np.dot(per_element, areas))


# -- the paper's instruments: criteria 05 (quadratic tail), 06 (contraction) --


@dataclass
class FixedPointReport(solver.NewtonReport):
    """A fixed-point solve's report: Newton's, plus the observed ratios of
    successive increment norms."""

    contraction_ratios: list = None


def zarantonello_solve(problem, tau, a0=None, cfg=solver.NewtonConfig()):
    """Damped fixed-point iteration preconditioned by the unit stiffness.

    Each step solves K delta = -tau r(a) and accepts the full update
    (`accepted_by` "full": no line search); the map is contractive with
    factor sqrt(1 - 2 tau gamma + tau^2 L^2) for 0 < tau < 2 gamma / L^2.
    Contraction of tau against certified bounds is advisory: out-of-range
    values are run anyway. The V-cycle's coarse operators of K come from
    `galerkin_oracle`.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    space = problem.space
    a = zero_coefficients(space) if a0 is None else a0
    vec = a.values.copy()
    levels = multigrid.hierarchy(space)
    K = assembly.assemble_unit_stiffness(problem)
    coarse = galerkin_oracle(K, levels)
    certified = solver._certified(problem, cfg)
    tau_max = 2.0 * certified["gamma"] / certified["lipschitz"] ** 2 if certified else np.inf
    if tau >= tau_max:
        warnings.warn(
            f"step size tau = {tau:g} is outside the certified contraction range "
            f"(0, {tau_max:g}); the iteration may not converge",
            stacklevel=2,
        )

    records = []
    preconditioner = None
    ratios = []
    converged = False
    failure = None
    prev_inc = None
    inc_ref = None
    for n in range(cfg.max_iter):
        coeffs = CoefficientVector(space, vec)
        res = assembly.assemble_residual(problem, coeffs)
        energy = assembly.assemble_energy(problem, coeffs)
        delta, cg_info = solver.solve_cg(K, -tau * res, cfg.cg, levels=levels, coarse=coarse)
        preconditioner = preconditioner or cg_info.describe()
        inc_norm = float(np.sqrt(max(delta @ (K @ delta), 0.0)))
        records.append(
            solver.IterationRecord.of_step(
                n, energy, float(np.linalg.norm(res)), tau, 0, "full", inc_norm, cfg.cg.rel_tol,
                cg_info,
            )
        )
        if prev_inc is not None and prev_inc > 0.0:
            ratios.append(inc_norm / prev_inc)
        prev_inc = inc_norm
        vec = vec + delta
        if inc_ref is None and inc_norm > 0.0:
            inc_ref = inc_norm
        if inc_norm <= cfg.tol_increment * (inc_ref or 0.0):
            converged = True
            break
    else:
        failure = "max_iter"

    coeffs = CoefficientVector(space, vec)
    res = assembly.assemble_residual(problem, coeffs)
    report = FixedPointReport(
        iterations=records,
        converged=converged,
        final_energy=assembly.assemble_energy(problem, coeffs),
        final_residual_norm=float(np.linalg.norm(res)),
        contraction_ratios=ratios,
        failure=failure,
        preconditioner=preconditioner,
        problem=problem.describe(),
        **certified,
    )
    return coeffs, report


def zarantonello_contraction(tau, gamma, lipschitz):
    """Contraction factor sqrt(1 - 2 tau gamma + tau^2 L^2)."""
    return float(np.sqrt(max(1.0 - 2.0 * tau * gamma + tau**2 * lipschitz**2, 0.0)))


@dataclass
class TailDiagnostic:
    """Quadratic-tail summary relative to a reference solution."""

    errors: list                 # e_n = ||Curl(a^n - a_ref)|| per recorded iterate
    full_step_start: int         # first iteration index from which tau = 1 onward
    ratios: list                 # e_{n+1} / e_n^2 over the full-step tail
    valid_ratios: list           # ratios with both errors above the noise floor
    m_hat: float                 # max of valid ratios (inf if none)
    stable_within: float         # max/min over the last <= 3 valid ratios
    sufficient: bool             # at least 3 tail iterations observed


def quadratic_tail_diagnostic(report, iterate_history, reference, problem, noise_floor=None):
    """Measure the quadratic convergence tail of a Newton run.

    iterate_history must contain the free-dof vectors of the recorded
    iterates (see run_newton_with_history); errors are curl norms against
    `reference`, a higher-accuracy solution of the same problem. Ratios
    e_{n+1}/e_n^2 are reported from the first all-full-step iteration
    onward; ratios are marked valid when both errors sit above the noise
    floor (default: 100 eps times the reference curl norm), which keeps
    rounding-dominated final iterates out of the constant estimate.
    """
    ref = reference.values
    scale = assembly.curl_norm(problem, ref)
    if noise_floor is None:
        noise_floor = 100.0 * np.finfo(float).eps * max(scale, 1.0)
    errors = [assembly.curl_norm(problem, vec - ref) for vec in iterate_history]

    taus = [rec.tau for rec in report.iterations]
    start = len(taus)
    for i in range(len(taus) - 1, -1, -1):
        if taus[i] == 1.0 and report.iterations[i].backtracks == 0:
            start = i
        else:
            break
    ratios = []
    valid = []
    for i in range(start, len(errors) - 1):
        if errors[i] <= 0.0:
            continue
        ratio = errors[i + 1] / errors[i] ** 2
        ratios.append(ratio)
        if errors[i] > noise_floor and errors[i + 1] > noise_floor:
            valid.append(ratio)
    tail = valid[-3:]
    m_hat = max(valid) if valid else float("inf")
    stable = max(tail) / min(tail) if len(tail) >= 2 and min(tail) > 0 else float("inf")
    return TailDiagnostic(
        errors=errors,
        full_step_start=start,
        ratios=ratios,
        valid_ratios=valid,
        m_hat=m_hat,
        stable_within=stable,
        sufficient=(len(errors) - 1 - start) >= 3,
    )


def run_newton_with_history(problem, a0=None, cfg=solver.NewtonConfig()):
    """newton_solve plus the list of iterate dof vectors (a0 included)."""
    history = []
    coeffs, report = solver.newton_solve(problem, a0, cfg, history=history)
    return coeffs, report, history


def eval_basis(space, element, point):
    """Values and physical Curl vectors of all local shape functions.

    `point` is a reference-triangle coordinate pair; returns
    (values (n_local,), curls (n_local, 2)).
    """
    if not 0 <= element < space.mesh.num_triangles:
        raise IndexError(f"element {element} out of range")
    pt = np.asarray(point, dtype=float).reshape(1, 2)
    values = _shape_values(space.degree, pt)[0]
    curls = _physical_curls(space.element_inverse[element], _shape_gradients(space.degree, pt))
    return values, curls[0]


def eval_curl_field(space, coeffs, element, point):
    """Curl of the discrete field at one reference point of one element."""
    _, curls = eval_basis(space, element, point)
    full = coeffs.full()
    return curls.T @ full[space.conn[element]]


def material_eval(law, x, b):
    """Evaluate one law at a single point: (w, h, nu_d)."""
    x = np.asarray(x, dtype=float).reshape(1, 2)
    b = _as_points(b)
    return (
        float(law.w(x, b)[0]),
        law.dw(x, b)[0],
        law.d2w(x, b)[0],
    )


def total_area(mesh):
    return float(np.sum(mesh.signed_areas()))


def max_edge_length(mesh):
    p = mesh.vertices[mesh.triangles]
    lengths = [np.linalg.norm(p[:, i] - p[:, (i + 1) % 3], axis=1) for i in range(3)]
    return float(np.max(lengths))


def shape_regularity(mesh):
    """Per-triangle circumradius/inradius ratio (recorded, not enforced)."""
    p = mesh.vertices[mesh.triangles]
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    b = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    area = np.abs(mesh.signed_areas())
    s = 0.5 * (a + b + c)
    inradius = area / s
    circumradius = a * b * c / (4.0 * area)
    return circumradius / inradius


class SpatialLinearLaw(MaterialLaw):
    """w = 1/2 <N(x) b, b> with a point-dependent SPD matrix field."""

    linear = True

    def __init__(self, matrix_fn, gamma=None, lipschitz=None):
        self.matrix_fn = matrix_fn
        self.gamma = gamma
        self.lipschitz = lipschitz
        self.hess_lipschitz = 0.0

    def w(self, x, b):
        N = self.matrix_fn(np.atleast_2d(x))
        b = np.atleast_2d(b)
        return 0.5 * np.einsum("nij,ni,nj->n", N, b, b)

    def dw(self, x, b):
        N = self.matrix_fn(np.atleast_2d(x))
        return np.einsum("nij,nj->ni", N, np.atleast_2d(b))

    def d2w(self, x, b):
        return self.matrix_fn(np.atleast_2d(x)).copy()


def annulus_direct_benchmark(base_n=6, order=1, levels=3):
    """Hand-derived reference-square formulation of the annulus problem.

    The pulled-back coefficient N(x) = F^T N' F / J and source F^T h_s' are
    written out from the polar map's Jacobian on the unmapped unit square,
    independently of `Problem`'s domain map, to cross-check it end to end:
    both have the same space, and the same discrete solution up to rounding.
    """
    dr = ANNULUS_R_OUTER - ANNULUS_R_INNER
    half_pi = 0.5 * np.pi

    def jac(x):
        x = np.atleast_2d(x)
        r = ANNULUS_R_INNER + dr * x[:, 0]
        th = half_pi * x[:, 1]
        c, s = np.cos(th), np.sin(th)
        F = np.empty((len(x), 2, 2))
        F[:, 0, 0] = dr * c
        F[:, 0, 1] = -half_pi * r * s
        F[:, 1, 0] = dr * s
        F[:, 1, 1] = half_pi * r * c
        return F, dr * half_pi * r, r, th

    def matrix_fn(x):
        F, J, _, _ = jac(x)
        return np.einsum("nki,kl,nlj->nij", F, ANNULUS_MATRIX, F) / J[:, None, None]

    def hs(x):
        F, _, r, th = jac(x)
        phys = np.column_stack([-r * np.sin(th), r * np.cos(th)])
        return np.einsum("nji,nj->ni", F, phys)

    law = SpatialLinearLaw(matrix_fn)
    return Benchmark(
        name="annulus_direct",
        base_mesh=mf.generate_unit_square(base_n),
        materials={1: law},
        dirichlet_tags=frozenset({1}),
        error_mode="successive-refinement",
        order=order,
        levels=levels,
        hs_field=hs,
    )


@pytest.fixture(scope="session")
def unit_square_4():
    return mf.generate_unit_square(4)


@pytest.fixture(scope="session")
def brauer_law():
    return mf.brauer_reference()


@pytest.fixture(scope="session")
def small_brauer_problem(brauer_law):
    """Manufactured Brauer problem on a coarse mesh, k=1."""
    from magfem.harness import manufactured_benchmark, problem_at_level

    bench = manufactured_benchmark(law=brauer_law)
    return problem_at_level(bench, 1, order=1)


def rng(seed=0):
    return np.random.default_rng(seed)


def set_element_batch(monkeypatch, space, nq, elements):
    """Make `assembly.element_batches(space, nq)` hold `elements` elements a batch."""
    from magfem import assembly

    monkeypatch.setattr(assembly, "BATCH_ENTRIES", elements * space.n_local * nq)


def traced_transient(fn, *args):
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


@pytest.fixture
def nan_newton_direction(monkeypatch):
    """Every inner solve returns its direction with a NaN first entry."""
    from magfem import solver

    real = solver.solve_cg

    def broken(*args, **kwargs):
        x, info = real(*args, **kwargs)
        x[0] = np.nan
        return x, info

    monkeypatch.setattr(solver, "solve_cg", broken)


@pytest.fixture
def reversed_newton_direction(monkeypatch):
    """Every inner solve returns its direction negated: an ascent direction."""
    from magfem import solver

    real = solver.solve_cg

    def reversed_(*args, **kwargs):
        x, info = real(*args, **kwargs)
        return -x, info

    monkeypatch.setattr(solver, "solve_cg", reversed_)


@pytest.fixture
def overflowing_newton_direction(monkeypatch):
    """Every inner solve returns its direction rescaled to a largest entry of
    1e308: finite, but the flux density of a full step overflows."""
    from magfem import solver

    real = solver.solve_cg

    def huge(*args, **kwargs):
        x, info = real(*args, **kwargs)
        return x / np.max(np.abs(x)) * 1e308, info

    monkeypatch.setattr(solver, "solve_cg", huge)
