"""Damped Newton with Armijo backtracking and multigrid-preconditioned CG.

The outer iteration minimizes the discrete magnetic energy. Each step
solves the symmetric positive definite Newton system with preconditioned
conjugate gradients, backtracks over the step
grid 1, rho, rho^2, ... until the Armijo decrease condition holds (or,
where the decrease it demands is below the energy's rounding, its
derivative form), and records telemetry: energy, residual norm, step size,
backtrack count, which test accepted the step, curl norm of the increment,
and the inner solve's tolerance, iteration count, convergence flag, true
residual norm and stop reason.

A step that the derivative form accepts records as its energy the
trapezoid estimate W + tau (slope + d) / 2 from the slope at both ends,
not the assembled trial energy, which is rounding noise there. Hager and
Zhang build their approximate Wolfe test on that estimate (SIAM J. Optim.
16, 2005); it is exact for a quadratic energy, and the passed test bounds
it by W + sigma tau slope < W, so recorded energies never rise.

The Newton steps are inexact. The first inner solve runs to
`cfg.cg.rel_tol`; step k > 0 runs to the forcing term
eta_k = max(cfg.cg.rel_tol, min(FORCING_MAX, ||r_k|| / ||r_0||)),
loose far from the solution and of order ||r_k|| near it, which keeps
the local quadratic rate (Dembo-Eisenstat-Steihaug, SIAM J. Numer. Anal.
19, 1982). A linear law still converges in one step.

With certified convexity bounds (gamma, L) the report also carries the
step-size floor tau* = 2 rho (1-sigma) gamma/L and the contraction factor
q = 1 - 4 rho sigma (1-sigma) (gamma/L)^3, which the test suite checks
against the observed run. tau* holds for every inner solve, however
loose: PCG from a zero start gives a direction with res . d = -d^T H d
(in exact arithmetic), and the Armijo argument uses nothing else. q is
derived for the exact Newton direction, so it is certified for exact
inner solves only; under the forcing terms it is a reference value.

Stopping tolerances are relative to the first iteration's residual norm
and increment norm, which keeps iteration counts comparable across mesh
refinement levels.

Every inner solve is preconditioned by a multigrid V-cycle (see
`multigrid`): the geometric levels of `multigrid.hierarchy`, built once
per solve and assembled with each step's Hessian, and algebraic levels
below them, so CG iteration counts stay flat under refinement on every
space. Without a constrained dof the system is singular along the
constants: Newton takes them out of each right-hand side, and the cycle
keeps its output mean-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field, replace

import numpy as np

from . import assembly, multigrid
from .femspace import CoefficientVector, zero_coefficients


class SolverError(RuntimeError):
    pass


class LineSearchError(SolverError):
    """Backtracking exhausted; impossible under valid convexity bounds."""


#: Restarts of CG from its true residual once the recursive one has converged.
MAX_REFINEMENTS = 4


@dataclass(frozen=True)
class CGConfig:
    """Inner-solve parameters; rel_tol in (0, 1), max_iter None or >= 1."""

    rel_tol: float = 1e-12
    max_iter: int = None

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"cg_rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"cg_max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class NewtonConfig:
    """Damped-Newton parameters; rho in (0, 1/2], sigma in (0, 1/2),
    finite tolerances >= 0, and iteration limits >= 0."""

    rho: float = 0.5
    sigma: float = 0.01
    tol_increment: float = 1e-10
    tol_residual: float = 1e-10
    max_iter: int = 50
    max_backtracks: int = 60
    cg: CGConfig = field(default_factory=CGConfig)

    def __post_init__(self):
        if not 0.0 < self.rho <= 0.5:
            raise ValueError("rho must be in (0, 1/2]")
        if not 0.0 < self.sigma < 0.5:
            raise ValueError("sigma must be in (0, 1/2)")
        for name in ("tol_increment", "tol_residual"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("max_iter", "max_backtracks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class IterationRecord:
    n: int
    energy: float
    residual_norm: float
    tau: float
    backtracks: int
    accepted_by: str  # "armijo" or "derivative": the test that accepted the step
    increment_norm: float
    cg_rel_tol: float
    cg_iters: int
    cg_converged: bool
    cg_residual: float
    cg_stopped_by: str  # CGInfo.stopped_by

    @classmethod
    def of_step(
        cls, n, energy, residual_norm, tau, backtracks, accepted_by, increment_norm, cg_rel_tol, cg
    ):
        """Record of step n, whose inner solve was given `cg_rel_tol`; the
        inner solve's other fields come from its CGInfo `cg`."""
        return cls(
            n=n,
            energy=energy,
            residual_norm=residual_norm,
            tau=tau,
            backtracks=backtracks,
            accepted_by=accepted_by,
            increment_norm=increment_norm,
            cg_rel_tol=cg_rel_tol,
            cg_iters=cg.iterations,
            cg_converged=cg.converged,
            cg_residual=cg.residual_norm,
            cg_stopped_by=cg.stopped_by,
        )


@dataclass
class NewtonReport:
    """Per-iteration telemetry of a Newton solve."""

    iterations: list
    converged: bool
    final_energy: float
    final_residual_norm: float
    gamma: float = None
    lipschitz: float = None
    q_bound: float = None  # certified for exact inner solves only (module docstring)
    tau_floor: float = None
    failure: str = None
    preconditioner: dict = None  # CGInfo.describe() of the first inner solve
    problem: dict = None  # Problem.describe() of the solved problem

    @property
    def n_iterations(self):
        return len(self.iterations)

    def energies(self):
        return [rec.energy for rec in self.iterations] + [self.final_energy]

    def to_json(self, config=None, indent=2):
        doc = {
            "config": asdict(config) if config is not None else None,
            "problem": self.problem,
            "certified": {
                "gamma": self.gamma,
                "lipschitz": self.lipschitz,
                "q": self.q_bound,
                "tau_star": self.tau_floor,
            },
            "iterations": [asdict(rec) for rec in self.iterations],
            "final": {
                "energy": self.final_energy,
                "residual_norm": self.final_residual_norm,
            },
            "converged": self.converged,
            "n_iterations": self.n_iterations,
            "preconditioner": self.preconditioner,
        }
        if self.failure is not None:
            doc["failure"] = self.failure
        return json.dumps(doc, indent=indent)


@dataclass
class CGInfo:
    iterations: int
    converged: bool
    residual_norm: float
    levels: tuple        # operator rows per level, finest first; () if none was built
    stopped_by: str      # "tolerance", "floor" (rounding floor) or "budget" (max_iter)
    preconditioner: str = "multigrid"  # the one kind

    def describe(self):
        """The preconditioner and its level rows, as reports carry them."""
        return {"kind": self.preconditioner, "levels": list(self.levels)}


def solve_cg(matrix, rhs, cfg=CGConfig(), levels=(), coarse=(), singular=False):
    """Preconditioned conjugate gradients for an SPD sparse system.

    The preconditioner is a multigrid V-cycle over the geometric `levels`
    (from `multigrid.hierarchy`), whose Galerkin operators of `matrix` are
    `coarse` (from `assembly.assemble_hessian` with those levels), and the
    algebraic levels `multigrid.VCycle` adds below them. A `singular`
    matrix has the constants as its kernel, and `rhs` must be mean-free.
    CGInfo names the preconditioner and the rows of its levels.

    Iterates until the recursive residual satisfies
    ||r||_2 <= rel_tol ||rhs||_2, then measures the true residual and, if
    it still misses the tolerance, restarts from it for up to
    MAX_REFINEMENTS rounds while each round at least halves it (on
    ill-conditioned systems the true residual bottoms out at the rounding
    floor eps ||A|| ||x||, which no amount of iteration cures).
    Deterministic: fixed start x = 0, fixed reduction order. CGInfo's
    `stopped_by` says why the iteration ended: "tolerance" when the true
    residual meets it (`converged`), else "floor" for a rounding-floor
    stall or "budget" when max_iter ran out.
    """
    n = matrix.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    b_norm = float(np.linalg.norm(rhs))
    if n == 0 or b_norm == 0.0:
        return np.zeros(n), CGInfo(0, True, 0.0, (), "tolerance")
    max_iter = cfg.max_iter if cfg.max_iter is not None else max(1000, 5 * n)
    tol = cfg.rel_tol * b_norm

    diag = matrix.diagonal()
    if np.any(diag <= 0):
        raise SolverError("matrix diagonal not positive; not SPD")
    try:
        precondition = multigrid.VCycle((matrix, *coarse), levels, diagonal=diag, singular=singular)
    except np.linalg.LinAlgError:
        raise SolverError("coarse operator not positive definite; not SPD") from None

    x = np.zeros(n)
    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    refinements = 0
    best_true = np.inf
    stopped_by = "budget"
    while iterations < max_iter:
        if np.linalg.norm(r) <= tol:
            true_r = rhs - matrix @ x
            true_res = float(np.linalg.norm(true_r))
            if true_res <= tol:
                stopped_by = "tolerance"
                break
            if refinements >= MAX_REFINEMENTS or true_res > 0.5 * best_true:
                stopped_by = "floor"  # more iterations cannot help
                break
            best_true = min(best_true, true_res)
            refinements += 1
            r = true_r
            z = precondition(r)
            p = z.copy()
            rz = float(r @ z)
        Ap = matrix @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError("matrix not positive definite in CG")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if stopped_by == "budget":
        true_res = float(np.linalg.norm(rhs - matrix @ x))
        if true_res <= tol:
            stopped_by = "tolerance"
    sizes = tuple(precondition.sizes)
    return x, CGInfo(iterations, stopped_by == "tolerance", true_res, sizes, stopped_by)


def _certified(problem, cfg):
    """NewtonReport's certified fields; empty when a law lacks convexity bounds."""
    bounds = problem.certified_bounds()
    if bounds is None:
        return {}
    gamma, lip = bounds
    return {
        "gamma": gamma,
        "lipschitz": lip,
        "q_bound": 1.0 - 4.0 * cfg.rho * cfg.sigma * (1.0 - cfg.sigma) * (gamma / lip) ** 3,
        "tau_floor": min(1.0, 2.0 * cfg.rho * (1.0 - cfg.sigma) * gamma / lip),
    }


#: Relative rounding level of an assembled energy: a decrease demanded below
#: ENERGY_ROUNDING * |W| cannot be told from the noise of the energy sum.
ENERGY_ROUNDING = 64.0 * np.finfo(float).eps

#: Largest forcing term: no inner solve after the first is looser than this.
FORCING_MAX = 0.1


def _approximate_wolfe(problem, trial, delta, slope, sigma):
    """Hager-Zhang's approximate Armijo test on the exact directional derivative.

    d/dtau W(a + tau delta) at the trial is d = res(trial) . delta, since
    the residual is the exact gradient of the assembled energy. For a
    quadratic energy, d <= (2 sigma - 1) slope is the same condition as
    Armijo's, and it needs no energy difference. Returns (passed, d,
    res(trial)).
    """
    res = assembly.assemble_residual(problem, CoefficientVector(problem.space, trial))
    d = float(res @ delta)
    return d <= (2.0 * sigma - 1.0) * slope, d, res


def newton_solve(problem, a0=None, cfg=NewtonConfig(), history=None):
    """Minimize the discrete energy by damped Newton from a0 (default 0).

    Stops once the curl norm of the Newton increment or the Euclidean
    residual norm falls below its tolerance (both relative to the first
    iteration). The backtracking grid starts at tau = 1. Where the decrease
    the Armijo test demands is below the energy's rounding level, a trial
    that fails it is still accepted when the exact directional derivative
    passes the approximate Wolfe test (Hager-Zhang, SIAM J. Optim. 16,
    2005): comparing energies there compares rounding noise, so the step
    records the trapezoid energy estimate (module docstring). Exceeding
    max_backtracks raises LineSearchError, exceeding max_iter returns a
    non-converged report, and so does a non-finite residual norm, energy,
    Newton direction or trial energy (failure "non_finite") and a
    direction along which the energy does not descend (failure
    "linear_solve", before any backtracking). Passing a list as `history`
    collects a copy of every iterate's free-dof vector (initial value
    included). Without a constrained dof the Hessian is singular along the
    constants, so each right-hand side has its mean taken out before the
    inner solve, and a load along the constants fails as "linear_solve".
    """
    space = problem.space
    a = zero_coefficients(space) if a0 is None else a0
    vec = a.values.copy()
    if history is not None:
        history.append(vec.copy())
    levels = multigrid.hierarchy(space)
    singular = not space.constrained.any()  # H's kernel holds the constants

    records = []
    preconditioner = None
    converged = False
    failure = None
    # an overflow here is reported as failure "non_finite", not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        res = assembly.assemble_residual(problem, CoefficientVector(space, vec))
        energy = assembly.assemble_energy(problem, CoefficientVector(space, vec))
        res_norm = float(np.linalg.norm(res))
        # rounding floor: residual entries are cancelling sums, so anything at
        # eps times their magnitude is numerically zero
        res_floor = 64.0 * np.finfo(float).eps * assembly.residual_scale(
            problem, CoefficientVector(space, vec)
        )
    # res . 1 = -load . 1 as Curl 1 = 0; its rounding reached 2 sqrt(n) res_floor at P4
    inconsistent = singular and abs(res.sum()) > 1e6 * np.sqrt(res.size) * res_floor
    res_ref = None
    inc_ref = None

    for n in range(cfg.max_iter + 1):
        if not (np.isfinite(res_norm) and np.isfinite(energy)):
            failure = "non_finite"
            break
        if res_ref is None and res_norm > 0.0:
            res_ref = res_norm
        if res_norm <= max(cfg.tol_residual * (res_ref or 0.0), res_floor):
            converged = True
            break
        if inconsistent:
            failure = "linear_solve"
            break
        if n == cfg.max_iter:
            failure = "max_iter"
            break

        hess, *coarse = assembly.assemble_hessian(problem, CoefficientVector(space, vec), levels)
        # forcing term: the first solve is exact, later ones of order ||r_k||
        eta = cfg.cg.rel_tol
        if n > 0:
            eta = max(eta, min(FORCING_MAX, res_norm / res_ref))
        rhs = -res
        if singular:  # the rounding along the kernel would send CG into it
            rhs -= rhs.mean()
        delta, cg_info = solve_cg(
            hess, rhs, replace(cfg.cg, rel_tol=eta), levels=levels, coarse=coarse,
            singular=singular,
        )
        preconditioner = preconditioner or cg_info.describe()
        del hess, coarse  # not alive through the next step's assembly peak
        # = <dw(b) - h_s, Curl delta>_h < 0; res is finite here, so the slope
        # is not finite only for a non-finite or overflowing delta, which is
        # reported as failure "non_finite", not as a warning (see the trial)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = float(res @ delta)
            inc_norm = assembly.curl_norm(problem, delta)
        if not np.isfinite(slope):
            failure = "non_finite"
            break
        if slope >= 0.0:  # not a descent direction: no step size can decrease W
            failure = "linear_solve"
            break
        if inc_ref is None and inc_norm > 0.0:
            inc_ref = inc_norm

        tau = 1.0
        backtracks = 0
        trial_res = None  # the residual at the trial, where the derivative test assembled it
        while True:
            trial = vec + tau * delta
            # a finite direction can still overflow the trial's flux density
            # or energy; that step is reported as "non_finite", not taken
            with np.errstate(over="ignore", invalid="ignore"):
                trial_energy = assembly.assemble_energy(problem, CoefficientVector(space, trial))
            if not np.isfinite(trial_energy):
                failure = "non_finite"
                break
            if trial_energy <= energy + cfg.sigma * tau * slope:
                accepted_by = "armijo"
                break
            if -cfg.sigma * tau * slope <= ENERGY_ROUNDING * abs(energy):
                passed, d, trial_res = _approximate_wolfe(problem, trial, delta, slope, cfg.sigma)
                if passed:
                    # the assembled trial energy is rounding noise here; record the
                    # trapezoid estimate of the decrease, exact for a quadratic
                    # energy and at most sigma tau slope < 0 since the test passed
                    accepted_by = "derivative"
                    trial_energy = energy + 0.5 * tau * (slope + d)
                    break
            backtracks += 1
            if backtracks > cfg.max_backtracks:
                raise LineSearchError(
                    f"Armijo backtracking exhausted at iteration {n}: slope={slope:g}, "
                    f"energy={energy:.16g}, last trial tau={tau:g} "
                    f"energy={trial_energy:.16g}"
                )
            tau *= cfg.rho
        if failure is not None:
            break

        records.append(
            IterationRecord.of_step(
                n, energy, res_norm, tau, backtracks, accepted_by, inc_norm, eta, cg_info
            )
        )
        vec = trial
        energy = trial_energy
        if history is not None:
            history.append(vec.copy())
        with np.errstate(over="ignore", invalid="ignore"):
            if accepted_by == "derivative":
                res = trial_res
            else:
                res = assembly.assemble_residual(problem, CoefficientVector(space, vec))
            res_norm = float(np.linalg.norm(res))
        if inc_norm <= cfg.tol_increment * (inc_ref or 0.0):
            converged = True
            break

    report = NewtonReport(
        iterations=records,
        converged=converged,
        final_energy=energy,
        final_residual_norm=res_norm,
        failure=failure,
        preconditioner=preconditioner,
        problem=problem.describe(),
        **_certified(problem, cfg),
    )
    return CoefficientVector(space, vec), report
