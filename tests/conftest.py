"""Shared fixtures and independent integration oracles for the test suite."""

import os

# Pin BLAS to one thread before numpy loads, as perfbench/run.py does: the
# thread count fixes the summation order of dot products, so without the pin
# the suite's arithmetic depends on the host's core count. Once, criterion 03
# passed with two OpenBLAS threads and failed with one, on a last-digit rise
# of a two_wire_disc energy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest
from scipy.special import roots_jacobi, roots_legendre

import magfem as mf


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
