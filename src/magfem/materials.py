"""Magnetic energy densities w(x, b) with derivatives and convexity bounds.

Every law evaluates three things on batches of points: the energy density
w (J/m^3), its gradient h = dw/db (A/m, the magnetic field), and the
symmetric 2x2 second derivative d2w/db2 (the differential reluctivity,
m/H). Laws declare convexity bounds gamma <= eig(d2w) <= lipschitz that
the solver's convergence diagnostics rely on, plus an optional Lipschitz
constant of the second derivative (hess_lipschitz; `BrauerLaw`'s is a
sampled estimate, not a certified bound, and no solver bound uses it).

Every linear material (isotropic, anisotropic or permanently magnetized)
is one `LinearLaw`. The nonlinear `BrauerLaw` is isotropic, defined by a
radial profile wt(s) of s = |b|; its derivatives decompose into a radial
eigenvalue wt''(s) and a tangential eigenvalue wt'(s)/s (the chord
reluctivity), with the analytic s -> 0 limit substituted below
|b| = 1e-12 to avoid the 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: vacuum reluctivity, m/H
NU0 = 1e7 / (4.0 * np.pi)

_RADIAL_EPS = 1e-12

#: certify_bounds compares all sample pairs up to this many samples
PAIRWISE_LIMIT = 512


def _as_points(b):
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[None, :]
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError("b must be a 2-vector or an (n, 2) array")
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite flux density")
    return b


class MaterialLaw:
    """Base contract: w, dw, d2w evaluated on (n, 2) batches.

    `x` is the evaluation point batch (same shape as b); spatially
    homogeneous laws ignore it. Laws are immutable value objects and all
    evaluations are pure.
    """

    gamma = None
    lipschitz = None
    hess_lipschitz = None

    def w(self, x, b):
        raise NotImplementedError

    def dw(self, x, b):
        raise NotImplementedError

    def d2w(self, x, b):
        raise NotImplementedError


class LinearLaw(MaterialLaw):
    """w = 1/2 <N b, b> - m.b, so h = N b - m and d2w = N: every linear material.

    `reluctivity` is a positive nu (N = nu I) or a symmetric positive definite
    2x2 matrix N (m/H); `magnetization` is a permanent magnet's fixed m (A/m).
    """

    def __init__(self, reluctivity, magnetization=(0.0, 0.0)):
        N = np.array(reluctivity, dtype=float)
        N = np.diag([N, N]) if N.ndim == 0 else N.reshape(2, 2)
        m = np.array(magnetization, dtype=float).reshape(2)
        if not (np.all(np.isfinite(N)) and np.all(np.isfinite(m))):
            raise ValueError("reluctivity and magnetization must be finite")
        eigs = np.linalg.eigvalsh(N)
        if eigs[0] <= 0 or not np.allclose(N, N.T, rtol=1e-12, atol=0.0):
            raise ValueError("reluctivity must be symmetric positive definite")
        N.flags.writeable = False
        m.flags.writeable = False
        self.reluctivity = N
        self.magnetization = m
        self.gamma = float(eigs[0])
        self.lipschitz = float(eigs[-1])
        self.hess_lipschitz = 0.0

    def w(self, x, b):
        b = _as_points(b)
        return 0.5 * np.sum((b @ self.reluctivity) * b, axis=1) - b @ self.magnetization

    def dw(self, x, b):
        return _as_points(b) @ self.reluctivity - self.magnetization

    def d2w(self, x, b):
        b = _as_points(b)
        return np.broadcast_to(self.reluctivity, (len(b), 2, 2)).copy()


@dataclass(frozen=True)
class BrauerParams:
    """Coefficients of the quadratically extended Brauer profile."""

    k1: float
    k2: float
    k3: float
    nu0: float
    s_star: float
    a0: float
    a1: float


def _brauer_core(k1, k2, k3, s):
    """Exponential core wt(s) = k1/(2 k2) exp(k2 s^2) + k3/2 s^2, wt', wt''."""
    e = np.exp(k2 * s * s)
    return (
        k1 / (2.0 * k2) * e + 0.5 * k3 * s * s,
        s * (k1 * e + k3),
        k1 * e * (1.0 + 2.0 * k2 * s * s) + k3,
    )


def _brauer_tail(p, s):
    """Quadratic extension wt(s) = a0 + a1 s + nu0/2 s^2, wt', wt''."""
    return (
        p.a0 + p.a1 * s + 0.5 * p.nu0 * s * s,
        p.a1 + p.nu0 * s,
        p.nu0,
    )


def brauer_build(k1, k2, k3, nu0=NU0):
    """Solve for the C2 quadratic extension of the Brauer reluctivity law.

    Below the threshold s_star the profile is
    wt(s) = k1/(2 k2) exp(k2 s^2) + k3/2 s^2; above, it continues as the
    quadratic a0 + a1 s + nu0/2 s^2. s_star is the unique root of
    wt''(s) = nu0, found by bisection to 1e-12 relative; a1 and a0 then
    match first derivative and value. By construction wt'' is continuous.
    """
    if min(k1, k2, k3) <= 0:
        raise ValueError("Brauer coefficients must be positive")
    if nu0 <= k1 + k3:
        raise ValueError(
            f"no truncation point: nu0 = {nu0:g} must exceed k1 + k3 = {k1 + k3:g}"
        )

    def ddw(s):
        return _brauer_core(k1, k2, k3, s)[2] - nu0

    lo, hi = 0.0, 1.0
    while ddw(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("failed to bracket the truncation threshold")
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if ddw(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)

    # the matching values keep their own operation order (k2 * s_star**2, not
    # the core's k2 * s * s): a0 and a1, and so every Brauer evaluation,
    # depend on its rounding
    w_lo = k1 / (2.0 * k2) * np.exp(k2 * s_star**2) + 0.5 * k3 * s_star**2
    dw_lo = s_star * (k1 * np.exp(k2 * s_star**2) + k3)
    a1 = dw_lo - nu0 * s_star
    a0 = w_lo - a1 * s_star - 0.5 * nu0 * s_star**2
    return BrauerParams(k1=k1, k2=k2, k3=k3, nu0=nu0, s_star=s_star, a0=a0, a1=a1)


def brauer_c2_residuals(params):
    """Relative mismatch of value, slope and curvature across the threshold."""
    core = _brauer_core(params.k1, params.k2, params.k3, params.s_star)
    tail = _brauer_tail(params, params.s_star)
    return tuple(abs(lo - hi) / abs(hi) for lo, hi in zip(core, tail))


class BrauerLaw(MaterialLaw):
    """Isotropic Brauer ferromagnet w = wt(|b|): exponential core, quadratic extension.

    The differential reluctivity rises from k1 + k3 at b = 0 to nu0 at the
    threshold and stays there, so gamma = k1 + k3 and lipschitz = nu0 are
    exact bounds. The second-derivative Lipschitz constant is a sampled
    estimate: the largest difference quotient of wt'' on a radial grid up
    to the threshold (the profile's third derivative vanishes above it),
    which can fall short of the true constant but not exceed it.
    """

    def __init__(self, params):
        self.params = params
        self.gamma = params.k1 + params.k3
        self.lipschitz = params.nu0
        self.hess_lipschitz = self._scan_hess_lipschitz()

    def w(self, x, b):
        _, _, (w0, _, _) = self._radial(b)
        return w0

    def dw(self, x, b):
        b, s, (_, d1, d2) = self._radial(b)
        return self._chord(s, d1, d2)[:, None] * b

    def d2w(self, x, b):
        # nu(s) I + (wt''(s) - nu(s)) (b/s) (b/s)^T, nu = chord reluctivity
        b, s, (_, d1, d2) = self._radial(b)
        nu = self._chord(s, d1, d2)
        unit = b / np.where(s < _RADIAL_EPS, np.inf, s)[:, None]  # b/s; 0 in the s -> 0 limit
        out = np.zeros((len(s), 2, 2))
        out[:, 0, 0] = nu
        out[:, 1, 1] = nu
        c = d2 - nu
        for i, j in np.ndindex(2, 2):  # one entry at a time: no (n, 2, 2) temporaries
            out[:, i, j] += (c * unit[:, i]) * unit[:, j]
        return out

    def _radial(self, b):
        """The checked batch b, the radii s = |b|, and wt, wt', wt'' at s."""
        b = _as_points(b)
        s = np.linalg.norm(b, axis=1)
        return b, s, self._profile(s)

    def _chord(self, s, d1, d2):
        """wt'(s)/s with its s -> 0 limit wt''(0)."""
        small = s < _RADIAL_EPS
        safe = np.where(small, 1.0, s)
        return np.where(small, d2, d1 / safe)

    def _profile(self, s):
        """Return wt(s), wt'(s), wt''(s) for a batch of radii s >= 0."""
        p = self.params
        s = np.asarray(s, dtype=float)
        low = s <= p.s_star
        w_low, d1_low, d2_low = _brauer_core(p.k1, p.k2, p.k3, np.where(low, s, 0.0))
        w_high, d1_high, d2_high = _brauer_tail(p, s)
        return (
            np.where(low, w_low, w_high),
            np.where(low, d1_low, d1_high),
            np.where(low, d2_low, d2_high),
        )

    def _scan_hess_lipschitz(self, n=2001):
        s = np.linspace(0.0, self.params.s_star, n)
        _, _, d2 = self._profile(s)
        return float(np.max(np.abs(np.diff(d2) / np.diff(s))))


def build_law(kind, params):
    """Material law of the named kind from a mapping of named parameters.

    Values may be numbers or numeric strings and must be finite. Brauer
    coefficients default to the standard soft-iron set; the anisotropic
    law's n11 and n22 are required.
    """

    def get(name, default=None):
        if name in params:
            value = float(params[name])
            if not np.isfinite(value):
                raise ValueError(f"{kind} law parameter {name!r} must be finite, got {value}")
            return value
        if default is None:
            raise ValueError(f"{kind} law needs parameter {name!r}")
        return default

    if kind == "brauer":
        k1, k2, k3 = get("k1", 3.8), get("k2", 2.17), get("k3", 396.2)
        return BrauerLaw(brauer_build(k1, k2, k3, get("nu0", NU0)))
    if kind == "linear":
        return LinearLaw(get("nu", NU0))
    if kind == "permanent_magnet":
        return LinearLaw(get("nu0", NU0), (get("mx", 0.0), get("my", 0.0)))
    if kind == "anisotropic":
        n12 = get("n12", 0.0)
        return LinearLaw([[get("n11"), n12], [n12, get("n22")]])
    raise ValueError(f"unknown material law {kind!r}")


def brauer_reference():
    """Brauer law with the standard soft-iron coefficients."""
    return build_law("brauer", {})


def _spectral_norms(mats):
    """Operator 2-norm of a batch of symmetric 2x2 matrices."""
    a = mats[..., 0, 0]
    b = mats[..., 0, 1]
    d = mats[..., 1, 1]
    half = 0.5 * (a + d)
    rad = np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return np.maximum(np.abs(half + rad), np.abs(half - rad))


def certify_bounds(law, b_samples):
    """Scan convexity bounds over samples: (gamma_hat, L_hat, L2_hat).

    gamma_hat and L_hat are the extreme eigenvalues of d2w over the
    sample cloud; L2_hat estimates the Lipschitz constant of d2w from
    difference quotients (all sample pairs up to PAIRWISE_LIMIT samples,
    consecutive pairs beyond). The law is evaluated at x = 0. Estimates
    are lower bounds of the true suprema and are reported, not asserted.
    """
    b = _as_points(b_samples)
    if len(b) == 0:
        raise ValueError("empty sample set")
    H = law.d2w(np.zeros_like(b), b)
    eigs = np.linalg.eigvalsh(H)
    gamma_hat = float(eigs[:, 0].min())
    l_hat = float(eigs[:, -1].max())

    if len(b) <= PAIRWISE_LIMIT:
        ii, jj = np.triu_indices(len(b), k=1)
    else:
        ii = np.arange(len(b) - 1)
        jj = ii + 1
    dist = np.linalg.norm(b[ii] - b[jj], axis=1)
    keep = dist > 0
    quotients = _spectral_norms(H[ii[keep]] - H[jj[keep]]) / dist[keep]
    l2_hat = float(quotients.max()) if quotients.size else 0.0
    return gamma_hat, l_hat, l2_hat


def radial_samples(s_max, n=401):
    """Radial sample cloud for isotropic bound certification."""
    s = np.linspace(0.0, s_max, n)
    return np.column_stack([s, np.zeros_like(s)])
