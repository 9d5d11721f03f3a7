"""Pull-back of problems on smoothly mapped domains to a reference domain.

A DomainMap phi takes the reference domain onto the physical one. With
F = Dphi and J = det F > 0, scalar potentials pull back by composition,
which induces the field transforms

    b'(x') = F(x) b(x) / J(x)        (flux, Piola)
    h(x)   = F(x)^T h'(x')           (field strength)
    w(x,b) = J(x) w'(x', F b / J)    (energy density)

so that energies, variational identities, and monotonicity pairings on
the physical domain coincide with their reference-domain counterparts.
In 2D these follow from Curl a = (grad a) rotated and the 2x2 adjugate
identity; this module fixes them as the normative transforms.

Maps are analytic; meshes are never deformed, so quadrature on straight
triangles stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import MaterialLaw


class OrientationError(ValueError):
    """The map's Jacobian determinant is nonpositive at a queried point."""


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    return x


@dataclass(frozen=True, eq=False)
class DomainMap:
    """Analytic diffeomorphism (phi, F, J) from reference to physical."""

    phi: object   # (n, 2) -> (n, 2)
    F: object     # (n, 2) -> (n, 2, 2)
    J: object     # (n, 2) -> (n,)

    def jacobians(self, x):
        x = _as_points(x)
        F = np.asarray(self.F(x), dtype=float)
        J = np.asarray(self.J(x), dtype=float)
        if np.any(J <= 0.0):
            bad = int(np.argmin(J))
            raise OrientationError(
                f"map is orientation reversing: det F = {J[bad]:g} at {x[bad]}"
            )
        return F, J


def identity_map():
    return DomainMap(
        phi=lambda x: _as_points(x).copy(),
        F=lambda x: np.broadcast_to(np.eye(2), (len(_as_points(x)), 2, 2)).copy(),
        J=lambda x: np.ones(len(_as_points(x))),
    )


def affine_map(matrix, shift=(0.0, 0.0)):
    A = np.asarray(matrix, dtype=float).reshape(2, 2)
    t = np.asarray(shift, dtype=float).reshape(2)
    det = float(np.linalg.det(A))
    if det <= 0.0:
        raise OrientationError(f"affine matrix has nonpositive determinant {det:g}")
    return DomainMap(
        phi=lambda x: _as_points(x) @ A.T + t,
        F=lambda x: np.broadcast_to(A, (len(_as_points(x)), 2, 2)).copy(),
        J=lambda x: np.full(len(_as_points(x)), det),
    )


def quarter_annulus_map(r_inner, r_outer):
    """Unit square onto the first-quadrant annulus r_inner <= r <= r_outer.

    x maps to radius, y to angle in [0, pi/2].
    """
    if not 0.0 < r_inner < r_outer:
        raise ValueError("require 0 < r_inner < r_outer")
    dr = r_outer - r_inner
    half_pi = 0.5 * np.pi

    def polar(x):
        x = _as_points(x)
        return r_inner + dr * x[:, 0], half_pi * x[:, 1]

    def phi(x):
        r, th = polar(x)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    def F(x):
        r, th = polar(x)
        c, s = np.cos(th), np.sin(th)
        out = np.empty((len(r), 2, 2))
        out[:, 0, 0] = dr * c
        out[:, 0, 1] = -half_pi * r * s
        out[:, 1, 0] = dr * s
        out[:, 1, 1] = half_pi * r * c
        return out

    def J(x):
        r, _ = polar(x)
        return dr * half_pi * r

    return DomainMap(phi=phi, F=F, J=J)


BUILTIN_MAPS = ("identity", "affine", "quarter_annulus")

#: the 9 x 9 reference grid on which PulledBackLaw samples F for its bounds
_GRID = np.linspace(0.0, 1.0, 9)
BOUND_SAMPLES = np.column_stack([g.ravel() for g in np.meshgrid(_GRID, _GRID)])


class PulledBackLaw(MaterialLaw):
    """Reference-domain law equivalent to `law_phys` on the mapped domain."""

    def __init__(self, domain_map, law_phys):
        self.map = domain_map
        self.phys = law_phys
        F, J = domain_map.jacobians(BOUND_SAMPLES)
        sv = np.linalg.svd(F, compute_uv=False)
        scale_lo = float(np.min(sv[:, -1] ** 2 / J))
        scale_hi = float(np.max(sv[:, 0] ** 2 / J))
        if law_phys.gamma is not None:
            self.gamma = law_phys.gamma * scale_lo
        if law_phys.lipschitz is not None:
            self.lipschitz = law_phys.lipschitz * scale_hi

    def _transform(self, x, b):
        F, J = self.map.jacobians(x)
        xp = self.map.phi(_as_points(x))
        bp = np.einsum("nij,nj->ni", F, np.asarray(b, dtype=float)) / J[:, None]
        return F, J, xp, bp

    def w(self, x, b):
        F, J, xp, bp = self._transform(x, b)
        return J * self.phys.w(xp, bp)

    def dw(self, x, b):
        F, J, xp, bp = self._transform(x, b)
        return np.einsum("nji,nj->ni", F, self.phys.dw(xp, bp))

    def d2w(self, x, b):
        F, J, xp, bp = self._transform(x, b)
        Hp = self.phys.d2w(xp, bp)
        return np.einsum("nki,nkl,nlj->nij", F, Hp, F) / J[:, None, None]


def pullback_material(domain_map, law_phys):
    """Reference-domain law w(x, b) = J w'(phi(x), F b / J).

    Its gradient is F^T dw' and its Hessian F^T d2w' F / J by the chain
    rule. Declared convexity bounds are rescaled by the extremal singular
    values of F over the reference points BOUND_SAMPLES (reported, not
    assumed tight).
    """
    return PulledBackLaw(domain_map, law_phys)


def pullback_source(domain_map, hs_phys):
    """Reference-domain source h_s(x) = F(x)^T h_s'(phi(x))."""

    def hs(x):
        x = _as_points(x)
        F, _ = domain_map.jacobians(x)
        vals = np.asarray(hs_phys(domain_map.phi(x)), dtype=float)
        return np.einsum("nji,nj->ni", F, vals)

    return hs


def pushforward_b(domain_map, x, b):
    """Piola transform of the flux: b'(phi(x)) = F(x) b(x) / J(x)."""
    x = _as_points(x)
    b = np.asarray(b, dtype=float)
    single = b.ndim == 1
    if single:
        b = b[None, :]
    F, J = domain_map.jacobians(x)
    out = np.einsum("nij,nj->ni", F, b) / J[:, None]
    return out[0] if single else out

