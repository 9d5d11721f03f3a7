"""Analytic maps from a reference domain onto curved physical domains.

A DomainMap phi takes the reference domain onto the physical one, with
F = Dphi and J = det F > 0. `assembly.Problem` takes one as its
`domain_map` and folds the change of variables into its quadrature
tables: points phi(x), weights times J, and basis curls by the Piola
transform of the flux,

    b(phi(x)) = F(x) Curl a(x) / J(x),

so that material laws and sources are evaluated in physical coordinates
and the discrete energy, its derivatives and the L2 errors are integrals
over the physical domain. In 2D this transform follows from Curl a =
(grad a) rotated and the 2x2 adjugate identity.

Maps are analytic and meshes are never deformed: quadrature runs on the
straight triangles of the reference mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
