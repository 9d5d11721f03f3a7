"""Positive-weight quadrature on the reference triangle.

Rules live on the reference triangle with vertices (0,0), (1,0), (0,1)
and carry weights that sum to one, so that the mesh-wide discrete inner
product is

    <u, v>_h = sum_T sum_j u(x_Tj) . v(x_Tj) w_j |T|

with x_Tj the affinely mapped reference points. Stored rules are
symmetric-orbit tables refined to machine precision against the monomial
moments  int x^p y^q = p! q! / (p+q+2)!  and are exact (to ~1e-15
relative) for all polynomials up to their declared degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 8


class UnsupportedDegreeError(ValueError):
    def __init__(self, degree):
        super().__init__(
            f"no stored rule reaches exactness degree {degree}; maximum is {MAX_DEGREE}"
        )
        self.degree = degree


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points (reference coords) and positive weights summing to one."""

    degree: int
    points: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)


# (x, y, weight) rows per exactness degree. Degrees 1 and 2 are the exact
# centroid and edge-midpoint rules; 4, 5, 6, 8 are symmetric two/three-orbit
# rules (Gauss-Newton-polished moment solutions, all weights positive).
_TABLES = {
    1: [
        (1.0 / 3.0, 1.0 / 3.0, 1.0),
    ],
    2: [
        (0.5, 0.0, 1.0 / 3.0),
        (0.5, 0.5, 1.0 / 3.0),
        (0.0, 0.5, 1.0 / 3.0),
    ],
    4: [
        (0.44594849091596478, 0.44594849091596478, 0.22338158967801133),
        (0.10810301816807044, 0.44594849091596478, 0.22338158967801133),
        (0.44594849091596478, 0.10810301816807044, 0.22338158967801133),
        (0.091576213509770785, 0.091576213509770785, 0.109951743655322),
        (0.8168475729804584, 0.091576213509770785, 0.109951743655322),
        (0.091576213509770785, 0.8168475729804584, 0.109951743655322),
    ],
    5: [
        (0.33333333333333331, 0.33333333333333331, 0.22500000000000714),
        (0.10128650732345656, 0.10128650732345656, 0.12593918054482761),
        (0.79742698535308687, 0.10128650732345656, 0.12593918054482761),
        (0.10128650732345656, 0.79742698535308687, 0.12593918054482761),
        (0.47014206410511628, 0.47014206410511628, 0.13239415278850333),
        (0.05971587178976745, 0.47014206410511628, 0.13239415278850333),
        (0.47014206410511628, 0.05971587178976745, 0.13239415278850333),
    ],
    6: [
        (0.063089014491509915, 0.063089014491509915, 0.050844906370217678),
        (0.87382197101698011, 0.063089014491509915, 0.050844906370217678),
        (0.063089014491509915, 0.87382197101698011, 0.050844906370217678),
        (0.24928674517087357, 0.24928674517087357, 0.1167862757264413),
        (0.50142650965825286, 0.24928674517087357, 0.1167862757264413),
        (0.24928674517087357, 0.50142650965825286, 0.1167862757264413),
        (0.05314504984479107, 0.63650249912139645, 0.082851075618337183),
        (0.63650249912139645, 0.31035245103381248, 0.082851075618337183),
        (0.31035245103381248, 0.05314504984479107, 0.082851075618337183),
        (0.63650249912139645, 0.05314504984479107, 0.082851075618337183),
        (0.31035245103381248, 0.63650249912139645, 0.082851075618337183),
        (0.05314504984479107, 0.31035245103381248, 0.082851075618337183),
    ],
    8: [
        (0.33333333333333331, 0.33333333333333331, 0.14431560767772972),
        (0.1705693077517266, 0.1705693077517266, 0.10321737053472338),
        (0.65886138449654674, 0.1705693077517266, 0.10321737053472338),
        (0.1705693077517266, 0.65886138449654674, 0.10321737053472338),
        (0.050547228317032657, 0.050547228317032657, 0.032458497623202583),
        (0.89890554336593465, 0.050547228317032657, 0.032458497623202583),
        (0.050547228317032657, 0.89890554336593465, 0.032458497623202583),
        (0.45929258829269015, 0.45929258829269015, 0.095091634267318439),
        (0.081414823414619697, 0.45929258829269015, 0.095091634267318439),
        (0.45929258829269015, 0.081414823414619697, 0.095091634267318439),
        (0.0083947774099117564, 0.72849239295534796, 0.027230314174422864),
        (0.72849239295534796, 0.2631128296347402, 0.027230314174422864),
        (0.2631128296347402, 0.0083947774099117564, 0.027230314174422864),
        (0.72849239295534796, 0.0083947774099117564, 0.027230314174422864),
        (0.2631128296347402, 0.72849239295534796, 0.027230314174422864),
        (0.0083947774099117564, 0.2631128296347402, 0.027230314174422864),
    ],
}

STORED_DEGREES = tuple(sorted(_TABLES))

_RULES = {}
for _d, _rows in _TABLES.items():
    _arr = np.array(_rows, dtype=float)
    _pts = _arr[:, :2].copy()
    _wts = _arr[:, 2].copy()
    _pts.flags.writeable = False
    _wts.flags.writeable = False
    _RULES[_d] = QuadratureRule(degree=_d, points=_pts, weights=_wts)


def rule_for_degree(d):
    """Smallest stored rule exact to at least polynomial degree d.

    The same rule object is returned for equal d, so rules can be used as
    cache keys. Degrees above MAX_DEGREE raise UnsupportedDegreeError.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > MAX_DEGREE:
        raise UnsupportedDegreeError(d)
    for stored in STORED_DEGREES:
        if stored >= d:
            return _RULES[stored]
    raise UnsupportedDegreeError(d)  # pragma: no cover


def mapped_points(mesh, points):
    """Reference points (n, 2) mapped affinely to every element; (ne, n, 2)."""
    p = mesh.vertices[mesh.triangles]  # (ne, 3, 2)
    v0 = p[:, 0]
    d1 = p[:, 1] - v0
    d2 = p[:, 2] - v0
    x = points[:, 0]
    y = points[:, 1]
    return (
        v0[:, None, :]
        + x[None, :, None] * d1[:, None, :]
        + y[None, :, None] * d2[:, None, :]
    )


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
