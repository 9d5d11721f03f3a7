"""Assembly of the quadrature-based discrete energy, gradient, and Hessian.

All three quantities are evaluated with one quadrature rule (exactness at
least twice the curl degree), so the assembled residual is the exact
gradient of the assembled energy and the Hessian its exact Jacobian.
Element contributions are computed in vectorized batches and never in a
contraction order chosen at run time: the load, the residual and its
rounding scale contract with the basis curls in one two-operand einsum,
the Hessian in explicit batched matrix products summed into a CSR
sparsity pattern built once per `Problem`, filled in a fixed order. Given
the levels of a multigrid hierarchy, the Hessian kernel also sums each
level's Galerkin coarse operator from the same element matrices (see
`multigrid`). Assembled quantities are thus bit-reproducible on a given
platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import femspace
from .quadrature import mapped_points, rule_for_degree


#: Elements per batch of the Hessian kernel and of `residual_scale`, which
#: bounds their temporaries.
ELEMENT_BATCH = 2048


class ProblemConfigError(ValueError):
    """Inconsistent problem setup (missing material, bad source form)."""


@dataclass(frozen=True, eq=False)
class Problem:
    """Discrete minimization problem for the vector potential.

    Exactly one of hs_field (source field, evaluated pointwise, A/m) and
    js_density (out-of-plane current density, A/m^2) may be set; both
    unset means a purely magnet-driven problem. js_density may also be a
    {region tag: constant} dict, which keeps wire currents aligned with
    element boundaries on every refinement level. The source is a fixed
    linear functional of the potential, so it is integrated once into the
    free-dof vector `load`, and the discrete energy is
    W(a) = <w(Curl a), 1>_h - <load, a>. `order` is the curl degree k; the
    potential lives in Lagrange elements of degree k+1 and the quadrature
    `rule` is exact to degree max(2k, 1).

    A `domain_map` (`geometry.DomainMap`) poses the problem on the image of
    the mesh under the map, with the laws and sources in physical
    coordinates: the change of variables is folded into the tables below
    (`_tables`), so no assembly calls the map, and the one quadrature
    measure `wq` of every integral and norm carries its determinant.

    Everything an assembly reads is tabulated once, at construction, into
    the read-only arrays below; nothing is assigned afterwards. The basis
    curls are stored element-major, so that every contraction with them is
    a batched matrix product over elements. The free-dof operators share
    one CSR pattern (`indices`, `indptr`, with nnz entries); `slots` sends
    each local entry (e, i, j) to its position in the CSR data, and every
    entry that touches a constrained dof to the one trailing slot nnz.
    """

    mesh: object
    order: int
    materials: dict
    dirichlet_tags: frozenset
    hs_field: object = None
    js_density: object = None
    domain_map: object = None
    space: femspace.FESpace = field(init=False)
    rule: object = field(init=False)
    points: np.ndarray = field(init=False)  # (ne, nq, 2) mapped quadrature points
    curls: np.ndarray = field(init=False)   # (ne, n_local, nq, 2) basis curls
    wq: np.ndarray = field(init=False)      # (ne, nq) weights times element areas (times det F)
    region_rows: dict = field(init=False)   # {region tag: element indices}
    load: np.ndarray = field(init=False)    # (n_free,) the source's load vector
    slots: np.ndarray = field(init=False)   # (ne, n_local, n_local) CSR slot per local entry
    indices: np.ndarray = field(init=False)  # (nnz,) CSR column indices, sorted per row
    indptr: np.ndarray = field(init=False)  # (n_free + 1,) CSR row pointers

    def __post_init__(self):
        if self.hs_field is not None and self.js_density is not None:
            raise ProblemConfigError("set at most one of hs_field and js_density")
        mesh = self.mesh
        missing = mesh.region_tags_present() - set(self.materials)
        if missing:
            raise ProblemConfigError(f"regions {sorted(missing)} have no material law")
        rule = rule_for_degree(max(2 * self.order, 1))
        space = femspace.build_space(mesh, self.order + 1, self.dirichlet_tags)
        points, curls, wq = _tables(space, rule, self.domain_map)
        curls = np.ascontiguousarray(curls)
        ne, nq, _ = points.shape
        flat_points = points.reshape(ne * nq, 2)
        region_rows = {
            tag: np.nonzero(mesh.region_tag == tag)[0]
            for tag in sorted(mesh.region_tags_present())
        }
        slots, indices, indptr = _csr_pattern(space)  # first: the source temporaries miss its peak
        cell = np.zeros(curls.shape[:2])
        if self.hs_field is not None:
            hs = np.asarray(self.hs_field(flat_points), float).reshape(ne, nq, 2)
            cell = np.einsum("elqi,eqi->el", curls, wq[..., None] * hs)
        elif self.js_density is not None:
            if isinstance(self.js_density, dict):
                js = np.empty((ne, nq))
                for tag, rows in region_rows.items():  # one lookup per region
                    js[rows] = float(self.js_density.get(tag, 0.0))
            else:
                js = np.asarray(self.js_density(flat_points), float).reshape(ne, nq)
            cell = np.einsum("eq,eq,ql->el", wq, js, femspace.tabulate_values(space, rule))
        load = _free_sum(space, cell)
        for arr in (points, curls, wq, load, slots, indices, indptr, *region_rows.values()):
            arr.flags.writeable = False
        for name, value in (
            ("rule", rule), ("space", space), ("points", points), ("curls", curls), ("wq", wq),
            ("region_rows", region_rows), ("load", load),
            ("slots", slots), ("indices", indices), ("indptr", indptr),
        ):
            object.__setattr__(self, name, value)

    def __repr__(self):
        source = "hs" if self.hs_field is not None else "js" if self.js_density is not None else "none"
        return (
            f"Problem(ne={self.mesh.num_triangles}, k={self.order}, "
            f"n_free={self.space.n_free}, regions={sorted(self.materials)}, "
            f"source={source})"
        )

    def describe(self):
        """The size, degrees and region tags that reports carry."""
        return {
            "ne": self.mesh.num_triangles, "n_free": self.space.n_free, "order": self.order,
            "quad_degree": self.rule.degree, "regions": list(self.region_rows),
        }

    def certified_bounds(self):
        """(gamma, L) over all region laws, or None if any law lacks them."""
        gammas, lips = [], []
        for law in self.materials.values():
            if law.gamma is None or law.lipschitz is None:
                return None
            gammas.append(law.gamma)
            lips.append(law.lipschitz)
        return min(gammas), max(lips)


def _tables(space, rule, domain_map):
    """Quadrature tables of `rule` on the space's mesh: (points, curls, wq).

    The points (ne, nq, 2), the basis curls with element-major axes (ne,
    n_local, nq, 2), not necessarily contiguous, and the measure wq (ne,
    nq), weights times element areas. With a domain map these are the
    physical domain's, by the change of variables x -> phi(x) with F = D phi
    and J = det F at the reference points: points phi(x), curls
    F Curl phi / J (the Piola transform of the flux) and weights times J.
    """
    points = mapped_points(space.mesh, rule.points)
    curls = femspace.tabulate_curl(space, rule).transpose(0, 2, 1, 3)
    wq = rule.weights[None, :] * space.element_areas[:, None]
    if domain_map is None:
        return points, curls, wq
    ne, nq, _ = points.shape
    flat = points.reshape(ne * nq, 2)
    F, J = domain_map.jacobians(flat)  # raises OrientationError where J <= 0
    G = (F / J[:, None, None]).reshape(ne, 1, nq, 2, 2)
    piola = np.empty(curls.shape)  # written per component: a 2x2 matmul per point is slow
    for i in range(2):
        piola[..., i] = G[..., i, 0] * curls[..., 0] + G[..., i, 1] * curls[..., 1]
    points = np.asarray(domain_map.phi(flat), dtype=float).reshape(ne, nq, 2)
    return points, piola, wq * J.reshape(ne, nq)


def _csr_pattern(space):
    """CSR pattern of the free-dof operators and each local entry's slot in it.

    The int64 keys row * n + col of all (e, i, j) entries are sorted once;
    a key's slot is the number of distinct keys below it. Entries that
    touch a constrained dof all get the key n * n, which sorts last, so
    they share the trailing slot nnz. Each temporary is released as soon
    as it has been read, so the call holds about three key-sized arrays at
    once. Returns (slots, indices, indptr), in int32 whenever nnz fits.
    """
    n = space.n_free
    free = space.free_index[space.conn]  # (ne, nl), -1 where constrained
    keys = free[:, :, None] * n + free[:, None, :]
    keys[(free < 0)[:, :, None] | (free < 0)[:, None, :]] = n * n
    shape = keys.shape
    order = np.argsort(keys, axis=None)
    keys = keys.ravel()[order]  # sorted; the unsorted keys are dropped
    new = np.empty(keys.shape, dtype=bool)  # first of its run of equal keys
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    unique = keys[new]
    del keys
    nnz = int(np.searchsorted(unique, n * n))
    index = np.int32 if nnz < np.iinfo(np.int32).max else np.int64
    rank = np.cumsum(new, dtype=index)
    del new
    rank -= 1
    slots = np.empty(rank.shape, dtype=index)
    slots[order] = rank
    del order, rank
    unique = unique[:nnz]
    indptr = np.searchsorted(unique, np.arange(n + 1) * n)
    return slots.reshape(shape), (unique % n).astype(index), indptr.astype(index)


def _local_coeffs(problem, coeffs):
    return coeffs.full()[problem.space.conn]  # (ne, nl)


def _free_sum(space, cell):
    """Per-element contributions (ne, nl) summed into each free dof."""
    res = np.zeros(space.num_dofs)
    np.add.at(res, space.conn.ravel(), cell.ravel())
    return res[~space.constrained]


def curl_at_quadrature(problem, coeffs):
    """Flux density b = Curl a_h at every quadrature point; (ne, nq, 2)."""
    return np.einsum("el,elqi->eqi", _local_coeffs(problem, coeffs), problem.curls)


def _material_apply(problem, name, b, points=None):
    """Evaluate law.<name> regionwise on the (ne, nq, 2) batch b.

    `points` are the (ne, nq, 2) points b sits at, by default the
    problem's own quadrature points.
    """
    points = problem.points if points is None else points
    ne, nq = b.shape[:2]
    out = None
    for tag, rows in problem.region_rows.items():
        law = problem.materials[tag]
        if len(rows) == ne:  # one region holds every element: no gather
            xs, bs = points.reshape(-1, 2), b.reshape(-1, 2)
        else:
            xs, bs = points[rows].reshape(-1, 2), b[rows].reshape(-1, 2)
        vals = getattr(law, name)(xs, bs)
        if out is None:
            out = np.empty((ne, nq) + vals.shape[1:])
        out[rows] = vals.reshape((len(rows), nq) + vals.shape[1:])
    return out


def assemble_energy(problem, coeffs):
    """Discrete magnetic energy W(a_h) = <w(Curl a_h), 1>_h - <load, a_h>.

    NaN when the flux density overflows, which no material law evaluates.
    """
    b = curl_at_quadrature(problem, coeffs)
    if not np.isfinite(b).all():
        return np.nan
    w = _material_apply(problem, "w", b)  # (ne, nq)
    return float(np.sum(problem.wq * w)) - float(problem.load @ coeffs.values)


def assemble_residual(problem, coeffs):
    """Gradient of W = <w>_h - <load, a> over free dofs.

    Component i is <dw(Curl a_h), Curl phi_i>_h - load_i.
    """
    b = curl_at_quadrature(problem, coeffs)
    h = _material_apply(problem, "dw", b)  # (ne, nq, 2)
    h *= problem.wq[..., None]  # owned here, so weighted in place
    return _free_sum(problem.space, np.einsum("elqi,eqi->el", problem.curls, h)) - problem.load


def residual_scale(problem, coeffs):
    """Rounding-floor scale of the residual of W = <w>_h - <load, a>.

    The norm of the free-dof sums of <|dw|, |Curl phi_i|>_h plus |load_i|:
    the residual's terms, each taken absolutely, so eps times it bounds the
    floating-point noise of an exactly zero residual (for example a
    uniformly magnetized domain, whose exact solution is a = 0).
    """
    b = curl_at_quadrature(problem, coeffs)
    h = np.abs(_material_apply(problem, "dw", b))
    h *= problem.wq[..., None]  # the weights are positive
    cell = np.empty(problem.curls.shape[:2])
    for start in range(0, len(cell), ELEMENT_BATCH):  # |Curl phi| one batch at a time
        batch = slice(start, start + ELEMENT_BATCH)
        cell[batch] = np.einsum("elqi,eqi->el", np.abs(problem.curls[batch]), h[batch])
    return float(np.linalg.norm(_free_sum(problem.space, cell) + np.abs(problem.load)))


def assemble_hessian(problem, coeffs, levels=None):
    """Second derivative of the energy on free dofs, as symmetric CSR.

    Entry (i, j) is <d2w(Curl a_h) Curl phi_j, Curl phi_i>_h. Given the
    `levels` of `multigrid.hierarchy`, returns instead the tuple of the
    Hessian and its Galerkin coarse operators on those levels, finest
    first, summed from the same element matrices.
    """
    b = curl_at_quadrature(problem, coeffs)
    nu_d = _material_apply(problem, "d2w", b)  # (ne, nq, 2, 2)
    del b
    nu_d *= problem.wq[..., None, None]  # owned here, so weighted in place
    operators = _scatter_matrix(problem, nu_d, levels or ())
    return operators if levels is not None else operators[0]


def assemble_unit_stiffness(problem):
    """Stiffness matrix for unit reluctivity, <Curl phi_j, Curl phi_i>_h.

    Built afresh on each call.
    """
    return _scatter_matrix(problem, problem.wq[..., None, None] * np.eye(2), ())[0]


def _scatter_matrix(problem, t, levels):
    """<t Curl phi_j, Curl phi_i> summed over the points, as CSR on the problem's pattern.

    `t` is (ne, nq, 2, 2) and already carries the quadrature weights. Per
    batch of elements, two batched matrix products: u = Curl phi_l . t at
    every point, written element-major, then the element matrices as
    u Curl phi_m^T contracted over the points and components. The same
    batch's element matrices give the coarse ones of every level in turn
    (`_coarse_element_matrices`), so a batch holds whole elements of the
    coarsest level: ELEMENT_BATCH rounded up to a multiple of the fine
    elements in one of them. np.add.at adds each entry into its slot, in
    element order across the batches, so every slot is summed in the same
    order as in one batch. Returns the fine operator and one per level.
    """
    curls = problem.curls
    ne, nl, nq, _ = curls.shape
    patterns = [(problem.slots, problem.indices, problem.indptr)]
    patterns += [(level.slots, level.indices, level.indptr) for level in levels]
    datas = [np.zeros(len(indices) + 1) for _, indices, _ in patterns]
    per_coarsest = int(np.prod([len(level.tables) for level in levels]))
    step = -(-ELEMENT_BATCH // per_coarsest) * per_coarsest
    for start in range(0, ne, step):
        batch = slice(start, start + step)
        c = curls[batch]
        u = np.empty(c.shape)
        np.matmul(c.transpose(0, 2, 1, 3), t[batch], out=u.transpose(0, 2, 1, 3))
        flat = c.reshape(-1, nl, nq * 2)
        cell = u.reshape(flat.shape) @ flat.transpose(0, 2, 1)  # (batch, nl, nl)
        del c, u, flat  # not alive through the coarse levels
        np.add.at(datas[0], problem.slots[batch].ravel(), cell.ravel())
        first = start
        for level, data in zip(levels, datas[1:]):
            cell = _coarse_element_matrices(cell, level.tables)
            first //= len(level.tables)
            np.add.at(data, level.slots[first:first + len(cell)].ravel(), cell.ravel())
    return tuple(_csr(data, indices, indptr) for data, (_, indices, indptr) in zip(datas, patterns))


def _coarse_element_matrices(cell, tables):
    """Coarse element matrices sum_c Q_c^T E_{children t + c} Q_c; (T, nc, nc).

    `cell` holds the fine element matrices E of whole coarse elements, in
    element order; `tables` the Q_c (children, nf, nc). Per child, two
    matrix products over all T coarse elements at once: X[b, (t, i)] =
    sum_j Q_c[j, b] E[t, i, j], then X Q_c, which is Q_c^T E Q_c with its
    axes ordered (b, t, a); the children are summed in order.
    """
    children, nf, nc = tables.shape
    out = np.zeros((nc * (len(cell) // children), nc))
    for child, q in enumerate(tables):
        x = q.T @ cell[child::children].reshape(-1, nf).T  # (nc, T nf)
        out += x.reshape(-1, nf) @ q  # ((b, t), a)
    return out.reshape(nc, -1, nc).transpose(1, 2, 0)


def _csr(data, indices, indptr):
    """CSR matrix on a shared pattern; data has the trailing discard slot."""
    n = len(indptr) - 1
    # the matrix owns its index arrays, so no scipy operation can reach the pattern
    mat = sp.csr_matrix((data[:-1], indices.copy(), indptr.copy()), shape=(n, n))
    mat.has_canonical_format = True  # sorted, duplicate-free columns by construction
    return mat


def l2_norm(wq, v):
    """Discrete L2 norm sqrt(sum wq |v|^2) of (ne, nq, 2) samples on a rule of measure wq."""
    return float(np.sqrt(np.sum(wq * np.sum(v * v, axis=2))))


def curl_norm(problem, free_values):
    """Discrete curl (semi)norm ||Curl v_h||_h of a free-dof vector.

    The L2 norm of Curl v_h at the problem's quadrature points: the same
    quantity as sqrt(v^T K v) with the unit stiffness K, which uses the
    same rule, without assembling K.
    """
    b = curl_at_quadrature(problem, femspace.CoefficientVector(problem.space, free_values))
    return l2_norm(problem.wq, b)


def fields_at_quadrature(problem, *coeffs, rule=None):
    """Quadrature-point samples (x, wq, b, h) for post-processing and errors.

    With `rule` given, tabulates on that rule (used for the over-integrated
    error norms) without keeping the tables; defaults to the problem's own
    rule. On a mapped problem, x, b, h and the measure wq (`_tables`) are
    the physical ones. Several coefficient vectors share one tabulation:
    the result is x and wq followed by b and h of each vector in turn.
    """
    if rule is None or rule.degree == problem.rule.degree:
        pts, curls, wq = problem.points, problem.curls, problem.wq
    else:
        pts, curls, wq = _tables(problem.space, rule, problem.domain_map)
    fields = [pts, wq]
    for c in coeffs:
        b = np.einsum("el,elqi->eqi", _local_coeffs(problem, c), curls)
        fields += [b, _material_apply(problem, "dw", b, pts)]
    return tuple(fields)
