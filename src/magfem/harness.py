"""Built-in benchmarks, refinement studies, and convergence-rate estimation.

A benchmark bundles geometry, region materials, source, boundary
conditions, and an error mode. Studies solve the benchmark on a hierarchy
of uniformly refined meshes and report, per level, the element count,
free dofs, Newton iteration count, and relative L2 errors of the flux b
and field h together with their estimated orders of convergence. Error
references are, depending on the mode, the manufactured exact solution,
the next-finer solution (the coarse solution carried to the fine mesh by
`multigrid.prolongation`), or the next-degree solution; error integration
always uses a rule two degrees above the assembly rule, and the errors are
`assembly.l2_norm`s against that rule's measure from
`assembly.fields_at_quadrature` (physical on a mapped problem). Errors are
evaluated one `assembly.element_batches` batch at a time, sized by the error
rule's curl-table entries, so no error mode holds the error rule's tables
or fields of a whole mesh at any degree; the per-point terms of each norm
are summed once over the whole mesh, so the errors are bit-identical to
whole-mesh evaluation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import assembly, geometry, multigrid, solver
from .materials import NU0, LinearLaw, brauer_reference
from .mesh import Mesh, generate_unit_square, refine_uniform, with_region_tags
from .quadrature import rule_for_degree

ERROR_MODES = ("manufactured-exact", "successive-refinement", "successive-degree")


class StudyError(RuntimeError):
    """A level failed to solve; run_study raises it before tabulating any row."""


@dataclass(frozen=True, eq=False)
class Benchmark:
    """A named problem family over a refinement hierarchy."""

    name: str
    base_mesh: Mesh
    materials: dict
    dirichlet_tags: frozenset
    error_mode: str
    order: int = 1
    levels: int = 3
    hs_field: object = None
    js_density: object = None
    exact_potential: object = None
    exact_flux: object = None
    domain_map: object = None

    def __post_init__(self):
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"unknown error mode {self.error_mode!r}")
        if self.error_mode == "manufactured-exact" and self.exact_flux is None:
            raise ValueError("manufactured mode requires the exact flux field")


@dataclass
class StudyRow:
    level: int
    ne: int
    dof: int
    iter: int
    err_b: float
    eoc_b: float  # None on the first row
    err_h: float
    eoc_h: float  # None on the first row


def compute_eoc(errors, ratio=2.0):
    """log-ratio convergence orders of a positive error sequence.

    eoc_i = log(err_{i-1} / err_i) / log(ratio); one value per
    consecutive pair, so the result is one shorter than the input.
    """
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ValueError("need at least two errors")
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive")
    if ratio <= 1.0:
        raise ValueError("refinement ratio must exceed 1")
    return [
        math.log(errors[i - 1] / errors[i]) / math.log(ratio)
        for i in range(1, len(errors))
    ]


def mesh_at_level(benchmark, level):
    mesh = benchmark.base_mesh
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def problem_at_level(benchmark, level, order=None):
    return assembly.Problem(
        mesh=mesh_at_level(benchmark, level),
        order=benchmark.order if order is None else order,
        materials=benchmark.materials,
        dirichlet_tags=benchmark.dirichlet_tags,
        hs_field=benchmark.hs_field,
        js_density=benchmark.js_density,
        domain_map=benchmark.domain_map,
    )


def _error_rule(order):
    return rule_for_degree(2 * order + 2)


def solve_level(benchmark, level, cfg, order=None):
    """Build and solve one refinement level; returns (problem, coeffs, report)."""
    problem = problem_at_level(benchmark, level, order=order)
    coeffs, report = solver.newton_solve(problem, cfg=cfg)
    if not report.converged:
        raise solver.SolverError(
            f"{benchmark.name} level {level} did not converge ({report.failure})"
        )
    return problem, coeffs, report


def run_study(benchmark, cfg=None, order=None, levels=None, telemetry_dir=None):
    """Solve a refinement hierarchy and tabulate errors and rates.

    In successive-refinement mode one extra level is solved internally so
    the finest reported row has an error reference. The solves are
    independent: the largest runs on the calling thread while the others
    run in order on one helper thread, and the output is bit-identical to
    solving them one after another. Rows are tabulated only once every
    solve has finished, so a solver failure raises StudyError with no rows
    attached, wrapping the SolverError of the first failing solve in that
    serial order.
    """
    cfg = cfg or solver.NewtonConfig()
    order = benchmark.order if order is None else order
    levels = benchmark.levels if levels is None else levels
    if levels < 2:
        raise ValueError("a study needs at least two levels for rates")
    err_rule = _error_rule(order)

    if benchmark.error_mode == "successive-degree":
        jobs = [(lv, k) for lv in range(levels) for k in (order, order + 1)]
    else:
        extra = benchmark.error_mode == "successive-refinement"
        jobs = [(lv, order) for lv in range(levels + extra)]
    try:
        results = _solve_concurrently(benchmark, cfg, jobs)
    except solver.SolverError as exc:
        raise StudyError(str(exc)) from exc

    if benchmark.error_mode == "manufactured-exact":
        errors = [
            _manufactured_errors(benchmark, problem, coeffs, err_rule)
            for problem, coeffs, _ in results
        ]
    elif benchmark.error_mode == "successive-refinement":
        errors = [
            _refinement_errors(*coarse[:2], *fine[:2], err_rule)
            for coarse, fine in zip(results, results[1:])
        ]
        results = results[:levels]
    else:  # successive-degree
        fine_rule = _error_rule(order + 1)
        low, high = results[0::2], results[1::2]
        errors = [
            _degree_errors(*lo[:2], *hi[:2], fine_rule) for lo, hi in zip(low, high)
        ]
        results = low
    rows = _tabulate(results, errors)

    if telemetry_dir is not None:
        import pathlib

        out = pathlib.Path(telemetry_dir)
        out.mkdir(parents=True, exist_ok=True)
        for (problem, coeffs, report), row in zip(results, rows):
            path = out / f"{benchmark.name}_level{row.level}.json"
            path.write_text(report.to_json(config=cfg))
    return rows


def _solve_concurrently(benchmark, cfg, jobs):
    """solve_level over (level, order) jobs, largest last; results in job order.

    The last job, which alone takes most of a study's time, runs on the
    calling thread and the others run in order on one helper thread, which
    is joined before this returns or raises. The first failure in job order
    is raised, as a serial loop would.
    """
    def solve(level, order):
        return solve_level(benchmark, level, cfg, order)

    with ThreadPoolExecutor(max_workers=1) as helper:
        coarse = helper.submit(lambda: [solve(*job) for job in jobs[:-1]])
        try:
            last = solve(*jobs[-1])
        except Exception:
            coarse.result()  # a failure in an earlier job comes first
            raise
        return coarse.result() + [last]


def _tabulate(results, errors):
    errs_b = [e[0] for e in errors]
    errs_h = [e[1] for e in errors]
    eoc_b = [None] + compute_eoc(errs_b)
    eoc_h = [None] + compute_eoc(errs_h)
    return [
        StudyRow(
            level=lv,
            ne=problem.mesh.num_triangles,
            dof=problem.space.n_free,
            iter=report.n_iterations,
            err_b=eb,
            eoc_b=ob,
            err_h=eh,
            eoc_h=oh,
        )
        for lv, ((problem, coeffs, report), eb, eh, ob, oh) in enumerate(
            zip(results, errs_b, errs_h, eoc_b, eoc_h)
        )
    ]


def _relative_errors(problem, rule, samples):
    """Relative L2 errors (err_b, err_h) on `rule` over the problem's mesh.

    `samples(elements)` gives (wq, (b, h), (b_ref, h_ref)) on each
    `assembly.element_batches` batch of `problem`, the larger of two. The
    terms wq |x - x_ref|^2 and wq |x_ref|^2 of each norm fill a whole-mesh
    (ne, nq) array, summed once as `assembly.l2_norm` sums them, so the
    errors are its ratios bit for bit.
    """
    ne = problem.mesh.num_triangles
    terms = np.empty((4, ne, len(rule)))  # per field: the error's, then the reference's
    for elements in assembly.element_batches(problem.space, len(rule)):
        wq, fields, reference = samples(elements)
        for i, (x, x_ref) in enumerate(zip(fields, reference)):
            terms[2 * i, elements] = assembly.l2_integrand(wq, x - x_ref)
            terms[2 * i + 1, elements] = assembly.l2_integrand(wq, x_ref)
    err_b, ref_b, err_h, ref_h = (math.sqrt(np.sum(t)) for t in terms)
    return err_b / ref_b, err_h / ref_h


def _manufactured_errors(benchmark, problem, coeffs, rule):
    full = coeffs.full()

    def samples(elements):
        pts, wq, b_h, h_h = assembly.fields_at_quadrature(
            problem, full, rule=rule, elements=elements
        )
        b_ex = np.asarray(benchmark.exact_flux(pts.reshape(-1, 2)), float).reshape(b_h.shape)
        h_ex = assembly._material_apply(problem, "dw", b_ex, pts, elements)
        return wq, (b_h, h_h), (b_ex, h_ex)

    return _relative_errors(problem, rule, samples)


def _refinement_errors(coarse_p, coarse_c, fine_p, fine_c, rule):
    """The coarse solution against the fine one, both on the fine mesh."""
    P = multigrid.prolongation(fine_p.space, coarse_p.space)
    coarse_on_fine = fine_p.space.scatter(P @ coarse_c.values)
    fine = fine_c.full()

    def samples(elements):
        _, wq, *fields = assembly.fields_at_quadrature(
            fine_p, coarse_on_fine, fine, rule=rule, elements=elements
        )
        return wq, fields[:2], fields[2:]

    return _relative_errors(fine_p, rule, samples)


def _degree_errors(problem, coeffs, problem2, coeffs2, rule):
    low_c, high_c = coeffs.full(), coeffs2.full()

    def samples(elements):
        _, wq, *low = assembly.fields_at_quadrature(problem, low_c, rule=rule, elements=elements)
        _, _, *high = assembly.fields_at_quadrature(problem2, high_c, rule=rule, elements=elements)
        return wq, low, high

    return _relative_errors(problem2, rule, samples)  # same mesh, the larger table


def write_study_csv(rows, path, aborted=None):
    """Study rows as CSV with the fixed column order."""
    lines = ["level,ne,dof,iter,err_b,eoc_b,err_h,eoc_h"]
    for r in rows:
        eoc_b = "" if r.eoc_b is None else f"{r.eoc_b:.6g}"
        eoc_h = "" if r.eoc_h is None else f"{r.eoc_h:.6g}"
        lines.append(
            f"{r.level},{r.ne},{r.dof},{r.iter},{r.err_b:.12g},{eoc_b},{r.err_h:.12g},{eoc_h}"
        )
    if aborted:
        lines.append(f"# aborted: {aborted}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    return text


# -- built-in benchmark geometry ---------------------------------------------


def disc_mesh(rings, radius=1.0):
    """Hex-sector triangulation of a disc; 6 rings^2 elements.

    Ring i carries 6i equally spaced vertices on the circle of radius
    radius*i/rings, so the outer boundary is the inscribed 6*rings-gon.
    """
    if rings < 1:
        raise ValueError("rings must be positive")
    verts = [(0.0, 0.0)]
    index = {}
    for i in range(1, rings + 1):
        r = radius * i / rings
        for s in range(6):
            for j in range(i):
                index[(i, s, j)] = len(verts)
                theta = (np.pi / 3.0) * (s + j / i)
                verts.append((r * np.cos(theta), r * np.sin(theta)))

    def vid(i, s, j):
        if i == 0:
            return 0
        if j == i:
            return index[(i, (s + 1) % 6, 0)]
        return index[(i, s, j)]

    triangles = []
    for i in range(1, rings + 1):
        for s in range(6):
            for j in range(i):
                triangles.append((vid(i, s, j), vid(i, s, j + 1), vid(i - 1, s, j)))
            for j in range(i - 1):
                triangles.append((vid(i, s, j + 1), vid(i - 1, s, j + 1), vid(i - 1, s, j)))

    boundary = []
    for s in range(6):
        for j in range(rings):
            boundary.append((vid(rings, s, j), vid(rings, s, j + 1)))

    return Mesh(
        verts,
        triangles,
        np.ones(len(triangles), dtype=int),
        boundary,
        np.ones(len(boundary), dtype=int),
    )


def _tag_by_centroid(mesh, classify):
    pts = mesh.vertices[mesh.triangles]
    centroids = pts.mean(axis=1)
    return with_region_tags(mesh, classify(centroids))


# -- built-in benchmarks ------------------------------------------------------


def manufactured_benchmark(law=None, base_n=4, peak_flux=1.5, order=1, levels=4):
    """Unit-square problem with a known smooth solution.

    The potential alpha sin(pi x) sin(pi y) (alpha chosen so max |b| is
    peak_flux, deep in the nonlinear range of the default iron law) is
    made an exact solution by setting the source field to dw(b_exact),
    which cancels the constitutive term pointwise.
    """
    law = law or brauer_reference()
    alpha = peak_flux / np.pi

    def exact_potential(x):
        x = np.atleast_2d(x)
        return alpha * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def exact_flux(x):
        x = np.atleast_2d(x)
        sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        return alpha * np.pi * np.column_stack([sx * cy, -cx * sy])

    def hs(x):
        x = np.atleast_2d(x)
        return law.dw(x, exact_flux(x))

    return Benchmark(
        name="manufactured",
        base_mesh=generate_unit_square(base_n),
        materials={1: law},
        dirichlet_tags=frozenset({1}),
        error_mode="manufactured-exact",
        order=order,
        levels=levels,
        hs_field=hs,
        exact_potential=exact_potential,
        exact_flux=exact_flux,
    )


#: geometry of the two-wire disc benchmark (meters, A/m^2)
DISC_RADIUS = 0.1
WIRE_OFFSET = 0.05
WIRE_RADIUS = 0.025
WIRE_CURRENT_DENSITY = 1e5

IRON, WIRE_PLUS, WIRE_MINUS = 1, 2, 3


def two_wire_disc_benchmark(rings=12, order=1, levels=2):
    """Iron disc with two opposite-current wires and a no-flux boundary.

    The disc boundary is the inscribed polygon of the base mesh and wire
    regions are the base-level triangles whose centroid falls in the wire
    circles; refinement inherits both, so all levels share one geometry
    and successive-refinement errors are well defined. The source is the
    per-region current density +-1e5 in the wires.
    """
    base = disc_mesh(rings, DISC_RADIUS)

    def classify(c):
        tags = np.full(len(c), IRON)
        plus = (c[:, 0] ** 2 + (c[:, 1] - WIRE_OFFSET) ** 2) < WIRE_RADIUS**2
        minus = (c[:, 0] ** 2 + (c[:, 1] + WIRE_OFFSET) ** 2) < WIRE_RADIUS**2
        tags[plus] = WIRE_PLUS
        tags[minus] = WIRE_MINUS
        return tags

    base = _tag_by_centroid(base, classify)
    copper = LinearLaw(NU0)
    return Benchmark(
        name="two_wire_disc",
        base_mesh=base,
        materials={IRON: brauer_reference(), WIRE_PLUS: copper, WIRE_MINUS: copper},
        dirichlet_tags=frozenset({1}),
        error_mode="successive-refinement",
        order=order,
        levels=levels,
        js_density={WIRE_PLUS: WIRE_CURRENT_DENSITY, WIRE_MINUS: -WIRE_CURRENT_DENSITY},
    )


def pm_toy_benchmark(base_n=20, remanence=1.3, order=1, levels=2):
    """Square iron block with four alternately magnetized patches.

    Patch edges align with the base grid, the driving current is zero,
    and the field is produced by the magnets alone (h = nu0 b - m). The
    solution is singular at patch corners, so refinement studies show
    reduced convergence orders while iteration counts stay level.
    """
    if base_n % 5:
        raise ValueError("base_n must be a multiple of 5 so patch corners align")
    base = generate_unit_square(base_n)
    patches = {
        2: ((0.2, 0.4), (0.2, 0.4), +1.0),
        3: ((0.6, 0.8), (0.2, 0.4), -1.0),
        4: ((0.2, 0.4), (0.6, 0.8), -1.0),
        5: ((0.6, 0.8), (0.6, 0.8), +1.0),
    }

    def classify(c):
        tags = np.full(len(c), 1)
        for tag, (xr, yr, _) in patches.items():
            inside = (
                (c[:, 0] > xr[0]) & (c[:, 0] < xr[1]) & (c[:, 1] > yr[0]) & (c[:, 1] < yr[1])
            )
            tags[inside] = tag
        return tags

    base = _tag_by_centroid(base, classify)
    m0 = NU0 * remanence
    materials = {1: brauer_reference()}
    for tag, (_, _, sign) in patches.items():
        materials[tag] = LinearLaw(NU0, (0.0, sign * m0))
    return Benchmark(
        name="pm_toy",
        base_mesh=base,
        materials=materials,
        dirichlet_tags=frozenset({1}),
        error_mode="successive-refinement",
        order=order,
        levels=levels,
    )


#: quarter-annulus benchmark parameters (dimensionless)
ANNULUS_R_INNER = 0.5
ANNULUS_R_OUTER = 1.0
ANNULUS_MATRIX = np.array([[3.0, 1.0], [1.0, 2.0]])


def _annulus_hs_physical(xp):
    xp = np.atleast_2d(xp)
    return np.column_stack([-xp[:, 1], xp[:, 0]])


def annulus_mapped_benchmark(base_n=6, order=1, levels=3):
    """Anisotropic linear problem on a quarter annulus, as a mapped unit square.

    The curved domain is the image of the unit square under the polar map,
    which the problem folds into its quadrature tables (`Problem`'s
    `domain_map`); the law and source are the physical ones, the mesh stays
    straight and quadrature exact, and the errors are physical L2 errors.
    """
    return Benchmark(
        name="annulus_mapped",
        base_mesh=generate_unit_square(base_n),
        materials={1: LinearLaw(ANNULUS_MATRIX)},
        dirichlet_tags=frozenset({1}),
        error_mode="successive-refinement",
        order=order,
        levels=levels,
        hs_field=_annulus_hs_physical,
        domain_map=geometry.quarter_annulus_map(ANNULUS_R_INNER, ANNULUS_R_OUTER),
    )


def builtin_benchmarks():
    """Catalog of the four built-in benchmarks, keyed by name."""
    return {
        "manufactured": manufactured_benchmark(),
        "two_wire_disc": two_wire_disc_benchmark(),
        "pm_toy": pm_toy_benchmark(),
        "annulus_mapped": annulus_mapped_benchmark(),
    }
