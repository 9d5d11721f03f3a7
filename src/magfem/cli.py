"""Command-line interface: solve, study, material-check, mesh tools.

Run configurations are INI-style files with sections [problem], [mesh],
[material.<region>], [source], [map], and [newton]; see the README for
the full key list. Exit codes: 0 success, 1 usage/config error, 2 solver
failure, 3 I/O error. A ValueError or malformed INI counts as a usage
error where a command reads its input (arguments, config and mesh); a
ValueError raised while solving is a bug and propagates.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import sys

import numpy as np

from . import assembly, geometry, harness, materials, solver
from .femspace import MAX_SPACE_DEGREE
from .materials import brauer_c2_residuals
from .mesh import MeshParseError, generate_unit_square, parse_mesh, refine_uniform, serialize_mesh

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _reading_input():
    """Report a ValueError or malformed INI raised while reading input as a ConfigError."""
    try:
        yield
    except (ConfigError, MeshParseError):
        raise
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def _reject_unknown(section, known, context=""):
    """A key of `section` outside `known` is a usage error, not silently ignored."""
    unknown = sorted(set(section) - set(section.parser.defaults()) - set(known))
    if unknown:
        raise ConfigError(f"[{section.name}] unknown key {', '.join(unknown)}{context}")


#: The keys each [map] reads besides `name`.
MAP_KEYS = {
    "identity": frozenset(),
    "affine": frozenset("a11 a12 a21 a22 shift_x shift_y".split()),
    "quarter_annulus": frozenset(("r_inner", "r_outer")),
}


def _build_map(section):
    name = section.get("name", "identity")
    if name not in MAP_KEYS:
        raise ConfigError(f"unknown map {name!r}; choose from {geometry.BUILTIN_MAPS}")
    _reject_unknown(section, MAP_KEYS[name] | {"name"}, f" for map {name!r}")
    if name == "identity":
        return geometry.identity_map()
    if name == "affine":
        matrix = [
            [_finite_float(section, "a11"), _finite_float(section, "a12", 0.0)],
            [_finite_float(section, "a21", 0.0), _finite_float(section, "a22")],
        ]
        shift = (_finite_float(section, "shift_x", 0.0), _finite_float(section, "shift_y", 0.0))
        return geometry.affine_map(matrix, shift)
    return geometry.quarter_annulus_map(
        _finite_float(section, "r_inner"), _finite_float(section, "r_outer")
    )


def _finite_float(section, key, default=None):
    """The finite number at `key`, or `default`; without one the key is required."""
    value = section.getfloat(key, default)
    if value is None:
        raise ConfigError(f"[{section.name}] needs {key}")
    if not np.isfinite(value):
        raise ConfigError(f"[{section.name}] {key} must be finite, got {value}")
    return value


#: The keys of [newton].
NEWTON_KEYS = frozenset(
    "rho sigma tol_increment tol_residual max_iter max_backtracks cg_rel_tol cg_max_iter".split()
)


def read_newton_config(parser):
    cfg = solver.NewtonConfig()
    if parser.has_section("newton"):
        s = parser["newton"]
        _reject_unknown(s, NEWTON_KEYS)
        cg = solver.CGConfig(
            rel_tol=s.getfloat("cg_rel_tol", cfg.cg.rel_tol),
            max_iter=s.getint("cg_max_iter", None) if s.get("cg_max_iter") else None,
        )
        cfg = solver.NewtonConfig(
            rho=s.getfloat("rho", cfg.rho),
            sigma=s.getfloat("sigma", cfg.sigma),
            tol_increment=s.getfloat("tol_increment", cfg.tol_increment),
            tol_residual=s.getfloat("tol_residual", cfg.tol_residual),
            max_iter=s.getint("max_iter", cfg.max_iter),
            max_backtracks=s.getint("max_backtracks", cfg.max_backtracks),
            cg=cg,
        )
    return cfg


#: The keys each [source] form reads besides `form`; js reads region.<tag> keys.
SOURCE_KEYS = {"none": frozenset(), "hs": frozenset(("hs_x", "hs_y")), "js": frozenset()}


def read_problem_config(path, mesh_file=None):
    """Build (Problem, NewtonConfig) from a run-config file."""
    parser = configparser.ConfigParser()
    with open(path) as f:
        parser.read_file(f)

    if mesh_file is not None:
        with open(mesh_file) as f:
            mesh = parse_mesh(f.read())
    elif parser.has_option("mesh", "unit_square_n"):
        mesh = generate_unit_square(parser.getint("mesh", "unit_square_n"))
    else:
        raise ConfigError("no mesh: pass --mesh or set [mesh] unit_square_n")

    if not parser.has_section("problem"):
        raise ConfigError("missing [problem] section")
    _reject_unknown(parser["problem"], ("k", "dirichlet_tags"))
    order = parser.getint("problem", "k", fallback=1)
    tags = frozenset(
        int(t) for t in parser.get("problem", "dirichlet_tags", fallback="1").split()
    )

    domain_map = _build_map(parser["map"]) if parser.has_section("map") else None

    laws = {}
    for name in parser.sections():
        if name.startswith("material."):
            region = int(name.split(".", 1)[1])
            laws[region] = materials.build_law(parser[name].get("law"), parser[name])

    hs_field = None
    js_density = None
    if parser.has_section("source"):
        s = parser["source"]
        form = s.get("form", "none")
        if form not in SOURCE_KEYS:
            raise ConfigError(f"unknown source form {form!r}")
        regions = [key for key in s if key.startswith("region.")] if form == "js" else []
        _reject_unknown(s, SOURCE_KEYS[form].union(regions, {"form"}), f" for form {form!r}")
        if form == "js":
            js_density = {int(key.split(".", 1)[1]): _finite_float(s, key) for key in regions}
            if not js_density:
                raise ConfigError("js source needs region.<tag> entries")
            absent = sorted(set(js_density) - mesh.region_tags_present())
            if absent:
                keys = ", ".join(f"region.{tag}" for tag in absent)
                raise ConfigError(f"[source] {keys}: no triangle carries that region tag")
        elif form == "hs":
            vec = np.array([_finite_float(s, "hs_x", 0.0), _finite_float(s, "hs_y", 0.0)])

            def hs_field(x):
                return np.broadcast_to(vec, (len(np.atleast_2d(x)), 2)).copy()

    problem = assembly.Problem(
        mesh=mesh,
        order=order,
        materials=laws,
        dirichlet_tags=tags,
        hs_field=hs_field,
        js_density=js_density,
        domain_map=domain_map,
    )
    return problem, read_newton_config(parser)


#: One fields CSV row; "%.12g" writes what an f-string's ":.12g" writes.
_FIELDS_ROW = "%d,%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n"
#: Elements sampled and formatted per write, which bounds the fields and the
#: text held at once.
_FIELDS_CHUNK = 1024


def _write_fields_csv(problem, coeffs, path):
    full = coeffs.full()  # scattered once for every chunk
    ne, nq = problem.wq.shape
    qpoint = list(range(nq)) * _FIELDS_CHUNK
    with open(path, "w") as f:
        f.write("element,qpoint,x,y,bx,by,hx,hy\n")
        for start in range(0, ne, _FIELDS_CHUNK):
            stop = min(start + _FIELDS_CHUNK, ne)
            n = (stop - start) * nq
            pts, _, b, h = assembly.fields_at_quadrature(
                problem, full, elements=slice(start, stop)
            )
            element = np.repeat(np.arange(start, stop), nq).tolist()
            values = np.concatenate([pts, b, h], axis=2)
            columns = values.reshape(n, 6).T.tolist()
            rows = itertools.chain.from_iterable(zip(element, qpoint, *columns))
            f.write((_FIELDS_ROW * n) % tuple(rows))


def _cmd_solve(args):
    with _reading_input():
        problem, cfg = read_problem_config(args.config, mesh_file=args.mesh)
    coeffs, report = solver.newton_solve(problem, cfg=cfg)
    with open(args.out, "w") as f:
        f.write(report.to_json(config=cfg) + "\n")
    if args.fields:
        _write_fields_csv(problem, coeffs, args.fields)
    if not report.converged:
        print(f"solver did not converge: {report.failure}", file=sys.stderr)
        return EXIT_SOLVER
    print(
        f"converged in {report.n_iterations} iterations, "
        f"energy {report.final_energy:.12g}, telemetry in {args.out}"
    )
    return EXIT_OK


def _cmd_study(args):
    catalog = harness.builtin_benchmarks()
    if args.benchmark not in catalog:
        print(
            f"unknown benchmark {args.benchmark!r}; available: {sorted(catalog)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    benchmark = catalog[args.benchmark]
    if args.degree is not None and not 0 <= args.degree < MAX_SPACE_DEGREE:
        raise ConfigError(f"--degree must be in 0..{MAX_SPACE_DEGREE - 1}, got {args.degree}")
    if args.levels is not None and args.levels < 2:
        raise ConfigError(f"--levels must be at least 2 for rates, got {args.levels}")
    cfg = solver.NewtonConfig()
    if args.config:
        parser = configparser.ConfigParser()
        with open(args.config) as f, _reading_input():
            parser.read_file(f)
            cfg = read_newton_config(parser)
    try:
        rows = harness.run_study(
            benchmark,
            cfg=cfg,
            order=args.degree,
            levels=args.levels,
            telemetry_dir=args.telemetry,
        )
    except harness.StudyError as exc:
        harness.write_study_csv([], args.csv, aborted=str(exc))
        print(f"study aborted: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    text = harness.write_study_csv(rows, args.csv)
    print(text, end="")
    return EXIT_OK


def _cmd_material_check(args):
    params = {}
    with _reading_input():
        for item in args.params or []:
            if "=" not in item:
                raise ConfigError(f"--params entries must be key=value, got {item!r}")
            key, value = item.split("=", 1)
            params[key] = float(value)
        law = materials.build_law(args.material, params)
    if args.material == "brauer":
        bp = law.params
        print(f"s_star = {bp.s_star:.12g} T   a0 = {bp.a0:.12g}   a1 = {bp.a1:.12g}")
        res = brauer_c2_residuals(bp)
        print(
            "C2 matching residuals (relative): value %.3e  slope %.3e  curvature %.3e"
            % res
        )
        gamma_hat, l_hat, l2_hat = materials.certify_bounds(
            law, materials.radial_samples(2.0 * bp.s_star)
        )
        print(f"gamma = {law.gamma:.12g} (scan {gamma_hat:.12g})")
        print(f"L     = {law.lipschitz:.12g} (scan {l_hat:.12g})")
        print(f"L''   = {law.hess_lipschitz:.6g} (sampled estimate; pair scan {l2_hat:.6g})")
        return EXIT_OK

    print(f"gamma = {law.gamma:.12g}")
    print(f"L     = {law.lipschitz:.12g}")
    print(f"L''   = {law.hess_lipschitz:.6g}")
    return EXIT_OK


def _cmd_mesh(args):
    if args.mesh_command == "gen":
        with _reading_input():
            mesh = generate_unit_square(args.n)
        with open(args.out, "w") as f:
            f.write(serialize_mesh(mesh))
        print(f"wrote {mesh.num_triangles} triangles to {args.out}")
        return EXIT_OK
    with open(getattr(args, "in")) as f:
        mesh = parse_mesh(f.read())
    refined = refine_uniform(mesh)
    with open(args.out, "w") as f:
        f.write(serialize_mesh(refined))
    print(f"refined {mesh.num_triangles} -> {refined.num_triangles} triangles")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="magfem", description="2D nonlinear magnetostatics solver and benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a configured problem")
    p.add_argument("--config", required=True)
    p.add_argument("--mesh", help="mesh file (overrides [mesh] in the config)")
    p.add_argument("--out", required=True, help="telemetry JSON path")
    p.add_argument("--fields", help="optional quadrature-point field dump CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("study", help="run a built-in benchmark refinement study")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--degree", type=int, default=None, help="curl order k")
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--config", help="config file providing [newton] settings")
    p.add_argument("--csv", required=True)
    p.add_argument("--telemetry", help="directory for per-level telemetry JSON")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("material-check", help="print material constants")
    p.add_argument("--material", required=True)
    p.add_argument("--params", nargs="*", metavar="key=value")
    p.set_defaults(func=_cmd_material_check)

    p = sub.add_parser("mesh", help="mesh generation and refinement")
    msub = p.add_subparsers(dest="mesh_command", required=True)
    g = msub.add_parser("gen", help="structured unit-square mesh")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_mesh)
    r = msub.add_parser("refine", help="uniform refinement of a mesh file")
    r.add_argument("--in", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_mesh)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (MeshParseError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except solver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
