"""Layer spans recorded from outside magfem, by patching the names callers use.

Every layer is timed at its public entry points. A name is patched where the
caller looks it up: module globals for calls like ``solver.solve_cg``, the
importing module for names imported with ``from ... import``, and the law
classes for material methods, which assembly reaches through ``getattr``.
Patches are installed only while a traced cycle runs and are undone after,
so untraced operations run the unmodified functions.

A span is ``[name, start, end, parent, run_id, info]``. Spans stay in memory
and are written out when the benchmark ends. A span's self time is its
duration minus the durations of its direct children; since one thread runs
everything and children nest inside their parents, the self times of all
spans add up to the durations of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
from time import perf_counter

from magfem import assembly, cli, femspace, harness, materials, mesh, quadrature, solver

NAME, START, END, PARENT, RUN, INFO = range(6)

MATERIAL_METHODS = ("w", "dw", "d2w")


def _newton_info(args, kwargs, result):
    report = result[1]
    return {
        "iters": report.n_iterations,
        "backtracks": sum(rec.backtracks for rec in report.iterations),
        "converged": report.converged,
    }


def _cg_info(args, kwargs, result):
    info = result[1]
    return {"iters": info.iterations, "converged": info.converged}


def _points_info(args, kwargs, result):
    b = kwargs["b"] if "b" in kwargs else args[2]
    return {"points": len(b)}


def _parse_info(args, kwargs, result):
    return {"bytes": len(kwargs.get("text", args[0] if args else ""))}


def _serialize_info(args, kwargs, result):
    return {"bytes": len(result)}


def _cli_info(args, kwargs, result):
    argv = list(kwargs.get("argv", args[0] if args else []) or [])
    written = 0
    for flag in ("--out", "--fields"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                written += os.path.getsize(path)
    return {"bytes_written": written, "exit": result}


# (span name, [(namespace, attribute)], info extractor)
FUNCTION_TARGETS = [
    ("mesh.refine", [(harness, "refine_uniform"), (cli, "refine_uniform"), (mesh, "refine_uniform")], None),
    ("mesh.parse", [(cli, "parse_mesh"), (mesh, "parse_mesh")], _parse_info),
    ("mesh.serialize", [(cli, "serialize_mesh"), (mesh, "serialize_mesh")], _serialize_info),
    ("mesh.generate", [(cli, "generate_unit_square"), (mesh, "generate_unit_square")], None),
    ("quadrature.mapped_points", [(assembly, "mapped_points"), (quadrature, "mapped_points")], None),
    ("femspace.build_space", [(femspace, "build_space")], None),
    ("femspace.tabulate_curl", [(femspace, "tabulate_curl")], None),
    ("femspace.tabulate_values", [(femspace, "tabulate_values")], None),
    ("femspace.eval_curl_batch", [(femspace, "eval_curl_batch")], None),
    ("assembly.energy", [(assembly, "assemble_energy")], None),
    ("assembly.residual", [(assembly, "assemble_residual")], None),
    ("assembly.hessian", [(assembly, "assemble_hessian")], None),
    ("assembly.unit_stiffness", [(assembly, "assemble_unit_stiffness")], None),
    ("assembly.residual_scale", [(assembly, "residual_scale")], None),
    ("assembly.fields", [(assembly, "fields_at_quadrature")], None),
    ("solver.newton", [(solver, "newton_solve")], _newton_info),
    ("solver.cg", [(solver, "solve_cg")], _cg_info),
    ("harness.run_study", [(harness, "run_study")], None),
    ("harness.solve_level", [(harness, "solve_level")], None),
    ("harness.problem_at_level", [(harness, "problem_at_level")], None),
    ("cli.main", [(cli, "main")], _cli_info),
]

def _law_classes(base=materials.MaterialLaw):
    """Every MaterialLaw subclass, including those geometry and harness define."""
    seen = []
    stack = list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


class Tracer:
    """In-memory span recorder over magfem's layers."""

    def __init__(self):
        self.cycles = {}  # run id -> spans in start order; parents index that list

    @staticmethod
    def _wrap(name, fn, info, spans, stack, run_id):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def cycle(self, run_id):
        """Patch every layer while one traced cycle runs; yields its span list."""
        spans = self.cycles.setdefault(run_id, [])
        stack = []
        saved = []
        try:
            for name, places, info in FUNCTION_TARGETS:
                for namespace, attr in places:
                    original = getattr(namespace, attr)
                    saved.append((namespace, attr, original))
                    setattr(namespace, attr, self._wrap(name, original, info, spans, stack, run_id))
            for cls in _law_classes():
                for method in MATERIAL_METHODS:
                    original = cls.__dict__.get(method)
                    if original is not None:
                        saved.append((cls, method, original))
                        wrapped = self._wrap(
                            "materials." + method, original, _points_info, spans, stack, run_id
                        )
                        setattr(cls, method, wrapped)
            yield spans
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def dump(self, path):
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "run", "info")
        with open(path, "w") as f:
            for spans in self.cycles.values():
                for span in spans:
                    f.write(json.dumps(dict(zip(keys, span))) + "\n")


def cycle_metrics(spans):
    """Per-layer metrics of one traced cycle (spans sharing one run id).

    Spans are given in start order with parents as indices into `spans`.
    Returns the metrics, the self time of each layer, and the summed
    duration of the root spans, which the layer self times add up to.
    """
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d
    self_time = [d - c for d, c in zip(duration, child_time)]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    def total(name):
        return sum(d for s, d in zip(spans, duration) if s[NAME] == name)

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name]

    def self_total(name):
        return sum(st for s, st in zip(spans, self_time) if s[NAME] == name)

    layer_self = {}
    for s, st in zip(spans, self_time):
        layer = s[NAME].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st
    roots = sum(d for s, d in zip(spans, duration) if s[PARENT] < 0)

    # a pulled-back law calls its physical law; count the outer call only
    outer_material = [
        (s, d) for s, d in zip(spans, duration)
        if s[NAME].startswith("materials.") and not parent_name(s).startswith("materials.")
    ]
    points = sum(s[INFO]["points"] for s, _ in outer_material)
    newton = infos("solver.newton")
    newton_iters = sum(n["iters"] for n in newton)
    backtracks = sum(n["backtracks"] for n in newton)
    cg = infos("solver.cg")
    metrics = {
        "mesh.refine_s": total("mesh.refine"),
        "mesh.refine_calls": calls("mesh.refine"),
        "mesh.io_s": total("mesh.parse") + total("mesh.serialize"),
        "mesh.io_bytes": sum(i["bytes"] for i in infos("mesh.parse") + infos("mesh.serialize")),
        "quadrature.mapped_points_s": total("quadrature.mapped_points"),
        "femspace.build_space_s": total("femspace.build_space"),
        "femspace.tabulate_s": total("femspace.tabulate_curl") + total("femspace.tabulate_values"),
        "femspace.eval_curl_batch_s": total("femspace.eval_curl_batch"),
        "materials.eval_s": sum(d for _, d in outer_material),
        "materials.eval_calls": len(outer_material),
        "materials.points": points,
        "materials.points_per_newton_iter": points / newton_iters if newton_iters else 0.0,
        "assembly.energy_s": total("assembly.energy"),
        "assembly.energy_calls": calls("assembly.energy"),
        "assembly.residual_s": total("assembly.residual"),
        "assembly.residual_calls": calls("assembly.residual"),
        "assembly.hessian_s": total("assembly.hessian"),
        "assembly.hessian_calls": calls("assembly.hessian"),
        "assembly.hessian_self_s": self_total("assembly.hessian"),
        "assembly.unit_stiffness_s": total("assembly.unit_stiffness"),
        "assembly.residual_scale_s": total("assembly.residual_scale"),
        "assembly.fields_s": total("assembly.fields"),
        "solver.newton_s": total("solver.newton"),
        "solver.newton_self_s": self_total("solver.newton"),
        "solver.cg_s": total("solver.cg"),
        "solver.cg_solves": len(cg),
        "solver.cg_iters": sum(c["iters"] for c in cg),
        "solver.cg_iters_max": max((c["iters"] for c in cg), default=0),
        "solver.cg_unconverged": sum(1 for c in cg if not c["converged"]),
        "solver.backtracks": backtracks,
        # accepted steps over energy trials: each step tries tau = 1 once,
        # and once more per backtrack
        "solver.armijo_accept_ratio": (
            newton_iters / (newton_iters + backtracks) if newton_iters else 0.0
        ),
        "harness.self_s": layer_self.get("harness", 0.0),
        # run_study time outside its level solves: error evaluation and rates
        "harness.error_eval_s": total("harness.run_study") - total("harness.solve_level"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.bytes_written": sum(i["bytes_written"] for i in infos("cli.main")),
    }
    return metrics, layer_self, roots


def median_metrics(per_cycle):
    """Median of each metric over traced cycles."""
    out = {}
    for key in per_cycle[0]:
        values = [c[key] for c in per_cycle]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out
