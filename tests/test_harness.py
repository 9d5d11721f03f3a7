import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magfem as mf
from magfem import harness
from magfem.harness import (
    annulus_mapped_benchmark,
    compute_eoc,
    disc_mesh,
    manufactured_benchmark,
    pm_toy_benchmark,
    problem_at_level,
    run_study,
    two_wire_disc_benchmark,
    write_study_csv,
)

from conftest import (
    annulus_direct_benchmark, interpolate, max_flux_magnitude, set_element_batch, traced_transient,
)


# -- EOC -----------------------------------------------------------------------


def test_eoc_factor_four():
    assert compute_eoc([0.04, 0.01]) == [pytest.approx(2.0)]


def test_eoc_reported_pair():
    # classic log-ratio estimate on a published error pair
    assert compute_eoc([0.017504, 0.005686])[0] == pytest.approx(1.62, abs=0.005)


def test_eoc_equal_errors_is_zero():
    assert compute_eoc([0.3, 0.3]) == [pytest.approx(0.0)]


def test_eoc_rejects_nonpositive():
    with pytest.raises(ValueError):
        compute_eoc([0.1, 0.0])
    with pytest.raises(ValueError):
        compute_eoc([0.1])


@given(
    st.floats(min_value=1e-8, max_value=1e3),
    st.floats(min_value=-3.0, max_value=5.0),
    st.floats(min_value=1.2, max_value=4.0),
)
@settings(max_examples=50, deadline=None)
def test_eoc_recovers_exact_orders(e0, order, ratio):
    errors = [e0, e0 / ratio**order, e0 / ratio ** (2 * order)]
    got = compute_eoc(errors, ratio=ratio)
    assert got == pytest.approx([order, order], rel=1e-9, abs=1e-9)


# -- benchmarks ----------------------------------------------------------------


def test_builtin_catalog_names():
    catalog = mf.builtin_benchmarks()
    assert set(catalog) == {"manufactured", "two_wire_disc", "pm_toy", "annulus_mapped"}


def test_manufactured_peak_flux():
    bench = manufactured_benchmark()
    xs = np.random.default_rng(0).random((4000, 2))
    peak = np.linalg.norm(bench.exact_flux(xs), axis=1).max()
    assert 1.3 <= peak <= 1.5  # scaled so max |b| is about 1.5 T


def test_manufactured_exact_potential_vanishes_on_boundary():
    bench = manufactured_benchmark()
    edge = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
    assert np.abs(bench.exact_potential(edge)).max() <= 1e-14


def test_manufactured_linear_error_decreases_monotonically():
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    rows = run_study(bench, order=1, levels=3)
    errs = [r.err_b for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_pm_toy_zero_magnetization_gives_zero_solution():
    bench = pm_toy_benchmark(remanence=0.0)
    problem = problem_at_level(bench, 0)
    coeffs, report = mf.newton_solve(problem)
    assert report.converged
    assert np.all(coeffs.values == 0.0)


def test_pm_toy_regions():
    bench = pm_toy_benchmark()
    tags = bench.base_mesh.region_tags_present()
    assert tags == {1, 2, 3, 4, 5}
    assert set(bench.materials) == tags


def test_two_wire_regions_and_area():
    bench = two_wire_disc_benchmark()
    mesh = bench.base_mesh
    assert mesh.region_tags_present() == {1, 2, 3}
    # tagged wire area approximates the geometric wire disc
    areas = np.abs(mesh.signed_areas())
    wire_area = areas[mesh.region_tag == 2].sum()
    assert wire_area == pytest.approx(np.pi * 0.025**2, rel=0.15)


def test_disc_mesh_element_count():
    assert disc_mesh(4).num_triangles == 6 * 16


def test_two_wire_flux_stays_below_saturation_threshold():
    # the field never enters the quadratic extension of the iron law
    bench = two_wire_disc_benchmark()
    s_star = bench.materials[1].params.s_star
    for level in (0, 1):
        problem = problem_at_level(bench, level)
        coeffs, report = mf.newton_solve(problem)
        assert report.converged
        assert max_flux_magnitude(problem, coeffs) < s_star


def test_annulus_study_smoke():
    rows = run_study(annulus_mapped_benchmark(), levels=2)
    assert all(r.err_b > 0 for r in rows)
    assert all(r.iter == 1 for r in rows)  # quadratic energy: one step per solve


def test_annulus_certifies_the_physical_law_exactly():
    # the map folds into the tables, so the certified constants are the
    # eigenvalues (5 -+ sqrt 5) / 2 of the physical reluctivity matrix
    problem = problem_at_level(annulus_mapped_benchmark(), 0)
    _, report = mf.newton_solve(problem)
    gamma, lip = problem.certified_bounds()
    assert gamma == pytest.approx((5.0 - np.sqrt(5.0)) / 2.0, rel=1e-14)
    assert lip == pytest.approx((5.0 + np.sqrt(5.0)) / 2.0, rel=1e-14)
    assert (report.gamma, report.lipschitz) == (gamma, lip)


def test_parent_evaluation_exact_on_unstructured_mesh():
    # the coarse-on-fine evaluation used by refinement errors must be exact
    # for representable fields, also away from structured grids
    import magfem.assembly as assembly
    from magfem.femspace import CoefficientVector
    from magfem.multigrid import prolongation
    from magfem.quadrature import mapped_points, rule_for_degree

    coarse = disc_mesh(3)
    fine = mf.refine_uniform(coarse)
    law = {1: mf.LinearLaw(1.0)}
    problem = assembly.Problem(mesh=coarse, order=1, materials=law, dirichlet_tags=frozenset())
    fine_problem = assembly.Problem(mesh=fine, order=1, materials=law, dirichlet_tags=frozenset())
    f = lambda x: 0.3 * x[:, 0] ** 2 - x[:, 0] * x[:, 1] + 0.1 * x[:, 1]
    coeffs = interpolate(problem.space, f)

    rule = rule_for_degree(4)
    P = prolongation(fine_problem.space, problem.space)
    on_fine = CoefficientVector(fine_problem.space, P @ coeffs.values)
    _, _, got, _ = assembly.fields_at_quadrature(fine_problem, on_fine, rule=rule)
    pts = mapped_points(fine, rule.points).reshape(-1, 2)
    exact = np.column_stack([-pts[:, 0] + 0.1, -(0.6 * pts[:, 0] - pts[:, 1])])
    assert np.allclose(got.reshape(-1, 2), exact, atol=1e-12)


def test_two_wire_study_rates():
    rows = run_study(two_wire_disc_benchmark(), levels=2)
    assert [r.ne for r in rows] == [864, 3456]
    # interface corners limit the rate: positive but below k+1
    assert 0.0 < rows[1].eoc_b < 2.0
    assert abs(rows[1].iter - rows[0].iter) <= 2


def test_benchmark_requires_known_error_mode():
    with pytest.raises(ValueError):
        harness.Benchmark(
            name="x",
            base_mesh=mf.generate_unit_square(1),
            materials={1: mf.LinearLaw(1.0)},
            dirichlet_tags=frozenset({1}),
            error_mode="bogus",
        )


# -- studies -------------------------------------------------------------------


@pytest.fixture(scope="module")
def linear_study_rows():
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    return run_study(bench, order=1, levels=3)


def test_study_row_structure(linear_study_rows):
    rows = linear_study_rows
    assert [r.level for r in rows] == [0, 1, 2]
    assert rows[0].eoc_b is None and rows[0].eoc_h is None
    assert all(r.eoc_b is not None for r in rows[1:])
    assert all(r.ne == 32 * 4**r.level for r in rows)


def test_study_errors_positive(linear_study_rows):
    for r in linear_study_rows:
        assert r.err_b > 0 and r.err_h > 0


def test_study_needs_two_levels():
    bench = manufactured_benchmark()
    with pytest.raises(ValueError):
        run_study(bench, levels=1)


def test_successive_refinement_mode_rates():
    # a smooth problem in refinement mode still shows order k+1
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    bench = harness.Benchmark(
        name="smooth_refinement",
        base_mesh=bench.base_mesh,
        materials=bench.materials,
        dirichlet_tags=bench.dirichlet_tags,
        error_mode="successive-refinement",
        hs_field=bench.hs_field,
    )
    rows = run_study(bench, order=1, levels=3)
    assert rows[-1].eoc_b == pytest.approx(2.0, abs=0.25)


def test_successive_degree_mode():
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    bench = harness.Benchmark(
        name="smooth_degree",
        base_mesh=bench.base_mesh,
        materials=bench.materials,
        dirichlet_tags=bench.dirichlet_tags,
        error_mode="successive-degree",
        hs_field=bench.hs_field,
    )
    rows = run_study(bench, order=1, levels=3)
    # comparing k=1 against k=2 solutions measures the k=1 error: order 2
    assert rows[-1].eoc_b == pytest.approx(2.0, abs=0.3)


def test_reference_refinement_error_monotonicity():
    # the error of a fixed solution measured against a once- vs
    # twice-refined reference may only grow (up to 5 percent slack)
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    cfg = mf.NewtonConfig()
    results = [harness.solve_level(bench, lv, cfg, 1) for lv in range(3)]
    rule = harness._error_rule(1)
    e01 = harness._refinement_errors(*results[0][:2], *results[1][:2], rule)[0]

    # against the twice-refined reference: evaluate level-0 on level 2
    coarse_p, coarse_c, _ = results[0]
    fine_p, fine_c, _ = results[2]
    from magfem.mesh import child_reference_map
    from magfem import femspace, assembly

    nq = len(rule.weights)
    ne = fine_p.mesh.num_triangles
    ref = np.broadcast_to(rule.points[None], (ne, nq, 2)).copy()
    idx = np.arange(ne)
    for _ in range(2):  # walk two levels up
        child = idx % 4
        for c in range(4):
            rows_c = child == c
            M, off = child_reference_map(c)
            ref[rows_c] = ref[rows_c] @ M.T + off
        idx = idx // 4
    b_coarse = femspace.eval_curl_batch(
        coarse_p.space, coarse_c, np.repeat(idx, nq), ref.reshape(-1, 2)
    ).reshape(ne, nq, 2)
    _, wq, b_fine, _ = assembly.fields_at_quadrature(fine_p, fine_c, rule=rule)
    num = assembly.l2_norm(wq, b_coarse - b_fine)
    den = assembly.l2_norm(wq, b_fine)
    e02 = num / den
    assert e01 <= 1.05 * e02


def test_refinement_errors_tabulate_the_fine_level_once(monkeypatch):
    # the error rule's tables are built batch by batch, each fine element in
    # exactly one batch, and both fields of a level pair share each batch;
    # the errors are the whole-mesh l2_norm ratios bit for bit
    from magfem import assembly, femspace, multigrid

    bench = pm_toy_benchmark()
    cfg = mf.NewtonConfig()
    coarse_p, coarse_c, _ = harness.solve_level(bench, 0, cfg, 2)
    fine_p, fine_c, _ = harness.solve_level(bench, 1, cfg, 2)
    rule = harness._error_rule(2)
    ne = fine_p.mesh.num_triangles
    batch = assembly.BATCH_ENTRIES // (fine_p.space.n_local * len(rule))  # elements a batch
    assert ne > batch and ne % batch  # several batches, the last one ragged

    curls, points = [], []
    tabulate, mapped = femspace.tabulate_curl, assembly.mapped_points

    def spy(calls, fn):  # records the fine elements each call tabulates
        def wrapped(space_or_mesh, rule_or_points, elements=slice(None)):
            calls.append(range(ne)[elements])
            return fn(space_or_mesh, rule_or_points, elements)
        return wrapped

    monkeypatch.setattr(femspace, "tabulate_curl", spy(curls, tabulate))
    monkeypatch.setattr(assembly, "mapped_points", spy(points, mapped))
    got = harness._refinement_errors(coarse_p, coarse_c, fine_p, fine_c, rule)
    monkeypatch.undo()
    for calls in (curls, points):
        assert len(calls) == -(-ne // batch)
        assert [e for batch in calls for e in batch] == list(range(ne))

    P = multigrid.prolongation(fine_p.space, coarse_p.space)
    on_fine = mf.CoefficientVector(fine_p.space, P @ coarse_c.values)
    _, wq, *coarse = assembly.fields_at_quadrature(fine_p, on_fine, rule=rule)
    _, _, *fine = assembly.fields_at_quadrature(fine_p, fine_c, rule=rule)
    assert got == tuple(
        assembly.l2_norm(wq, x - x_ref) / assembly.l2_norm(wq, x_ref)
        for x, x_ref in zip(coarse, fine)
    )


def _batch_benchmarks():
    pm_toy = pm_toy_benchmark(base_n=5)  # 50, 200 and 800 elements over five regions
    return {
        "manufactured-exact": manufactured_benchmark(levels=3),
        "successive-refinement": pm_toy,
        "successive-degree": dataclasses.replace(
            pm_toy, name="pm_toy_degree", error_mode="successive-degree"
        ),
        "mapped": annulus_mapped_benchmark(base_n=4, levels=2),
    }


@pytest.mark.parametrize("case", ["manufactured-exact", "successive-refinement",
                                  "successive-degree", "mapped"])
def test_study_rows_do_not_depend_on_the_element_batch(case, monkeypatch):
    # no built-in benchmark uses successive-degree, so pm_toy is rebuilt with it
    bench = _batch_benchmarks()[case]
    rows = run_study(bench, order=1, levels=2)
    largest = harness.mesh_at_level(bench, 2).num_triangles
    p3 = mf.build_space(bench.base_mesh, 3)  # the largest table: P3 on the degree error rule
    for batch in (7, largest):  # about 7 elements, a ragged last batch; one batch per level
        set_element_batch(monkeypatch, p3, len(harness._error_rule(2)), batch)
        assert run_study(bench, order=1, levels=2) == rows


#: Largest traced rise of pm_toy's level 1 -> 2 refinement error at k = 1,
#: in MiB. Evaluated on the whole fine mesh at once it rose 20.0 MiB; per
#: element batch it rises about 7.7 MiB.
REFINEMENT_ERROR_BUDGET_MIB = 10.0


def test_refinement_error_transient_stays_within_budget():
    bench = pm_toy_benchmark()
    cfg = mf.NewtonConfig()
    coarse = harness.solve_level(bench, 1, cfg, 1)
    fine = harness.solve_level(bench, 2, cfg, 1)
    _, rise = traced_transient(
        harness._refinement_errors, *coarse[:2], *fine[:2], harness._error_rule(1)
    )
    assert rise <= REFINEMENT_ERROR_BUDGET_MIB * 2**20


#: Largest traced rise of the manufactured k = 3 level-3 exact errors (P4,
#: 2,048 elements, the 16-point error rule), in MiB. As one 2,048-element
#: batch they rose 13.1 MiB; in batches of BATCH_ENTRIES curl-table entries,
#: 2.3 MiB.
MANUFACTURED_ERROR_BUDGET_MIB = 6.0


def test_manufactured_error_transient_stays_within_budget():
    bench = manufactured_benchmark()
    problem = harness.problem_at_level(bench, 3, order=3)
    coeffs = mf.CoefficientVector(
        problem.space, np.random.default_rng(4).normal(scale=1e-3, size=problem.space.n_free)
    )
    _, rise = traced_transient(
        harness._manufactured_errors, bench, problem, coeffs, harness._error_rule(3)
    )
    assert rise <= MANUFACTURED_ERROR_BUDGET_MIB * 2**20


def test_study_abort_carries_partial_rows():
    bench = manufactured_benchmark()
    cfg = dataclasses.replace(mf.NewtonConfig(), max_iter=1)
    with pytest.raises(harness.StudyError, match=r"level 0 did not converge \(max_iter\)"):
        run_study(bench, cfg=cfg, order=1, levels=3)


def test_study_stops_on_overflowed_residual():
    bench = harness.Benchmark(
        name="overflow",
        base_mesh=mf.generate_unit_square(2),
        materials={1: mf.brauer_reference()},
        dirichlet_tags=frozenset({1}),
        error_mode="successive-refinement",
        js_density={1: 1e300},
    )
    with np.errstate(over="ignore"), pytest.raises(
        harness.StudyError, match=r"level 0 did not converge \(non_finite\)"
    ):
        run_study(bench, order=1, levels=2)


def test_study_stops_on_non_finite_newton_direction(nan_newton_direction):
    threads = threading.active_count()
    with pytest.raises(harness.StudyError, match=r"level 0 did not converge \(non_finite\)") as err:
        run_study(manufactured_benchmark(), order=1, levels=2)
    assert isinstance(err.value.__cause__, mf.SolverError)
    assert threading.active_count() == threads


def test_study_stops_on_ascent_newton_direction(reversed_newton_direction):
    with pytest.raises(harness.StudyError, match=r"level 0 did not converge \(linear_solve\)") as err:
        run_study(manufactured_benchmark(), order=1, levels=2)
    assert isinstance(err.value.__cause__, mf.SolverError)


@pytest.mark.parametrize("failing, named", [({0, 1, 2}, 0), ({0}, 0), ({1, 2}, 1), ({2}, 2)])
def test_study_raises_the_first_failure_in_serial_order(monkeypatch, failing, named):
    # the finest level runs on the calling thread and the others on a
    # helper; whichever fails first in time, the study names the level a
    # serial loop would have stopped at
    def solve_level(benchmark, level, cfg, order=None):
        if level in failing:
            raise mf.SolverError(f"level {level} failed")

    monkeypatch.setattr(harness, "solve_level", solve_level)
    threads = threading.active_count()
    with pytest.raises(harness.StudyError, match=f"^level {named} failed$") as err:
        run_study(manufactured_benchmark(), order=1, levels=3)
    assert isinstance(err.value.__cause__, mf.SolverError)
    assert threading.active_count() == threads


def _serial_study(bench, cfg, order, levels):
    """Reference rows and reports: every solve in turn on the calling thread."""
    rule = harness._error_rule(order)
    if bench.error_mode == "manufactured-exact":
        results = [harness.solve_level(bench, lv, cfg, order) for lv in range(levels)]
        errors = [harness._manufactured_errors(bench, p, c, rule) for p, c, _ in results]
    elif bench.error_mode == "successive-refinement":
        solved = [harness.solve_level(bench, lv, cfg, order) for lv in range(levels + 1)]
        results = solved[:levels]
        errors = [
            harness._refinement_errors(*solved[lv][:2], *solved[lv + 1][:2], rule)
            for lv in range(levels)
        ]
    else:
        results, errors = [], []
        for lv in range(levels):
            low = harness.solve_level(bench, lv, cfg, order)
            high = harness.solve_level(bench, lv, cfg, order + 1)
            results.append(low)
            errors.append(harness._degree_errors(*low[:2], *high[:2], harness._error_rule(order + 1)))
    return harness._tabulate(results, errors), [report for _, _, report in results]


@pytest.mark.parametrize("mode", harness.ERROR_MODES)
def test_study_matches_serial_solves_bit_for_bit(tmp_path, mode):
    # no built-in benchmark uses successive-degree, so every mode is built
    # here from the manufactured problem; a tiny switch interval forces
    # frequent switches between the calling thread and the helper
    bench = dataclasses.replace(manufactured_benchmark(), name="bits", error_mode=mode)
    cfg = mf.NewtonConfig()
    rows, reports = _serial_study(bench, cfg, order=1, levels=3)

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_study(bench, cfg=cfg, order=1, levels=3, telemetry_dir=tmp_path)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert got == rows
    for lv, report in enumerate(reports):
        assert (tmp_path / f"bits_level{lv}.json").read_text() == report.to_json(config=cfg)


def test_write_study_csv_format(tmp_path, linear_study_rows):
    path = tmp_path / "study.csv"
    text = write_study_csv(linear_study_rows, path)
    lines = text.strip().splitlines()
    assert lines[0] == "level,ne,dof,iter,err_b,eoc_b,err_h,eoc_h"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[5] == ""  # no eoc on the first row
    assert path.read_text() == text


def test_write_study_csv_aborted_marker(tmp_path):
    path = tmp_path / "partial.csv"
    text = write_study_csv([], path, aborted="level 2 diverged")
    assert text.splitlines()[-1].startswith("# aborted:")


def test_study_deterministic():
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    rows1 = run_study(bench, order=1, levels=2)
    rows2 = run_study(bench, order=1, levels=2)
    assert [(r.err_b, r.err_h, r.iter) for r in rows1] == [
        (r.err_b, r.err_h, r.iter) for r in rows2
    ]


def test_telemetry_files_written(tmp_path):
    bench = manufactured_benchmark(law=mf.LinearLaw(1.0))
    run_study(bench, order=1, levels=2, telemetry_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["manufactured_level0.json", "manufactured_level1.json"]


def test_annulus_benchmarks_match():
    import magfem.assembly as assembly

    # the same discrete problem, on the same space: both coefficient vectors
    # are evaluated on the hand-derived one
    pa = problem_at_level(annulus_mapped_benchmark(), 1)
    pd = problem_at_level(annulus_direct_benchmark(), 1)
    assert np.abs(pa.load - pd.load).max() <= 1e-13 * np.abs(pd.load).max()
    ca, _ = mf.newton_solve(pa)
    cd, _ = mf.newton_solve(pd)
    _, wq, ba, _, bd, _ = assembly.fields_at_quadrature(pd, ca, cd)
    num = assembly.l2_norm(wq, ba - bd)
    den = assembly.l2_norm(wq, bd)
    assert num / den <= 1e-10
