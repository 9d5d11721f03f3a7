"""Compare two output trees of ``tools/study_outputs.py`` by meaning.

    python3 tools/compare_outputs.py A B [--json]

A change that moves rounding moves telemetry bits, so ``diff -r`` of two
trees says only that they differ. This script says by how much. For
every telemetry JSON (a file with ``iterations``) present in both trees
it prints the Newton iterations, the total inner CG iterations, the
relative difference of the final energies, the number of recorded
energy rises (consecutive energies with b > a), the preconditioner's
kind (``preconditioner.kind``) and the row counts of its levels
(``preconditioner.levels``, so a change of preconditioner or coarsening is
named, not only seen in the CG totals), each as A -> B. For every study
CSV present in both trees it prints whether the bytes differ and the
largest relative change of ``err_b`` and ``err_h`` over the rows; for
every fields CSV (``*fields.csv``), the largest change of each column
over the rows, relative to the column's largest magnitude. Other files
are compared by bytes. A summary closes the report; ``--json``
prints the whole report as one JSON object instead. It is a report, not a
test.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path


def rises(energies):
    return sum(b > a for a, b in zip(energies, energies[1:]))


def rel_diff(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def telemetry(path):
    """(newton iterations, CG total, final energy, rises, preconditioner kind,
    preconditioner levels), or None if not telemetry."""
    try:
        doc = json.loads(path.read_text())
    except ValueError:
        return None
    if not isinstance(doc, dict) or "iterations" not in doc:
        return None
    its = doc["iterations"]
    energies = [rec["energy"] for rec in its] + [doc["final"]["energy"]]
    preconditioner = doc.get("preconditioner") or {}
    return (doc["n_iterations"], sum(rec["cg_iters"] for rec in its), energies[-1],
            rises(energies), preconditioner.get("kind"), preconditioner.get("levels"))


def csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def csv_errors(path):
    """{(row index, column): value} of the err_b and err_h columns."""
    return {(i, col): float(r[col]) for i, r in enumerate(csv_rows(path))
            for col in ("err_b", "err_h") if r.get(col)}


def column_changes(a_path, b_path):
    """{column: max over rows of |a - b| / max over rows of |a|} of two
    fields CSVs, or None when their rows or columns do not match."""
    a_rows, b_rows = csv_rows(a_path), csv_rows(b_path)
    if len(a_rows) != len(b_rows) or (a_rows and a_rows[0].keys() != b_rows[0].keys()):
        return None
    changes = {}
    for col in a_rows[0] if a_rows else ():
        a = [float(r[col]) for r in a_rows]
        b = [float(r[col]) for r in b_rows]
        scale = max(map(abs, a))
        change = max(abs(x - y) for x, y in zip(a, b))
        changes[col] = change / scale if scale > 0.0 else change
    return changes


def compare(a_root, b_root):
    a_files = {p.relative_to(a_root) for p in a_root.rglob("*") if p.is_file()}
    b_files = {p.relative_to(b_root) for p in b_root.rglob("*") if p.is_file()}
    report = {
        "only_in_a": sorted(map(str, a_files - b_files)),
        "only_in_b": sorted(map(str, b_files - a_files)),
        "telemetry": {}, "csv": {}, "fields": {}, "other_differing": [],
    }
    for rel in sorted(a_files & b_files):
        a, b = a_root / rel, b_root / rel
        same = a.read_bytes() == b.read_bytes()
        ta = telemetry(a) if rel.suffix == ".json" else None
        if ta is not None:
            tb = telemetry(b)
            report["telemetry"][str(rel)] = {
                "identical": same,
                "newton": [ta[0], tb[0]],
                "cg": [ta[1], tb[1]],
                "final_energy_rel_diff": rel_diff(ta[2], tb[2]),
                "rises": [ta[3], tb[3]],
                "kind": [ta[4], tb[4]],
                "levels": [ta[5], tb[5]],
            }
        elif rel.suffix == ".csv" and rel.name.startswith("study_"):
            ea, eb = csv_errors(a), csv_errors(b)
            report["csv"][str(rel)] = {
                "identical": same,
                "rows_match": ea.keys() == eb.keys(),
                "err_rel_diff": max(
                    (rel_diff(ea[k], eb[k]) for k in ea.keys() & eb.keys()), default=0.0
                ),
            }
        elif rel.name.endswith("fields.csv"):
            report["fields"][str(rel)] = {
                "identical": same,
                "column_rel_diff": None if same else column_changes(a, b),
            }
        elif not same:
            report["other_differing"].append(str(rel))
    tel, csvs = report["telemetry"].values(), report["csv"].values()
    fields = report["fields"].values()
    report["summary"] = {
        "telemetry_files": len(tel),
        "telemetry_identical": sum(t["identical"] for t in tel),
        "newton_differs": sum(t["newton"][0] != t["newton"][1] for t in tel),
        "cg_differs": sum(t["cg"][0] != t["cg"][1] for t in tel),
        "kind_differs": sum(t["kind"][0] != t["kind"][1] for t in tel),
        "levels_differ": sum(t["levels"][0] != t["levels"][1] for t in tel),
        "max_final_energy_rel_diff": max((t["final_energy_rel_diff"] for t in tel), default=0.0),
        "rises": [sum(t["rises"][0] for t in tel), sum(t["rises"][1] for t in tel)],
        "study_csvs": len(csvs),
        "study_csvs_identical": sum(c["identical"] for c in csvs),
        "max_err_rel_diff": max((c["err_rel_diff"] for c in csvs), default=0.0),
        "fields_csvs": len(fields),
        "fields_csvs_identical": sum(f["identical"] for f in fields),
    }
    return report


def print_text(report):
    for name in ("only_in_a", "only_in_b", "other_differing"):
        for rel in report[name]:
            print(f"{name}: {rel}")
    print("telemetry: newton A -> B, cg A -> B, final energy rel diff, rises A -> B, "
          "kind A -> B, levels A -> B")
    for rel, t in report["telemetry"].items():
        flag = "" if t["identical"] else "  *"
        print(f"  {rel}: {t['newton'][0]} -> {t['newton'][1]}, {t['cg'][0]} -> {t['cg'][1]}, "
              f"{t['final_energy_rel_diff']:.3g}, {t['rises'][0]} -> {t['rises'][1]}, "
              f"{t['kind'][0]} -> {t['kind'][1]}, {t['levels'][0]} -> {t['levels'][1]}{flag}")
    print("study CSVs: identical, largest relative err_b/err_h change")
    for rel, c in report["csv"].items():
        rows = "" if c["rows_match"] else ", ROWS DIFFER"
        print(f"  {rel}: {'identical' if c['identical'] else 'differs'}, "
              f"{c['err_rel_diff']:.3g}{rows}")
    print("fields CSVs: identical, or the largest change per column relative to its "
          "largest magnitude")
    for rel, f in report["fields"].items():
        if f["identical"]:
            change = "identical"
        elif f["column_rel_diff"] is None:
            change = "differs, ROWS OR COLUMNS DIFFER"
        else:
            change = "differs, " + ", ".join(
                f"{col} {x:.3g}" for col, x in f["column_rel_diff"].items())
        print(f"  {rel}: {change}")
    print("summary:", json.dumps(report["summary"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first output tree (e.g. the parent's)")
    parser.add_argument("b", type=Path, help="second output tree (e.g. the change's)")
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    report = compare(args.a, args.b)
    if args.json:
        json.dump(report, sys.stdout, indent=1)
        print()
    else:
        print_text(report)


if __name__ == "__main__":
    main()
