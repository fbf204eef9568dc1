"""Regenerates the frozen fixtures used by the test suite.

* ``portfolio_reference.json``: the reference optimum of the acceptance
  suite.  It comes from an away-step run with a 10x iteration budget
  (500,000 vs the 50,000 cap used in acceptance) pushed to a 1e-13 gap.
* ``golden_traces.json``: seeded cells over the four problem families and
  every solver that applies to each, run at a gap no cell reaches before its
  cap (or its linear-rate convergence).  Every iteration record
  except its wall time is stored, with the status, final value, final gap and
  run metadata (all but the active-set drift, which is pure rounding and
  varies between hosts); ``tests/test_golden_traces.py`` replays the cells
  against it.
  Regenerate it only when a change is meant to alter solver traces.

Run from the repository root, naming the fixtures to write:

    python3 scripts/make_reference_fixtures.py golden
    python3 scripts/make_reference_fixtures.py portfolio-reference

``golden --diff`` writes nothing: it reruns the golden cells and prints, per
cell, whether status, length and steps (the step kinds and backtrack counts)
match the committed fixture and the largest relative difference of each
field.  It exits 1 when any cell's status, length or steps differ, so it
gates a change that may move traces only in their floats.  With no fixture
named, with ``--help`` or with an unknown name it writes nothing either.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from gscfw import (IterationRecord, SolverConfig, asfwgsc, portfolio_generator,
                   portfolio_problem)
from gscfw.bench import build_problem, make_start, run_method

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

PORTFOLIO = {"p": 200, "n": 100, "seed": 23, "start_seed": 101}

GOLDEN_EPSILON = 1e-12
GOLDEN_MAX_ITER = 60
GOLDEN_START_SEED = 17
GOLDEN_GRID = [
    ({"name": "logistic", "p": 60, "n": 12, "seed": 3},
     ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc", "mbtfwgsc", "asfwgsc"]),
    ({"name": "portfolio", "p": 150, "n": 100, "seed": 9},
     ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc", "mbtfwgsc", "fwlloo", "asfwgsc"]),
    ({"name": "dwd", "p": 40, "d": 6, "seed": 7},
     ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc", "mbtfwgsc"]),
    ({"name": "covariance", "p": 6, "seed": 11},
     ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc", "mbtfwgsc", "asfwgsc"]),
]
GOLDEN_FIELDS = [f.name for f in dataclasses.fields(IterationRecord)
                 if f.name != "elapsed_seconds"]
# the columns that say what a run did, beside its status and length
GOLDEN_STEPS = ("step_kind", "backtrack_count")


def write_portfolio_reference():
    inst = portfolio_problem(portfolio_generator(
        PORTFOLIO["p"], PORTFOLIO["n"], PORTFOLIO["seed"]))
    x0, active = make_start(inst, start_seed=PORTFOLIO["start_seed"])
    config = SolverConfig(epsilon=1e-13, max_iter=500_000)
    trace = asfwgsc(inst.objective, inst.feasible_set, active, config)
    payload = {
        "problem": {"name": "portfolio", "p": PORTFOLIO["p"], "n": PORTFOLIO["n"],
                    "seed": PORTFOLIO["seed"]},
        "start_seed": PORTFOLIO["start_seed"],
        "f_star": trace.best_f(),
        "f_x0": inst.objective.value(x0),
        "provenance": ("derived: asfwgsc, max_iter=500000 (10x acceptance budget), "
                       f"epsilon=1e-13, status={trace.status}, "
                       f"iterations={len(trace.iterations)}, "
                       f"final_gap={trace.final_gap:.3e}"),
    }
    out = FIXTURES / "portfolio_reference.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    print(json.dumps(payload, indent=2))


def golden_cell(problem: dict, method: str) -> dict:
    """One seeded run, reduced to its non-timing content."""
    inst = build_problem(problem)
    x0, active = make_start(inst, GOLDEN_START_SEED)
    config = SolverConfig(epsilon=GOLDEN_EPSILON, max_iter=GOLDEN_MAX_ITER)
    trace = run_method(method, inst, x0, active, config)
    meta = {k: v for k, v in trace.meta.items() if k != "active_set_max_drift"}
    return {
        "problem": problem, "method": method, "status": trace.status,
        "final_f": trace.final_f, "final_gap": trace.final_gap, "meta": meta,
        "records": {name: [getattr(rec, name) for rec in trace.iterations]
                    for name in GOLDEN_FIELDS},
    }


def write_golden_traces():
    cells = [golden_cell(problem, method)
             for problem, methods in GOLDEN_GRID for method in methods]
    # one cell per line keeps the file diffable without one number per line
    body = ",\n".join(json.dumps(cell, separators=(",", ":")) for cell in cells)
    out = FIXTURES / "golden_traces.json"
    out.write_text(f'{{"epsilon": {GOLDEN_EPSILON}, "max_iter": {GOLDEN_MAX_ITER}, '
                   f'"start_seed": {GOLDEN_START_SEED}, "cells": [\n{body}\n]}}\n')
    print(f"wrote {out}")
    for cell in cells:
        print(f"  {cell['problem']['name']:<10} {cell['method']:<15} {cell['status']:<14} "
              f"{len(cell['records']['k'])} iterations")


def _rel_diff(actual, expected) -> float:
    """|actual - expected| relative to |expected| (absolute below 1e-300);
    0 for equal values, inf for a mismatch that is not numeric."""
    if actual == expected:
        return 0.0
    if not all(isinstance(v, (int, float)) for v in (actual, expected)):
        return math.inf
    return abs(actual - expected) / max(abs(expected), 1e-300)


def diff_golden_traces() -> bool:
    """Rerun every golden cell and compare it with the committed fixture;
    True when every cell keeps its status, length and steps."""
    committed = json.loads((FIXTURES / "golden_traces.json").read_text())["cells"]
    print("cell                       status length  steps  "
          "largest relative difference per field")
    kept = True
    for old in committed:
        new = golden_cell(old["problem"], old["method"])
        fields = {name: max((_rel_diff(a, b) for a, b in
                             zip(new["records"][name], old["records"][name])), default=0.0)
                  for name in GOLDEN_FIELDS}
        fields.update({name: _rel_diff(new[name], old[name]) for name in ("final_f", "final_gap")})
        fields.update({f"meta.{key}": _rel_diff(new["meta"].get(key), old["meta"].get(key))
                       for key in sorted(old["meta"].keys() | new["meta"].keys())})
        moved = ", ".join(f"{name} {d:.1e}" for name, d in fields.items() if d) or "identical"
        same = (new["status"] == old["status"],
                len(new["records"]["k"]) == len(old["records"]["k"]),
                all(new["records"][name] == old["records"][name] for name in GOLDEN_STEPS))
        kept = kept and all(same)
        status, length, steps = ("same" if s else "DIFF" for s in same)
        print(f"{old['problem']['name'] + ' ' + old['method']:<26} "
              f"{status:<6} {length:<7} {steps:<6} {moved}")
    return kept


WRITERS = {"golden": write_golden_traces, "portfolio-reference": write_portfolio_reference}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the test fixtures.")
    parser.add_argument("fixtures", nargs="+", choices=sorted(WRITERS),
                        help="fixtures to write (portfolio-reference reruns a "
                             "500,000-iteration reference)")
    parser.add_argument("--diff", action="store_true",
                        help="compare the golden cells with the committed fixture, "
                             "writing nothing")
    args = parser.parse_args(argv)
    if args.diff:
        if set(args.fixtures) != {"golden"}:
            parser.error("--diff compares the golden fixture only")
        return 0 if diff_golden_traces() else 1
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name in dict.fromkeys(args.fixtures):
        WRITERS[name]()


if __name__ == "__main__":
    sys.exit(main())
