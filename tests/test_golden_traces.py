"""Frozen solver traces: seeded cells over every family and applicable solver
must reproduce the committed fixture iteration by iteration.

Regenerate the fixture with ``python3 scripts/make_reference_fixtures.py
golden`` only when a change is meant to alter traces.
"""

import json
import math
from pathlib import Path

import pytest

from gscfw import SolverConfig
from gscfw.bench import build_problem, make_start, run_method

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "golden_traces.json").read_text())

# Relative tolerance absorbs last-bit differences between BLAS builds; the
# absolute floor covers quantities that are pure rounding.
REL_TOL = 1e-12
ABS_TOL = 1e-14
# The active-set drift is rounding that varies between hosts, so the fixture
# does not store it and the away-step cells bound it instead.
DRIFT_BOUND = 1e-14


def _assert_same(actual, expected, where):
    if isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("cell", GOLDEN["cells"],
                         ids=lambda c: f"{c['problem']['name']}-{c['method']}")
def test_trace_matches_golden(cell):
    inst = build_problem(cell["problem"])
    x0, active = make_start(inst, GOLDEN["start_seed"])
    config = SolverConfig(epsilon=GOLDEN["epsilon"], max_iter=GOLDEN["max_iter"])
    trace = run_method(cell["method"], inst, x0, active, config)

    assert trace.status == cell["status"]
    _assert_same(trace.final_f, cell["final_f"], "final_f")
    _assert_same(trace.final_gap, cell["final_gap"], "final_gap")
    meta = dict(trace.meta)
    if cell["method"] == "asfwgsc":
        assert 0.0 <= meta.pop("active_set_max_drift") <= DRIFT_BOUND
    assert set(meta) == set(cell["meta"])
    for key, expected in cell["meta"].items():
        _assert_same(trace.meta[key], expected, f"meta[{key}]")
    records = cell["records"]
    assert len(trace.iterations) == len(records["k"])
    for name, column in records.items():
        for rec, expected in zip(trace.iterations, column):
            _assert_same(getattr(rec, name), expected, f"iteration {rec.k} {name}")
