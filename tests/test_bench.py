import base64
import dataclasses
import importlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gscfw import bench as gbench
from gscfw import solvers as gsolvers
from gscfw import relative_error, run_experiment
from gscfw.bench import (ConfigError, RunRecord, _cell_id, build_problem, load_records,
                         make_start, profile_points, profile_table, record_filename,
                         run_method, trace_to_lines, write_record)
from gscfw.solvers import ActiveSet, IterationRecord, RunTrace, SolverConfig

from conftest import records_without_times, reference_profile_points


def _fake_trace(f_seq, elapsed=0.001):
    """A capped run through f_seq; elapsed is one time for every iteration,
    or a list of times."""
    if not isinstance(elapsed, list):
        elapsed = [elapsed] * (len(f_seq) - 1)
    iters = [IterationRecord(k, f, gap=1.0, alpha=0.1, step_kind="forward",
                             elapsed_seconds=s)
             for k, (f, s) in enumerate(zip(f_seq[:-1], elapsed))]
    return RunTrace(iterations=iters, status="iteration-cap", final_f=f_seq[-1],
                    final_gap=0.5, x=np.zeros(1))


def _profile(records, epsilon):
    """The profile rows at one epsilon, by method."""
    return {row.method: row for row in profile_points(records, [epsilon])}


def test_relative_error():
    assert relative_error(5.0, 5.0) == 0.0
    assert relative_error(101.0, 100.0) == pytest.approx(0.01)
    assert relative_error(-1.98, -2.0) == pytest.approx(0.01)
    assert relative_error(1.0 - 1e-13, 1.0) == 0.0  # rounding clamp
    assert relative_error(1.0, 0.0) == pytest.approx(1e12)
    errors = relative_error([5.0, 101.0, 100.0 - 1e-11, 99.0], 100.0)
    assert errors.tolist() == [-0.95, 0.01, 0.0, -0.01]


def test_success_ratio():
    rec_good = RunRecord("p1", "m", 0, _fake_trace([2.0, 1.0, 1.0001]), 1.0)
    rec_bad = RunRecord("p1", "m", 1, _fake_trace([2.0, 1.5, 1.4]), 1.0)
    assert _profile([rec_good], 1e-3)["m"].rho == 1.0
    assert _profile([rec_good, rec_bad], 1e-3)["m"].rho == 0.5
    assert _profile([rec_good, rec_bad], math.inf)["m"].rho == 1.0
    assert _profile([rec_good, rec_bad, rec_bad, rec_good.__class__(
        "p2", "m", 0, _fake_trace([2.0, 1.0]), 1.0)], 1e-3)["m"].rho == 0.5
    assert profile_points([], [1e-3]) == []


def test_iteration_ratio_two_methods():
    # method a reaches the target at iteration 10, method b at 20
    fa = [2.0] * 10 + [1.0] * 11
    fb = [2.0] * 20 + [1.0]
    records = [RunRecord("p", "a", 0, _fake_trace(fa), 1.0),
               RunRecord("p", "b", 0, _fake_trace(fb), 1.0)]
    ratios = _profile(records, 1e-6)
    assert ratios["a"].rho_iter == pytest.approx(1.0)
    assert ratios["b"].rho_iter == pytest.approx(2.0)
    assert ratios["a"].rho_time == pytest.approx(1.0)
    assert ratios["b"].rho_time == pytest.approx(2.0, rel=1e-6)


def test_iteration_ratio_single_method_self_normalizes():
    records = [RunRecord("p", "a", 0, _fake_trace([2.0, 1.0]), 1.0),
               RunRecord("q", "a", 0, _fake_trace([3.0, 1.0, 1.0]), 1.0)]
    assert _profile(records, 1e-9)["a"].rho_iter == pytest.approx(1.0)


def test_iteration_ratio_averages_over_problems():
    records = [
        RunRecord("p", "a", 0, _fake_trace([2.0] * 10 + [1.0]), 1.0),
        RunRecord("p", "b", 0, _fake_trace([2.0] * 10 + [1.0]), 1.0),
        RunRecord("q", "a", 0, _fake_trace([2.0] * 10 + [1.0]), 1.0),
        RunRecord("q", "b", 0, _fake_trace([2.0] * 30 + [1.0]), 1.0),
    ]
    ratios = _profile(records, 1e-9)
    assert ratios["a"].rho_iter == pytest.approx(1.0)
    assert ratios["b"].rho_iter == pytest.approx((1.0 + 3.0) / 2.0)


def test_iteration_ratio_unsolved_method_absent():
    records = [RunRecord("p", "a", 0, _fake_trace([2.0, 1.0]), 1.0),
               RunRecord("p", "b", 0, _fake_trace([2.0, 2.0]), 1.0)]
    ratios = _profile(records, 1e-9)
    assert ratios["b"].rho_iter is None and ratios["b"].rho_time is None
    alone = _profile([records[1]], 1e-9)["b"]
    assert (alone.rho, alone.rho_iter, alone.rho_time) == (0.0, None, None)


# f* per problem (negative, zero, rounding-small and positive), and f values
# as offsets from it in units of max(|f*|, 1): the -1e-13 offset falls in the
# rounding clamp, which only a negative epsilon can see; 0 hits every
# epsilon >= 0 (k = 0 when it comes first).  Three problems, four starts,
# drawn times and runs of over 8 iterations make the order of the averages
# and of the time sums show in their rounding.
_F_STARS = [-2.0, -1e-13, 0.0, 1e-14, 1.0, 3.5]
_OFFSETS = [-1e-13, 0.0, 1e-13, 1e-9, 1e-6, 1e-3, 0.5, 2.0]
_ELAPSED = [0.0, 1e-4, 1e-3, 0.1, 0.25, 0.3]
_EPSILONS = [-1e-13, 0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, math.inf]


@st.composite
def _profile_records(draw):
    f_stars = {problem: draw(st.sampled_from(_F_STARS)) for problem in "pqr"}
    keys = draw(st.lists(st.tuples(st.sampled_from("pqr"), st.sampled_from("abc"),
                                   st.integers(0, 3)), max_size=16))
    records = []
    for problem, method, start in keys:
        f_star = f_stars[problem]
        offsets = draw(st.lists(st.sampled_from(_OFFSETS), min_size=1, max_size=12))
        elapsed = draw(st.lists(st.sampled_from(_ELAPSED) | st.floats(1e-6, 1.0),
                                min_size=len(offsets) - 1, max_size=len(offsets) - 1))
        f_values = [f_star + off * max(abs(f_star), 1.0) for off in offsets]
        records.append(RunRecord(problem, method, start, _fake_trace(f_values, elapsed),
                                 f_star))
    return records


# ties in k and in time, f* < 0 and f* = 0, an unsolved method (c), hits at
# k = 0 (b on q) and epsilon = inf
_EXAMPLE = [RunRecord("p", "a", 0, _fake_trace([-1.0, -2.0]), -2.0),
            RunRecord("p", "b", 0, _fake_trace([-1.0, -2.0 - 2e-13]), -2.0),
            RunRecord("p", "c", 0, _fake_trace([-1.0, -1.5]), -2.0),
            RunRecord("q", "a", 0, _fake_trace([1e-3, 1e-9, 0.0], [0.25, 0.0]), 0.0),
            RunRecord("q", "b", 0, _fake_trace([0.0, 0.5], 1e-4), 0.0),
            RunRecord("q", "c", 0, _fake_trace([2.0, 1.0], 1e-4), 0.0)]

# iteration ratios 1.1, 1.3, 1.7 on p, 1.5 on q and 1.1 on r (f* = 0 is hit at
# iteration k), whose means round differently when added up in another order
_ORDER_EXAMPLE = [RunRecord(problem, method, start, _fake_trace([1.0] * k + [0.0]), 0.0)
                  for problem, starts in (("p", (11, 13, 17)), ("q", (15,)), ("r", (11,)))
                  for start, own in enumerate(starts)
                  for method, k in (("a", own), ("b", 10))]


@settings(max_examples=200, deadline=None)
@given(records=_profile_records(), epsilons=st.lists(st.sampled_from(_EPSILONS),
                                                     min_size=1, max_size=5))
@example(records=_EXAMPLE, epsilons=[math.inf, 1e-3, 1e-12, 0.0])
@example(records=_ORDER_EXAMPLE, epsilons=[0.0])
def test_profile_points_match_the_scalar_reference(records, epsilons):
    rows = profile_points(records, epsilons)
    reference = reference_profile_points(records, epsilons)
    assert rows == reference
    assert profile_table(rows) == profile_table(reference)


def test_profile_monotone_in_epsilon():
    rng = np.random.default_rng(0)
    records = []
    for problem in ("p", "q"):
        for method in ("a", "b"):
            for start in range(3):
                drop = 10 ** -rng.uniform(0, 8)
                records.append(RunRecord(problem, method, start,
                                         _fake_trace([2.0, 1.0 + drop]), 1.0))
    rows = profile_points(records, [1e-7, 1e-5, 1e-3, 1e-1])
    for method in ("a", "b"):
        rhos = [r.rho for r in rows if r.method == method]
        assert all(rhos[i] <= rhos[i + 1] + 1e-12 for i in range(len(rhos) - 1))
        assert all(0.0 <= r <= 1.0 for r in rhos)


def test_build_problem_and_start_recipes():
    for name, extra in (("logistic", {"p": 30, "n": 8}),
                        ("portfolio", {"p": 20, "n": 6}),
                        ("dwd", {"p": 12, "d": 5}),
                        ("covariance", {"p": 4})):
        inst = build_problem({"name": name, "seed": 1, **extra})
        x0, weights = make_start(inst, start_seed=5)
        assert inst.feasible_set.contains(x0, tol=1e-7)
        assert inst.objective.in_domain(x0)
        if name == "dwd":
            assert weights is None
        else:
            active = ActiveSet(inst.feasible_set, weights)
            assert np.allclose(np.ravel(active.reconstruct()), np.ravel(x0))
    with pytest.raises(ConfigError):
        build_problem({"name": "nope"})


def test_build_problem_rejects_unknown_keys():
    # dwd sizes are p and d; n would otherwise be dropped silently
    with pytest.raises(ConfigError, match="unknown keys"):
        build_problem({"name": "dwd", "n": 5})
    with pytest.raises(ConfigError, match="desnity"):
        build_problem({"name": "logistic", "p": 30, "n": 8, "desnity": 0.3})
    with pytest.raises(ConfigError, match="unknown keys"):
        run_experiment({"problems": [{"name": "portfolio", "d": 4}], "methods": ["fwgsc"]},
                       dry_run=True)


@pytest.mark.parametrize("method", ["fwlloo", "lbtfwgsc", "fwgsc", "asfwgsc"])
def test_records_round_trip_every_field(tmp_path, method):
    inst = build_problem({"name": "portfolio", "p": 20, "n": 6, "seed": 2})
    x0, active = make_start(inst, start_seed=4)
    trace = run_method(method, inst, x0, active, SolverConfig(epsilon=1e-9, max_iter=40))
    assert trace.iterations
    write_record(tmp_path / record_filename("portfolio", method, 0),
                 trace_to_lines("portfolio", method, 0, trace, f_star_estimate=-1.5))
    (loaded,) = load_records(tmp_path)
    assert [dataclasses.asdict(rec) for rec in loaded.trace.iterations] == \
        [dataclasses.asdict(rec) for rec in trace.iterations]
    assert (loaded.problem, loaded.method, loaded.start, loaded.f_star_estimate) == \
        ("portfolio", method, 0, -1.5)
    assert (loaded.trace.status, loaded.trace.final_f, loaded.trace.final_gap) == \
        (trace.status, trace.final_f, trace.final_gap)


def test_records_round_trip_covers_every_optional_field(tmp_path):
    # between them these runs set every optional field: radius and
    # certificate (fwlloo), estimate and backtracks (lbtfwgsc), predicted
    # (fwgsc, asfwgsc), and away or drop steps (asfwgsc)
    inst = build_problem({"name": "portfolio", "p": 20, "n": 6, "seed": 2})
    x0, active = make_start(inst, start_seed=4)
    set_fields = set()
    for method in ("fwlloo", "lbtfwgsc", "fwgsc", "asfwgsc"):
        trace = run_method(method, inst, x0, active, SolverConfig(epsilon=1e-9, max_iter=40))
        set_fields |= {name for rec in trace.iterations
                       for name, value in dataclasses.asdict(rec).items() if value is not None}
    assert set_fields == {f.name for f in dataclasses.fields(IterationRecord)}


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1.7976931348623157e308,
                   math.inf, -math.inf, math.nan)
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_ints = st.integers() | st.integers(min_value=2**53 + 1, max_value=2**80)
_STEP_KINDS = ("forward", "away", "drop", "zero")
_iteration_records = st.builds(
    IterationRecord, k=_ints, f_value=_floats, gap=_floats, alpha=_floats,
    step_kind=st.sampled_from(_STEP_KINDS), backtrack_count=_ints,
    estimate=st.none() | _floats, elapsed_seconds=_floats,
    predicted_decrease=st.none() | _floats, certificate=st.none() | _floats,
    radius=st.none() | _floats)
# every special float, every step kind, and None and a value in each nullable field
_SPECIAL_ITERATIONS = [
    IterationRecord(2**53 + k + 1, f, gap=-f, alpha=f, step_kind=kind, backtrack_count=-k,
                    estimate=None if k % 2 else f, elapsed_seconds=f,
                    predicted_decrease=f if k % 2 else None, certificate=None if k % 2 else f,
                    radius=f if k % 2 else None)
    for k, (f, kind) in enumerate(zip(_SPECIAL_FLOATS, _STEP_KINDS * 2))]


def _same(a, b):
    """Equal and of one type; floats by their bits, and nan by isnan."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isnan(a) and math.isnan(b) or struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


@settings(max_examples=100, deadline=None)
@given(iterations=st.lists(_iteration_records, max_size=5), texts=st.tuples(st.text(), st.text(),
       st.text()), start=_ints, finals=st.tuples(_floats, _floats), f_star=st.none() | _floats)
@example(iterations=_SPECIAL_ITERATIONS, texts=("portfolio", "fwgsc", "iteration-cap"),
         start=2**60, finals=(-0.0, 5e-324), f_star=None)
@example(iterations=[], texts=("p", "m", "gap-converged"), start=0, finals=(math.nan, math.inf),
         f_star=-1.5)
def test_records_round_trip_bit_for_bit(tmp_path_factory, iterations, texts, start, finals,
                                        f_star):
    problem, method, status = texts
    trace = RunTrace(iterations=iterations, status=status, final_f=finals[0],
                     final_gap=finals[1], x=np.zeros(1))
    directory = tmp_path_factory.mktemp("rec")
    write_record(directory / "cell.jsonl",
                 trace_to_lines(problem, method, start, trace, f_star_estimate=f_star))
    (loaded,) = load_records(directory)
    assert len(loaded.trace.iterations) == len(iterations)
    for got, want in zip(loaded.trace.iterations, iterations):
        for field in dataclasses.fields(IterationRecord):
            assert _same(getattr(got, field.name), getattr(want, field.name)), field.name
    header = (problem, method, start, status, finals[0], finals[1],
              trace.best_f() if f_star is None else f_star)
    assert all(map(_same, (loaded.problem, loaded.method, loaded.start, loaded.trace.status,
                           loaded.trace.final_f, loaded.trace.final_gap,
                           loaded.f_star_estimate), header))


def test_records_pack_exactly_the_float_columns_without_none():
    inst = build_problem({"name": "portfolio", "p": 20, "n": 6, "seed": 2})
    x0, active = make_start(inst, start_seed=4)
    config = SolverConfig(epsilon=1e-9, max_iter=40)
    always = {"f", "gap", "alpha", "elapsed"}
    # estimate, predicted, certificate and radius hold None and a value in turn
    mixed = RunTrace(iterations=_SPECIAL_ITERATIONS, status="iteration-cap", final_f=0.0,
                     final_gap=0.0, x=np.zeros(1))
    for trace, packed in ((run_method("fwgsc", inst, x0, active, config), always | {"predicted"}),
                          (run_method("fwlloo", inst, x0, active, config),
                           always | {"estimate", "certificate", "radius"}),
                          (mixed, always)):
        columns = json.loads(trace_to_lines("p", "m", 0, trace, f_star_estimate=-1.0)[1])
        assert {key for key, column in columns.items() if isinstance(column, str)} == packed
        for name, key in (("f_value", "f"), ("elapsed_seconds", "elapsed")):
            want = np.array([getattr(rec, name) for rec in trace.iterations], dtype="<f8")
            assert base64.b64decode(columns[key]) == want.tobytes()


_GRID = {"problems": [{"name": "portfolio", "p": 15, "n": 5}], "methods": ["fwgsc"]}


@pytest.mark.parametrize("spec", [
    {"name": "logistic", "p": 0}, {"name": "logistic", "n": 0},
    {"name": "logistic", "density": -1}, {"name": "logistic", "density": 0},
    {"name": "logistic", "density": 1.5}, {"name": "logistic", "gamma": -1},
    {"name": "logistic", "radius": 0}, {"name": "logistic", "nu_mode": 4},
    {"name": "portfolio", "p": 0}, {"name": "portfolio", "n": 0},
    {"name": "dwd", "p": 0}, {"name": "dwd", "d": 0}, {"name": "dwd", "q": 0.5},
    {"name": "dwd", "u": -1}, {"name": "dwd", "big_r": -1},
    {"name": "covariance", "p": 0},
], ids=lambda spec: "-".join(f"{k}{v}" if k != "name" else v for k, v in spec.items()))
def test_out_of_range_problem_specs_are_config_errors(spec):
    (key,) = set(spec) - {"name"}
    with pytest.raises(ConfigError, match=f"bad {key!r} for problem"):
        run_experiment(dict(_GRID, problems=[spec]), dry_run=True)


def test_problem_specs_at_the_range_edges_build():
    for spec in ({"name": "logistic", "p": 1, "n": 1, "density": 1.0, "nu_mode": 3},
                 {"name": "dwd", "p": 2, "d": 1, "q": 1.0}):
        build_problem(spec)


@pytest.mark.parametrize("key", ["max_iters", "line_search_tol", "keep_iterates"])
def test_unknown_top_level_config_keys_are_config_errors(key):
    with pytest.raises(ConfigError, match=f"unknown config keys \\['{key}'\\]"):
        run_experiment(dict(_GRID, **{key: 3}), dry_run=True)


def test_run_method_dispatch_and_errors():
    inst = build_problem({"name": "portfolio", "p": 15, "n": 5, "seed": 2})
    x0, active = make_start(inst, start_seed=3)
    config = SolverConfig(epsilon=1e-6, max_iter=50)
    trace = run_method("fwgsc", inst, x0, active, config)
    assert trace.status in ("gap-converged", "iteration-cap")
    trace2 = run_method("fwlloo", inst, x0, active, config)
    assert trace2.status in ("gap-converged", "iteration-cap")
    with pytest.raises(ConfigError):
        run_method("unknown", inst, x0, active, config)
    dwd = build_problem({"name": "dwd", "p": 8, "d": 4, "seed": 2})
    x0d, actived = make_start(dwd, start_seed=3)
    with pytest.raises(ConfigError):
        run_method("asfwgsc", dwd, x0d, actived, config)
    with pytest.raises(ConfigError):
        run_method("fwlloo", dwd, x0d, actived, config)


def _smoke_config(out_dir):
    return {
        "problems": [{"name": "portfolio", "p": 25, "n": 8, "seed": 3},
                     {"name": "covariance", "p": 4, "seed": 4}],
        "methods": ["fwgsc", "mbtfwgsc", "asfwgsc"],
        "n_starts": 2,
        "epsilon": 1e-7,
        "max_iter": 150,
        "seed": 12,
        "out_dir": str(out_dir),
        "profile_epsilons": [1e-2, 1e-4, 1e-6],
    }


def test_run_experiment_smoke(tmp_path):
    records = run_experiment(_smoke_config(tmp_path / "rec"))
    assert len(records) == 2 * 3 * 2
    files = sorted((tmp_path / "rec").glob("*.jsonl"))
    assert len(files) == 12
    # f* consistency: the estimate never exceeds any attained value
    for rec in records:
        assert rec.f_star_estimate <= min(rec.trace.f_values()) + 1e-12
    # converged runs hold their promise
    for rec in records:
        if rec.trace.status == "gap-converged":
            assert rec.trace.final_gap <= 1e-7
    # profile CSV exists with the header
    csv_text = (tmp_path / "rec" / "profiles.csv").read_text().splitlines()
    assert csv_text[0] == "epsilon,method,rho,rho_iter,rho_time"
    # record round trip through the loader
    loaded = load_records(tmp_path / "rec")
    assert len(loaded) == 12
    by_key = {(r.problem, r.method, r.start): r for r in loaded}
    for rec in records:
        twin = by_key[(rec.problem, rec.method, rec.start)]
        _assert_same_record(twin, rec)


def _plain(value):
    """A numpy scalar as the Python number a record file gives back."""
    return value.item() if isinstance(value, np.generic) else value


def _assert_same_record(got, want):
    """Every record field, row field and header value of ``got`` equals ``want``'s
    bit for bit (by ``_same``)."""
    assert len(got.trace.iterations) == len(want.trace.iterations)
    for g, w in zip(got.trace.iterations, want.trace.iterations):
        for field in dataclasses.fields(IterationRecord):
            assert _same(getattr(g, field.name), _plain(getattr(w, field.name))), field.name
    for name in ("problem", "method", "start", "f_star_estimate"):
        assert _same(getattr(got, name), _plain(getattr(want, name))), name
    for name in ("status", "final_f", "final_gap"):
        assert _same(getattr(got.trace, name), _plain(getattr(want.trace, name))), name


def test_run_experiment_deterministic_modulo_time(tmp_path):
    config = _smoke_config(tmp_path / "a")
    run_experiment(config)
    config2 = dict(config, out_dir=str(tmp_path / "b"))
    run_experiment(config2)

    assert records_without_times(tmp_path / "a") == records_without_times(tmp_path / "b")


def test_cell_id_is_built_from_the_cast_spec(tmp_path):
    # integral floats build the same problem as integers, so they must also
    # name it and seed its starts the same way
    runs = {}
    for label, spec in (("int", {"name": "portfolio", "n": 5, "p": 15, "seed": 3}),
                        ("float", {"name": "portfolio", "n": 5, "p": 15.0, "seed": 3.0})):
        config = {"problems": [spec], "methods": ["fwgsc", "asfwgsc"], "n_starts": 3,
                  "epsilon": 1e-10, "max_iter": 40, "out_dir": str(tmp_path / label)}
        run_experiment(config)
        runs[label] = records_without_times(tmp_path / label)
    assert sorted(runs["int"]) == sorted(
        f"portfolio-n5-p15-seed3__{method}__s{start}.jsonl"
        for method in ("fwgsc", "asfwgsc") for start in range(3))
    assert runs["float"] == runs["int"]
    # a float parameter is named as the float it is cast to
    assert _cell_id({"name": "logistic", "radius": 10}) == "logistic-radius10.0"
    assert (_cell_id({"name": "logistic", "radius": 10.0, "seed": 2.0})
            == "logistic-radius10.0-seed2")


def test_run_experiment_dry_run(tmp_path, capsys):
    records = run_experiment(_smoke_config(tmp_path / "rec"), dry_run=True)
    assert records == []
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 12
    assert not (tmp_path / "rec").exists()


def test_run_experiment_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment({"problems": [], "methods": ["fwgsc"]})
    with pytest.raises(ConfigError):
        run_experiment({"problems": [{"name": "portfolio"}], "methods": ["nope"]})
    with pytest.raises(ConfigError):
        run_experiment({"problems": [{"name": "portfolio"}], "methods": ["fwgsc"],
                        "epsilon": -1.0})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        run_experiment(bad)
    # a problem or method named twice would write its records over the first's
    for problems, methods, named in (
            ([{"name": "portfolio", "p": 15}] * 2, ["fwgsc"], "problem 'portfolio-p15'"),
            ([{"name": "portfolio", "p": 15}, {"name": "portfolio", "p": 15.0}], ["fwgsc"],
             "problem 'portfolio-p15'"),
            ([{"name": "portfolio"}], ["fwgsc", "asfwgsc", "fwgsc"], "method 'fwgsc'")):
        for dry_run in (True, False):
            with pytest.raises(ConfigError, match=f"{named} is named twice"):
                run_experiment({"problems": problems, "methods": methods,
                                "out_dir": str(tmp_path / "twice")}, dry_run=dry_run)
    assert not (tmp_path / "twice").exists()


def _count_builds(monkeypatch):
    """Rebind ``bench.build_problem`` to append the cell id of each build to
    the returned list."""
    builds, build = [], gbench.build_problem

    def counted(spec):
        builds.append(_cell_id(spec))
        return build(spec)

    monkeypatch.setattr(gbench, "build_problem", counted)
    return builds


def test_each_problem_is_built_once_per_run(tmp_path, monkeypatch):
    builds = _count_builds(monkeypatch)
    config = _smoke_config(tmp_path / "a")  # 2 problems x 3 methods x 2 starts
    assert len(run_experiment(config)) == 12
    assert builds == ["portfolio-n8-p25-seed3", "covariance-p4-seed4"]
    # nothing is kept between calls: a second run pays its own builds
    run_experiment(dict(config, out_dir=str(tmp_path / "b")))
    assert builds == ["portfolio-n8-p25-seed3", "covariance-p4-seed4"] * 2


def test_cells_run_spec_major_in_the_order_of_their_records(tmp_path, monkeypatch):
    # the benchmark times build_problem, make_start and run_method through
    # these module names and pairs its n-th run_method call with record n
    build, start, run = gbench.build_problem, gbench.make_start, gbench.run_method
    calls = []
    built = {}  # id of a built instance -> its cell id

    def logged_build(spec):
        instance = build(spec)
        built[id(instance)] = _cell_id(spec)
        calls.append(("build", built[id(instance)]))
        return instance

    def logged_start(instance, start_seed):
        calls.append(("start", built[id(instance)]))
        return start(instance, start_seed)

    def logged_run(method, instance, x0, active, config):
        calls.append(("run", built[id(instance)], method))
        return run(method, instance, x0, active, config)

    monkeypatch.setattr(gbench, "build_problem", logged_build)
    monkeypatch.setattr(gbench, "make_start", logged_start)
    monkeypatch.setattr(gbench, "run_method", logged_run)
    config = dict(_smoke_config(tmp_path / "rec"), max_iter=20)
    records = run_experiment(config)

    problems, methods, starts = (("portfolio-n8-p25-seed3", "covariance-p4-seed4"),
                                 config["methods"], range(config["n_starts"]))
    assert [(r.problem, r.method, r.start) for r in records] == [
        (problem, method, s) for problem in problems for method in methods for s in starts]
    expected = []
    for problem in problems:
        expected.append(("build", problem))
        for method in methods:
            expected += [("start", problem), ("run", problem, method)] * len(starts)
    assert calls == expected


def test_portfolio_smoke_grid_fits_budget(tmp_path):
    import time
    config = {
        "problems": [{"name": "portfolio", "p": 100, "n": 50, "seed": 1},
                     {"name": "portfolio", "p": 100, "n": 50, "seed": 2}],
        "methods": ["fwgsc", "mbtfwgsc", "asfwgsc"],
        "n_starts": 2,
        "epsilon": 1e-8,
        "max_iter": 2000,
        "out_dir": str(tmp_path / "smoke"),
    }
    t0 = time.monotonic()
    records = run_experiment(config)
    assert time.monotonic() - t0 < 300.0
    assert len(records) == 12


def test_benchmark_tracer_binds_library_names_and_restores_them(monkeypatch):
    # the benchmark's tracer rebinds module globals and oracle methods by
    # name, so a rename or deletion of one of them breaks every traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer")
    owners = (gsolvers, gbench, gsolvers.ActiveSet)
    saved = [dict(vars(owner)) for owner in owners]
    original_step = gsolvers.analytic_step
    patcher = tracer.Patcher()
    try:
        tracer.install_layers(tracer.Tracer(), patcher)
        assert gsolvers.analytic_step.__wrapped__ is original_step
    finally:
        patcher.restore()
    for owner, names in zip(owners, saved):
        assert vars(owner).keys() == names.keys()
        assert all(vars(owner)[name] is value for name, value in names.items())

    for spec in ({"name": "logistic", "p": 20, "n": 5}, {"name": "portfolio", "p": 15, "n": 5},
                 {"name": "dwd", "p": 10, "d": 3}, {"name": "covariance", "p": 3}):
        spans = tracer.Tracer()
        inst = tracer.instrument_instance(spans, build_problem(spec))
        x0, _ = make_start(inst, start_seed=1)
        inst.objective.value(x0)
        inst.feasible_set.lmo(inst.objective.gradient(x0))
        summary = spans.summary()
        assert summary["problems.value"]["calls"] == 1, spec["name"]
        assert summary["sets.lmo"]["calls"] == 1, spec["name"]
