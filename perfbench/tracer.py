"""Outside-in span tracer for gscfw.

Spans are recorded around calls into the library's public functions from the
benchmark's own code; nothing under ``src/`` is changed.  Two mechanisms:

* methods of objective and feasible-set *instances* are replaced on the
  instance itself, never through a proxy class, so every ``isinstance``
  check in the library still sees the real object;
* module-level names in ``gscfw.solvers`` and ``gscfw.bench`` (and three
  ``ActiveSet`` methods) are rebound by a ``Patcher`` that restores them on
  exit, so only the traced pass sees them.

A span is (name, start, end, parent).  Spans stay in memory as flat arrays
and are summarized or written out when the pass ends.  A span's self time is
its duration minus the durations of its direct children.  A call to a span
name from inside a span of the same name (``VertexSet.lmo`` calling the
wrapped ``lmo_indexed``) is not counted twice.
"""

from __future__ import annotations

import time
import types
from array import array
from collections import Counter

import numpy as np

from gscfw import bench as gbench
from gscfw import solvers as gsolvers


class Tracer:
    """Collects spans for one pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span around every call; ``observe(result)`` runs after."""
        nid = self._intern(name)
        stack, name_id, parent_of = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and name_id[parent] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent_of.append(parent)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s"}."""
        n = len(self.start)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selft[i])}
                for i, name in enumerate(self.names)}

    def dump(self, path):
        """Write every span as compressed arrays (names, name_id, start, end, parent)."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_id),
                            start=np.array(self.start), end=np.array(self.end),
                            parent=np.array(self.parent))


class Patcher:
    """setattr with undo."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


OBJECTIVE_METHODS = ("value", "gradient", "hess_vec", "in_domain", "max_step")
GENERATORS = ("synthetic_classification", "portfolio_generator", "covariance_generator")
CONSTRUCTORS = ("logistic_problem", "portfolio_problem", "dwd_problem", "covariance_problem")


def instrument_instance(tracer: Tracer, instance):
    """Wrap the oracle methods of one ProblemInstance in place."""
    obj = instance.objective
    for method in OBJECTIVE_METHODS:
        setattr(obj, method, tracer.wrap(f"problems.{method}", getattr(obj, method)))
    feasible = instance.feasible_set
    for method in ("lmo", "lmo_indexed"):
        if hasattr(feasible, method):
            setattr(feasible, method, tracer.wrap("sets.lmo", getattr(feasible, method)))
    return instance


def _count_backtracks(tracer: Tracer):
    def observe(result):
        tracer.counters["solvers.backtrack.trials"] += result[2] + 1
        tracer.counters["solvers.backtrack.accepted"] += 1
    return observe


def _traced_lloo(tracer: Tracer, make_lloo):
    def make(n):
        lloo = make_lloo(n)
        lloo.query = tracer.wrap("sets.lloo", lloo.query)
        return lloo
    return make


def install_layers(tracer: Tracer, patcher: Patcher):
    """Rebind every layer boundary below the cell level."""
    wrap = tracer.wrap
    s = gsolvers
    patcher.set(s, "analytic_step", wrap("stepsize.analytic_step", s.analytic_step))
    patcher.set(s, "t_star", wrap("stepsize.t_star", s.t_star))
    patcher.set(s, "LocalGeometry", types.SimpleNamespace(
        from_direction=wrap("gsc.local_geometry", s.LocalGeometry.from_direction)))
    patcher.set(s, "max_feasible_step", wrap("sets.max_feasible_step", s.max_feasible_step))
    patcher.set(s, "_exact_line_search", wrap("solvers.line_search", s._exact_line_search))
    patcher.set(s, "step_l", wrap("solvers.step_l", s.step_l, _count_backtracks(tracer)))
    patcher.set(s, "step_m", wrap("solvers.step_m", s.step_m, _count_backtracks(tracer)))
    patcher.set(s, "away_vertex", wrap("solvers.away_vertex", s.away_vertex))
    active = s.ActiveSet
    for method in ("forward_update", "away_update"):
        patcher.set(active, method, wrap("solvers.active_set.update", getattr(active, method)))
    patcher.set(active, "reconstruct", wrap("solvers.active_set.reconstruct",
                                            active.reconstruct))

    b = gbench
    for name in GENERATORS:
        patcher.set(b, name, wrap("problems.generate", getattr(b, name)))
    for name in CONSTRUCTORS:
        patcher.set(b, name, wrap("problems.construct", getattr(b, name)))
    patcher.set(b, "make_simplex_lloo", _traced_lloo(tracer, b.make_simplex_lloo))
    patcher.set(b, "trace_to_lines", wrap("bench.records.write", b.trace_to_lines))
    patcher.set(b, "write_record", wrap("bench.records.write", b.write_record))
    patcher.set(b, "profile_points", wrap("bench.profile_points", b.profile_points))
    patcher.set(b, "write_profile_csv", wrap("bench.profile_csv", b.write_profile_csv))
