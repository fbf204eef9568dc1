"""Seeded workload definitions.

A workload is a list of grid configs for ``gscfw.bench.run_experiment``.
Every problem seed and the start seed derive from the benchmark seed, so the
same seed gives the same inputs; the library only ever sees the generated
configs.  ``toy`` shrinks every size and cap so the smoke test finishes in
seconds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

PROFILE_EPSILONS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
# Smallest positive float: a cell aiming at it stops at its iteration cap.
UNREACHABLE_GAP = 5e-324


def derived_seeds(seed: int, tag: str, count: int) -> list:
    """``count`` independent 32-bit seeds for one workload and benchmark seed
    (any integer; negative ones are taken modulo 2**64)."""
    entropy = [seed % 2**64, zlib.crc32(tag.encode())]
    state = np.random.SeedSequence(entropy).generate_state(count)
    return [int(s) for s in state]


def _grid(problems, methods, *, epsilon, max_iter, seed, n_starts=1):
    return {"problems": problems, "methods": methods, "n_starts": n_starts,
            "epsilon": epsilon, "max_iter": max_iter, "seed": seed,
            "profile_epsilons": PROFILE_EPSILONS}


def margin_large(seed: int, toy: bool) -> list:
    """Large sparse margin objectives under the three GSC step rules.

    The order-2 logistic and the DWD cells aim at an unreachable gap and stop
    at a fixed cap, so most of a pass does the same work for every seed; the
    order-3 logistic cells run to a loose gap, so some cells converge.
    """
    s = derived_seeds(seed, "margin-large", 4)
    p, n, pd, d = (300, 60, 120, 20) if toy else (6000, 1000, 3000, 300)
    logistic = [{"name": "logistic", "p": p, "n": n, "density": 0.05, "nu_mode": mode,
                 "seed": s[i]} for i, mode in enumerate((2, 3))]
    dwd = {"name": "dwd", "p": pd, "d": d, "seed": s[2]}
    methods = ["fwgsc", "lbtfwgsc", "mbtfwgsc"]
    return [
        _grid([logistic[0], dwd], methods, epsilon=1e-12, max_iter=10 if toy else 150,
              seed=s[3]),
        _grid([logistic[1]], methods, epsilon=5e-4, max_iter=60 if toy else 1000, seed=s[3]),
    ]


def logdet_linesearch(seed: int, toy: bool) -> list:
    """Log-det objective, where every oracle call is a Cholesky factorization.

    The line-search cell has its own, lower cap.  The gap is tight: the
    away-step cells reach it (linear rate, about 200-280 iterations) and the
    sublinear cells stop at their cap.  Three starts keep every cell short,
    so the host-speed probes between cells are close together.
    """
    s = derived_seeds(seed, "logdet-linesearch", 2)
    problem = [{"name": "covariance", "p": 6 if toy else 30, "seed": s[0]}]
    n_starts = 1 if toy else 3
    return [
        _grid(problem, ["fw-line-search"], epsilon=1e-7,
              max_iter=5 if toy else 60, seed=s[1], n_starts=n_starts),
        _grid(problem, ["fwgsc", "lbtfwgsc", "mbtfwgsc", "asfwgsc"], epsilon=1e-7,
              max_iter=30 if toy else 400, seed=s[1], n_starts=n_starts),
    ]


def simplex_grid(seed: int, toy: bool) -> list:
    """Many short cells at small size: a full harness pass.

    The sublinear methods run on logistic problems only and aim at a gap
    they cannot reach, so they stop at the cap.  On a portfolio they would
    not: its log-optimal portfolio holds a handful of the assets, and a start
    at one of those vertices lets fwgsc and mbtfwgsc reach a zero gap, for
    some seeds and not others.  asfwgsc (linear rate) runs to a tight gap,
    which it reaches on every seed, on every problem.  fwlloo needs the
    simplex oracle, so it runs over the portfolio problems only.  All grids
    write into one record directory.
    """
    s = derived_seeds(seed, "simplex-grid", 7)
    if toy:
        portfolio = {"p": 40, "n": 10}
        logistic = {"p": 60, "n": 10}
    else:
        portfolio = {"p": 400, "n": 100}
        logistic = {}
    portfolios = [{"name": "portfolio", **portfolio, "seed": s[i]} for i in (0, 1)]
    logistics = [{"name": "logistic", **logistic, "seed": s[i]} for i in (2, 3, 4, 5)]
    common = {"max_iter": 20 if toy else 300, "seed": s[6], "n_starts": 1 if toy else 3}
    return [
        _grid(logistics, ["fw-standard", "fwgsc", "lbtfwgsc", "mbtfwgsc"],
              epsilon=UNREACHABLE_GAP, **common),
        _grid(portfolios + logistics, ["asfwgsc"], epsilon=1e-10, **common),
        _grid(portfolios, ["fwlloo"], epsilon=UNREACHABLE_GAP, **common),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grids: Callable[[int, bool], list]


WORKLOADS = {w.name: w for w in (
    Workload("margin-large",
             "sparse margin products in the problems oracles dominate; "
             "loop overhead, active set, Cholesky and records barely show",
             margin_large),
    Workload("logdet-linesearch",
             "Cholesky-backed oracles, max_feasible_step and the exact line "
             "search dominate; margin-large bypasses all three",
             logdet_linesearch),
    Workload("simplex-grid",
             "many short cells: per-iteration overhead, active set, LLOO, "
             "record writes, reload and profile",
             simplex_grid),
)}


def cell_count(grids) -> int:
    return sum(len(g["problems"]) * len(g["methods"]) * g["n_starts"] for g in grids)
