"""Time the solver iterations of two gscfw source trees against each other.

Loads TREE_A/src/gscfw and TREE_B/src/gscfw into one process as two
packages.  For each problem spec (as a grid file's ``problems`` entry) and
each method that applies to it, it runs ITERS iterations from one start
with each tree in turn, REPEATS times, and alternates which tree runs first.
It prints the best run's microseconds per iteration for each tree, and
their ratio B/A:

    python3 scripts/iteration_pairs.py ../parent . --repeats 15
    python3 scripts/iteration_pairs.py . . --problems '[{"name": "covariance", "p": 120}]' \\
        --methods fwgsc asfwgsc

Both trees share the host's state at each moment, so a drift in its speed
touches both columns alike; the best of many short runs keeps each tree's
undisturbed time.  A run that stops before ITERS iterations is timed per
iteration it made; the ``iters`` column shows A's count, and a B count
that differs is shown after a slash.
"""

import argparse
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

DEFAULT_PROBLEMS = [{"name": "logistic"}, {"name": "portfolio"}, {"name": "dwd"},
                    {"name": "covariance", "p": 30}]
DEFAULT_METHODS = ["fw-standard", "fwgsc", "lbtfwgsc", "mbtfwgsc", "asfwgsc"]


def load(tree: Path, name: str):
    """TREE/src/gscfw imported as the package NAME, beside any other copy;
    returns its ``bench`` and ``solvers`` modules."""
    init = tree / "src" / "gscfw" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.bench"), importlib.import_module(f"{name}.solvers")


def applies(bench, method: str, family: str) -> bool:
    # the grid's own rule: asfwgsc needs a vertex start, fwlloo the simplex
    return family in bench._METHOD_FAMILIES.get(method, (family,))


def timed_run(tree, inst, method: str, seed: int, iters: int):
    """(seconds per iteration, iterations) of one run; the start is made untimed."""
    bench, solvers = tree
    x0, weights = bench.make_start(inst, seed)
    config = solvers.SolverConfig(epsilon=5e-324, max_iter=iters)
    start = time.perf_counter()
    trace = bench.run_method(method, inst, x0, weights, config)
    seconds = time.perf_counter() - start
    return seconds / max(len(trace.iterations), 1), len(trace.iterations)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="a checkout whose src/gscfw is column A")
    parser.add_argument("tree_b", type=Path, help="a checkout whose src/gscfw is column B")
    parser.add_argument("--problems", type=json.loads, default=DEFAULT_PROBLEMS,
                        help="a JSON list of problem specs (default: %(default)s)")
    parser.add_argument("--methods", nargs="+", default=DEFAULT_METHODS)
    parser.add_argument("--repeats", type=int, default=15, help="runs per tree and cell")
    parser.add_argument("--iters", type=int, default=300, help="iterations per run")
    parser.add_argument("--seed", type=int, default=5, help="the start seed")
    args = parser.parse_args(argv)
    for tree in (args.tree_a, args.tree_b):
        if not (tree / "src" / "gscfw" / "__init__.py").is_file():
            parser.error(f"no src/gscfw package under {tree}")
    if args.repeats < 1 or args.iters < 1:
        parser.error("--repeats and --iters must be at least 1")
    if not (isinstance(args.problems, list)
            and all(isinstance(spec, dict) and "name" in spec for spec in args.problems)):
        parser.error("--problems must be a JSON list of objects with a name")
    trees = load(args.tree_a, "gscfw_tree_a"), load(args.tree_b, "gscfw_tree_b")

    print(f"A = {args.tree_a}, B = {args.tree_b}; best of {args.repeats} runs of "
          f"{args.iters} iterations, start seed {args.seed}, the two trees alternating")
    print(f"{'problem':<28} {'method':<14} {'A us/it':>9} {'B us/it':>9} {'B/A':>6}  iters")
    for spec in args.problems:
        label = ",".join(f"{key}={value}" for key, value in spec.items() if key != "name")
        label = spec["name"] + (f"({label})" if label else "")
        for method in args.methods:
            if not applies(trees[1][0], method, spec["name"]):
                continue
            best, counts = [float("inf"), float("inf")], [None, None]
            instances = [bench.build_problem(spec) for bench, _ in trees]
            for repeat in range(args.repeats):
                for side in ((0, 1) if repeat % 2 == 0 else (1, 0)):
                    per_iter, counts[side] = timed_run(trees[side], instances[side], method,
                                                       args.seed, args.iters)
                    best[side] = min(best[side], per_iter)
            a, b = (1e6 * t for t in best)
            iters = str(counts[0]) + ("" if counts[1] == counts[0] else f"/{counts[1]}")
            print(f"{label:<28} {method:<14} {a:>9.1f} {b:>9.1f} {b / a:>6.3f}  {iters}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
