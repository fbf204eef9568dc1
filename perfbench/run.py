"""gscfw benchmark: one seeded workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload margin-large --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object; the lines before it are a readable report.  A traced run writes the
spans of its first traced pass to ``.perfbench_out/`` under the repository
root.  ``--toy`` shrinks every size for the smoke test.  See
perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS and a serial harness, before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("GSCFW_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("GSCFW_WORKERS",)},
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description="gscfw benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gscfw" / "__init__.py").is_file():
        print(f"error: no gscfw sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import END_TO_END, PER_LAYER, print_report, run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    traced = args.trace == 1
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"# gscfw benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} toy={args.toy}")
    print(f"# why: {workload.why}")
    print("# environment: " + json.dumps(environment(), sort_keys=True))
    result = run_workload(workload.grids(args.seed, args.toy), args.seconds, traced,
                          OUT_DIR / f"work-{tag}")
    print_report(result, traced)
    first_traced = next((p for p in result.passes if p.traced), None)
    if first_traced is not None:
        first_traced.tracer.dump(OUT_DIR / f"spans-{tag}.npz")
        print(f"# spans of the first traced pass: {OUT_DIR.name}/spans-{tag}.npz")
    chosen = PER_LAYER if traced else END_TO_END
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
