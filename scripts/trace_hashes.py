"""Fingerprint solver traces, to show that a change moves no float of a run.

For every problem family x applicable solver x 2 starts (60 cells), and for
fw-line-search, fwgsc and asfwgsc x 2 starts on a p = 6 covariance problem at
radius 9, whose oracle picks off-diagonal vertices (6 cells), run 150
iterations at epsilon 1e-12 with the gscfw sources under SRC and hash every
iteration record field but its wall time, plus the status, final f, final
gap, length and final x.  Floats are hashed by their IEEE-754 bytes, so a
float and a numpy scalar of the same value agree, and so do two numpy
versions that print numpy scalars differently.  Writes one line per cell,
``"family/method/start": [sha256, iterations, status, meta]``, to OUT, with
the run's meta as a key-sorted object beside the hash:

    python3 scripts/trace_hashes.py . after.json
    python3 scripts/trace_hashes.py ../parent before.json
    diff before.json after.json

Equal hashes mean a cell's trace is the same bit for bit, wall times aside,
and a changed meta value shows by its key in the diff.  BLAS products may
round differently on another host, so compare files written on one host.
"""

import argparse
import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path

FAMILIES = {
    "logistic-nu2": {"name": "logistic"},
    "logistic-nu3": {"name": "logistic", "nu_mode": 3},
    "portfolio": {"name": "portfolio"},
    "dwd": {"name": "dwd"},
    "covariance": {"name": "covariance"},
}
BASE = ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc", "mbtfwgsc"]
# At the default radius ceil(sqrt(p)) every covariance vertex picked is
# diagonal; at p = 6 and radius 9 some are not, so these cells run the
# off-diagonal score, vertex line and two-term carried inverse step.
OFF_DIAGONAL = ("covariance-p6-r9", ["fw-line-search", "fwgsc", "asfwgsc"])
MAX_ITER = 150


def methods(family: str) -> list:
    return (BASE + (["asfwgsc"] if family != "dwd" else [])
            + (["fwlloo"] if family == "portfolio" else []))


def field_bytes(value) -> bytes:
    """A float by its IEEE-754 bytes, an int, a string or None by its repr.

    ``np.float64`` subclasses ``float``, so a numpy scalar and a float of the
    same value hash alike, whatever numpy's version prints for them.
    """
    return struct.pack("<d", value) if isinstance(value, float) else repr(value).encode()


def trace_hash(trace, np) -> str:
    h = hashlib.sha256()
    for rec in trace.iterations:
        fields = dataclasses.asdict(rec)
        fields.pop("elapsed_seconds")
        for name, value in fields.items():
            h.update(name.encode() + b"=" + field_bytes(value) + b";")
    for value in (trace.status, trace.final_f, trace.final_gap, len(trace.iterations)):
        h.update(field_bytes(value) + b";")
    h.update(np.ascontiguousarray(trace.x).tobytes())
    return h.hexdigest()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="a checkout whose src/gscfw is run")
    parser.add_argument("out", type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    if not (args.src / "src" / "gscfw").is_dir():
        parser.error(f"no src/gscfw package under {args.src}")
    sys.path.insert(0, str(args.src / "src"))
    import numpy as np
    from gscfw import SolverConfig
    from gscfw.bench import build_problem, make_start, run_method
    from gscfw.problems import covariance_generator, covariance_problem

    config = SolverConfig(epsilon=1e-12, max_iter=MAX_ITER)
    cells = [(family, build_problem(spec), methods(family)) for family, spec in FAMILIES.items()]
    family, off_diagonal_methods = OFF_DIAGONAL
    cells.append((family, covariance_problem(covariance_generator(6, 0), radius=9.0),
                  off_diagonal_methods))
    lines = []
    for family, inst, family_methods in cells:
        for method in family_methods:
            for start in (1, 2):
                x0, weights = make_start(inst, start)
                trace = run_method(method, inst, x0, weights, config)
                cell = [trace_hash(trace, np), len(trace.iterations), trace.status, trace.meta]
                lines.append(f"{json.dumps(f'{family}/{method}/{start}')}: "
                             f"{json.dumps(cell, sort_keys=True)}")
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
