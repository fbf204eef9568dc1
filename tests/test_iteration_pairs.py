"""A quick run of the in-process A/B timer on the repository against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "iteration_pairs.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_iteration_pairs_times_every_applicable_cell_on_both_trees():
    problems = [{"name": "portfolio", "p": 30, "n": 8, "seed": 2},
                {"name": "dwd", "p": 12, "d": 3}]
    out = _run(ROOT, ROOT, "--problems", json.dumps(problems), "--methods", "fwgsc", "asfwgsc",
               "--repeats", 2, "--iters", 4)
    assert out.returncode == 0, out.stderr
    header, columns, *rows = out.stdout.splitlines()
    assert "best of 2 runs of 4 iterations" in header
    assert columns.split() == ["problem", "method", "A", "us/it", "B", "us/it", "B/A", "iters"]
    # asfwgsc has no DWD start, so three cells
    cells = [row.split() for row in rows]
    assert [cell[:2] for cell in cells] == [["portfolio(p=30,n=8,seed=2)", "fwgsc"],
                                            ["portfolio(p=30,n=8,seed=2)", "asfwgsc"],
                                            ["dwd(p=12,d=3)", "fwgsc"]]
    for cell in cells:
        assert min(map(float, cell[2:5])) > 0.0  # A and B us/it, and B/A
        assert cell[5] == "4"  # both trees ran every iteration


def test_iteration_pairs_rejects_a_tree_without_the_package(tmp_path):
    out = _run(ROOT, tmp_path)
    assert out.returncode == 2 and "no src/gscfw package" in out.stderr
