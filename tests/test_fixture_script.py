"""The fixture script writes only the fixtures it is asked for by name, and
nothing when it only compares."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_reference_fixtures.py"
FIXTURES = [ROOT / "tests" / "fixtures" / name
            for name in ("golden_traces.json", "portfolio_reference.json")]


def _digests():
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in FIXTURES}


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args, code", [(["--help"], 0), ([], 2), (["nope"], 2),
                                        (["golden", "nope"], 2),
                                        (["portfolio-reference", "--diff"], 2)])
def test_script_writes_nothing_unless_asked(args, code):
    before = _digests()
    out = _run(args)
    assert out.returncode == code, out.stderr
    assert "usage:" in out.stdout + out.stderr
    assert "wrote" not in out.stdout
    assert _digests() == before


def test_golden_diff_reports_every_cell_and_writes_nothing():
    before = _digests()
    out = _run(["golden", "--diff"])
    assert out.returncode == 0, out.stderr
    assert "wrote" not in out.stdout
    assert _digests() == before
    cells = json.loads(FIXTURES[0].read_text())["cells"]
    rows = out.stdout.splitlines()[1:]
    assert len(rows) == len(cells)
    for row, cell in zip(rows, cells):
        assert row.split()[:4] == [cell["problem"]["name"], cell["method"], "same", "same"]
