"""The fixture script writes only the fixtures it is asked for by name, and
nothing when it only compares; its comparison fails a run whose traces
differ in more than their floats."""

import hashlib
import importlib.util
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
        assert row.split()[:5] == [cell["problem"]["name"], cell["method"], "same", "same",
                                   "same"]


def _first(name, change):
    """Apply ``change`` to the first value of record column ``name``."""
    def doctor(cell):
        column = cell["records"][name]
        column[0] = change(column[0])
    return doctor


# each change, and the column of the report that flags it (None: none does)
DOCTORED = {
    "unchanged": (lambda cell: None, None),
    "status": (lambda cell: cell.update(status="stalled"), "status"),
    "length": (lambda cell: [column.pop() for column in cell["records"].values()], "length"),
    "step_kind": (_first("step_kind", lambda kind: "away"), "steps"),
    "backtrack_count": (_first("backtrack_count", lambda count: count + 1), "steps"),
    # floats may move: the comparison reports them and passes
    "f_value": (_first("f_value", lambda f: f * (1.0 + 1e-9)), None),
}


@pytest.mark.parametrize("change", sorted(DOCTORED))
def test_golden_diff_fails_on_changed_behaviour(change, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_reference_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    fixture = json.loads(FIXTURES[0].read_text())
    cell = next(c for c in fixture["cells"]
                if c["problem"]["name"] == "covariance" and c["method"] == "mbtfwgsc")
    doctor, flagged = DOCTORED[change]
    doctor(cell)
    fixture["cells"] = [cell]
    (tmp_path / "golden_traces.json").write_text(json.dumps(fixture))
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    assert script.main(["golden", "--diff"]) == (0 if flagged is None else 1)
    header, row = (line.split() for line in capsys.readouterr().out.splitlines())
    report = dict(zip(header[1:4], row[2:5]))
    assert list(report) == ["status", "length", "steps"]
    if flagged is None:
        assert set(report.values()) == {"same"}
    else:
        assert report[flagged] == "DIFF"
