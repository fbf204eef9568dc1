"""The fixture script writes only the fixtures it is asked for by name."""

import hashlib
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


@pytest.mark.parametrize("args, code", [(["--help"], 0), ([], 2), (["nope"], 2),
                                        (["golden", "nope"], 2)])
def test_script_writes_nothing_unless_asked(args, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    before = _digests()
    out = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == code, out.stderr
    assert "usage:" in out.stdout + out.stderr
    assert "wrote" not in out.stdout
    assert _digests() == before
