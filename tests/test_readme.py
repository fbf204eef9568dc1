"""Every ```python block of README.md runs as written, and its ```json grid
config lists the grid it describes."""

import json
import re
from pathlib import Path

import pytest

from gscfw import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.S | re.M)
CONFIGS = re.findall(r"^```json\n(.*?)^```", TEXT, flags=re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "readme_example"})


def test_readme_config_is_a_valid_grid(tmp_path, capsys, monkeypatch):
    (config,) = CONFIGS
    monkeypatch.chdir(tmp_path)  # the config's out_dir is relative
    Path("config.json").write_text(config)
    assert cli.main(["run", "config.json", "--dry-run"]) == 0
    cells = capsys.readouterr().out.splitlines()
    grid = json.loads(config)
    # 2 problems x 3 methods x 10 starts
    assert len(cells) == len(grid["problems"]) * len(grid["methods"]) * grid["n_starts"] == 60
    assert not Path("records").exists()
