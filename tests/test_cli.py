import base64
import json
import os
import subprocess
import sys
from operator import setitem
from pathlib import Path

import pytest

from gscfw import SOLVERS, bench
from gscfw.cli import main


def test_cli_trace_writes_record(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = main(["trace", "--problem", "portfolio", "--method", "fwgsc",
                 "--p", "20", "--n", "6", "--max-iter", "50",
                 "--epsilon", "1e-8", "--seed", "4", "--out", str(out)])
    assert code == 0
    header, columns = (json.loads(line) for line in out.read_text().splitlines())
    assert (header["method"], header["schema"]) == ("fwgsc", 3)
    assert header["n_iterations"] > 0
    # a packed float column holds 8 bytes per iteration, a list column one value
    assert {len(base64.b64decode(column)) // 8 if isinstance(column, str) else len(column)
            for column in columns.values()} == {header["n_iterations"]}


def test_cli_trace_config_error_exit_code(tmp_path):
    code = main(["trace", "--problem", "dwd", "--method", "fwlloo",
                 "--p", "10", "--max-iter", "5", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--epsilon", "-1"), ("--epsilon", "nan"),
                                         ("--epsilon", "inf"), ("--max-iter", "-1")])
def test_cli_trace_bad_solver_setting_is_a_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "x.jsonl"
    code = main(["trace", "--problem", "portfolio", "--method", "fwgsc", "--p", "15",
                 "--n", "5", flag, value, "--out", str(out)])
    assert code == 2
    assert "config error: bad solver settings" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_unknown_problem_keys(tmp_path):
    # dwd has no n: the record would be labelled dwd-n5 for a d = 30 problem
    out = tmp_path / "x.jsonl"
    code = main(["trace", "--problem", "dwd", "--method", "fwgsc", "--n", "5",
                 "--max-iter", "5", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"problems": [{"name": "logistic", "desnity": 0.3}],
                               "methods": ["fwgsc"]}))
    assert main(["run", str(cfg), "--dry-run"]) == 2


def test_cli_run_and_profile(tmp_path, capsys):
    config = {
        "problems": [{"name": "portfolio", "p": 15, "n": 5, "seed": 3}],
        "methods": ["fwgsc", "asfwgsc"],
        "n_starts": 1,
        "epsilon": 1e-7,
        "max_iter": 80,
        "out_dir": str(tmp_path / "rec"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    assert main(["run", str(cfg), "--dry-run"]) == 0
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "rec" / "profiles.csv").exists()

    out_csv = tmp_path / "prof.csv"
    assert main(["profile", str(tmp_path / "rec"), "--epsilons", "1e-2,1e-5",
                 "--out", str(out_csv)]) == 0
    body = out_csv.read_text().splitlines()
    assert body[0] == "epsilon,method,rho,rho_iter,rho_time"
    assert len(body) == 1 + 2 * 2  # two epsilons x two methods
    # the profile of the reloaded records, on run's default grid, is the one run wrote
    again = tmp_path / "again.csv"
    assert main(["profile", str(tmp_path / "rec"), "--out", str(again)]) == 0
    assert again.read_bytes() == (tmp_path / "rec" / "profiles.csv").read_bytes()


def test_run_and_profile_read_one_default_epsilon_grid(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "DEFAULT_EPSILONS", (1e-1, 1e-3))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"problems": [{"name": "portfolio", "p": 15, "n": 5}],
                               "methods": ["fwgsc"], "max_iter": 20,
                               "out_dir": str(tmp_path / "rec")}))
    assert main(["run", str(cfg)]) == 0
    written = (tmp_path / "rec" / "profiles.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in written[1:]] == ["0.001", "0.1"]
    again = tmp_path / "again.csv"
    assert main(["profile", str(tmp_path / "rec"), "--out", str(again)]) == 0
    assert again.read_text().splitlines() == written


def test_cli_run_exits_3_on_a_direction_whose_squared_norm_underflows(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "problems": [{"name": "logistic", "p": 30, "n": 8, "radius": 1e-300, "seed": 1}],
        "methods": ["lbtfwgsc"], "epsilon": 5e-324, "out_dir": str(tmp_path / "rec")}))
    assert main(["run", str(cfg)]) == 3
    assert "solver failure: zero direction" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["fwgsc", "lbtfwgsc", "mbtfwgsc"])
def test_cli_run_exits_3_without_a_warning_on_a_direction_whose_norm_overflows(tmp_path, method):
    # in a process of its own, so numpy's default warning filter prints what it warns
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"problems": [{"name": "dwd", "u": 1e160}], "methods": [method],
                               "out_dir": str(tmp_path / "rec")}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    out = subprocess.run([sys.executable, "-m", "gscfw.cli", "run", str(cfg)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert "solver failure: direction with ||v||^2 = inf" in out.stderr
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr, out.stderr


def test_cli_run_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problems": [], "methods": ["fwgsc"]}))
    assert main(["run", str(cfg)]) == 2
    missing = tmp_path / "absent.json"
    assert main(["run", str(missing)]) == 2


def test_cli_profile_empty_dir_exit_code(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["profile", str(empty)]) == 2


def _record_file(tmp_path):
    """A directory holding one record file written by ``gscfw trace``."""
    rec = tmp_path / "rec"
    rec.mkdir()
    assert main(["trace", "--problem", "portfolio", "--method", "fwgsc", "--p", "20",
                 "--n", "6", "--seed", "2", "--max-iter", "20",
                 "--out", str(rec / "cell.jsonl")]) == 0
    header, columns = (json.loads(line) for line in (rec / "cell.jsonl").read_text().splitlines())
    assert header["n_iterations"] == 20 and len(columns["k"]) == 20
    return rec / "cell.jsonl"


def _damaged(change):
    """Damage that calls ``change(header, columns)`` on a record given the f*
    estimate that grid records carry, and writes both lines back."""
    def damage(text):
        header, columns = (json.loads(line) for line in text.splitlines())
        header["f_star_estimate"] = -1.0
        change(header, columns)
        return json.dumps(header) + "\n" + json.dumps(columns) + "\n"
    return damage


def _repacked(column, change):
    """A packed float column with its bytes changed by ``change``."""
    return base64.b64encode(change(base64.b64decode(column))).decode()


# a two-row fwgsc record in the one-object-per-row layout that schema 2 replaced
_PER_ROW_RECORD = """\
{"f_star_estimate": -1.0, "final_f": -0.9, "final_gap": 0.01, "method": "fwgsc", \
"n_iterations": 2, "problem": "portfolio-n6-p20-seed2", "start": 0, \
"status": "iteration-cap", "type": "header"}
{"alpha": 0.5, "backtracks": 0, "elapsed": 0.001, "estimate": null, "f": -0.5, "gap": 0.4, \
"k": 0, "kind": "forward", "predicted": 0.1}
{"alpha": 0.25, "backtracks": 0, "elapsed": 0.001, "estimate": null, "f": -0.8, "gap": 0.1, \
"k": 1, "kind": "forward", "predicted": 0.05}
"""


@pytest.mark.parametrize("damage", [
    pytest.param(lambda text: "", id="empty"),
    pytest.param(lambda text: text[:-20], id="truncated-line"),
    pytest.param(_damaged(lambda h, c: h.pop("status")), id="header-without-status"),
    pytest.param(_damaged(lambda h, c: setitem(c, "f", _repacked(c["f"], lambda b: b[:-8]))),
                 id="column-one-short"),
    pytest.param(_damaged(lambda h, c: setitem(c, "gap", _repacked(c["gap"], lambda b: b + b[:8]))),
                 id="column-one-long"),
    pytest.param(_damaged(lambda h, c: c.pop("kind")), id="missing-column"),
    pytest.param(_damaged(lambda h, c: setitem(c, "elapsed", "*" + c["elapsed"][1:])),
                 id="row-elapsed-string"),
    pytest.param(_damaged(lambda h, c: setitem(h, "final_f", "x")), id="header-final_f-string"),
    pytest.param(_damaged(lambda h, c: setitem(c, "f", None)), id="row-f-null"),
    pytest.param(_damaged(lambda h, c: setitem(c, "k", c["f"])), id="packed-k"),
    pytest.param(_damaged(lambda h, c: setitem(c, "kind", c["f"])), id="packed-kind"),
    pytest.param(_damaged(lambda h, c: setitem(c["backtracks"], 2, True)),
                 id="row-backtracks-true"),
    pytest.param(lambda text: text + text.splitlines()[1] + "\n", id="third-line"),
    pytest.param(_damaged(lambda h, c: h.pop("schema")), id="header-without-schema"),
    pytest.param(_damaged(lambda h, c: setitem(h, "schema", 1)), id="header-schema-1"),
    pytest.param(lambda text: _PER_ROW_RECORD, id="per-row-record"),
])
def test_cli_profile_broken_record_file_is_a_config_error(tmp_path, capsys, damage):
    path = _record_file(tmp_path)
    assert main(["profile", str(path.parent)]) == 0
    capsys.readouterr()
    path.write_text(damage(path.read_text()))
    assert main(["profile", str(path.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


@pytest.mark.parametrize("setting", [
    pytest.param({"n_starts": "two"}, id="n_starts"),
    pytest.param({"problems": [{"name": "portfolio", "p": "ten", "n": 5}]}, id="problem-size"),
    pytest.param({"profile_epsilons": "x"}, id="profile_epsilons"),
    pytest.param({"l_init": "x"}, id="l_init-string"),
    pytest.param({"mu_init": "x"}, id="mu_init-string"),
    pytest.param({"sigma_f": -1}, id="sigma_f-negative"),
    pytest.param({"l_init": -2}, id="l_init-negative"),
    pytest.param({"mu_init": 0}, id="mu_init-zero"),
    pytest.param({"mu_init": None}, id="mu_init-null"),
    pytest.param({"l_init": True}, id="l_init-bool"),
    pytest.param({"sigma_f": float("inf")}, id="sigma_f-infinite"),
    pytest.param({"gamma_u": float("inf")}, id="gamma_u-infinite"),
    pytest.param({"epsilon": float("inf")}, id="epsilon-infinite"),
    pytest.param({"out_dir": 5}, id="out_dir-number"),
    pytest.param({"out_dir": None}, id="out_dir-null"),
    pytest.param({"out_dir": ["a"]}, id="out_dir-list"),
    pytest.param({"problems": [{"name": "portfolio", "p": 15, "n": 5}] * 2},
                 id="problem-twice"),
    pytest.param({"problems": [{"name": "portfolio", "p": 15, "n": 5},
                               {"name": "portfolio", "p": 15.0, "n": 5}]},
                 id="problem-twice-as-float"),
    pytest.param({"methods": ["fwgsc", "fw-standard", "fwgsc"]}, id="method-twice"),
    pytest.param({"problems": [{"name": "logistic", "p": 20, "n": 5, "radius": float("inf")}]},
                 id="logistic-radius-infinite"),
    pytest.param({"problems": [{"name": "logistic", "p": 20, "n": 5, "gamma": float("inf")}]},
                 id="logistic-gamma-infinite"),
    pytest.param({"problems": [{"name": "dwd", "p": 10, "d": 3, "q": float("inf")}]},
                 id="dwd-q-infinite"),
    pytest.param({"problems": [{"name": "dwd", "p": 10, "d": 3, "u": float("inf")}]},
                 id="dwd-u-infinite"),
    pytest.param({"problems": [{"name": "dwd", "p": 10, "d": 3, "big_r": float("inf")}]},
                 id="dwd-big_r-infinite"),
    pytest.param({"profile_epsilons": [float("nan")]}, id="profile_epsilons-nan"),
    pytest.param({"profile_epsilons": [1e-2, float("inf")]}, id="profile_epsilons-infinite"),
    pytest.param({"profile_epsilons": [-1e-3]}, id="profile_epsilons-negative"),
    pytest.param({"profile_epsilons": []}, id="profile_epsilons-empty"),
])
def test_cli_run_rejects_mistyped_settings_before_any_cell(tmp_path, capsys, setting):
    out_dir = tmp_path / "rec"
    config = {"problems": [{"name": "portfolio", "p": 15, "n": 5}], "methods": ["fwgsc"],
              "max_iter": 5, "out_dir": str(out_dir), **setting}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--dry-run"]) == 2
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.count("config error:") == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("grid", [
    pytest.param({"problems": [{"name": "portfolio", "p": 15, "n": 5},
                               {"name": "dwd", "p": 10, "d": 3}],
                  "methods": ["fwgsc", "asfwgsc"]}, id="asfwgsc-dwd"),
    pytest.param({"problems": [{"name": "logistic", "p": 20, "n": 5}],
                  "methods": ["fwlloo"]}, id="fwlloo-logistic"),
    pytest.param({"problems": [{"name": "portfolio", "p": 15, "n": 5},
                               {"name": "covariance", "p": 3}],
                  "methods": ["fwlloo"]}, id="fwlloo-covariance"),
])
def test_cli_run_rejects_a_method_off_its_families_before_any_cell(tmp_path, capsys, grid):
    # the portfolio cells come first and would run before the failing cell
    out_dir = tmp_path / "rec"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"max_iter": 5, "out_dir": str(out_dir), **grid}))
    assert main(["run", str(cfg), "--dry-run"]) == 2
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.count("does not run on") == 2
    assert not out_dir.exists()


def test_cli_run_accepts_every_method_on_its_families(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "problems": [{"name": "portfolio", "p": 15, "n": 5}, {"name": "logistic"},
                     {"name": "covariance"}],
        "methods": sorted(set(SOLVERS) - {"fwlloo"}), "out_dir": str(tmp_path / "rec")}))
    assert main(["run", str(cfg), "--dry-run"]) == 0
    cfg.write_text(json.dumps({"problems": [{"name": "portfolio"}], "methods": sorted(SOLVERS),
                               "l_init": None, "sigma_f": None, "mu_init": 0.5}))
    assert main(["run", str(cfg), "--dry-run"]) == 0


def _spec(**keys):
    return {"problems": [{"name": "portfolio", "p": 15, "n": 5, **keys}]}


@pytest.mark.parametrize("setting", [
    pytest.param(_spec(seed=-1), id="spec-seed-negative"),
    pytest.param(_spec(seed=True), id="spec-seed-bool"),
    pytest.param({"seed": -4}, id="grid-seed-negative"),
    pytest.param({"seed": 2.5}, id="grid-seed-fraction"),
    pytest.param({"n_starts": 1.7}, id="n_starts-fraction"),
    pytest.param({"n_starts": True}, id="n_starts-bool"),
    pytest.param({"max_iter": 2.5}, id="max_iter-fraction"),
    pytest.param({"max_iter": True}, id="max_iter-bool"),
    pytest.param(_spec(p=20.7), id="p-fraction"),
    pytest.param(_spec(n=False), id="n-bool"),
    pytest.param({"problems": [{"name": "dwd", "p": 10, "d": 3.5}]}, id="d-fraction"),
    pytest.param({"problems": [{"name": "logistic", "nu_mode": 2.5}]}, id="nu_mode-fraction"),
    pytest.param({"problems": [{"name": "logistic", "nu_mode": True}]}, id="nu_mode-bool"),
])
def test_cli_run_rejects_non_integer_settings_before_any_cell(tmp_path, capsys, setting):
    out_dir = tmp_path / "rec"
    config = {"problems": [{"name": "portfolio", "p": 15, "n": 5}], "methods": ["fwgsc"],
              "max_iter": 5, "out_dir": str(out_dir), **setting}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--dry-run"]) == 2
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.count("config error:") == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("grid", ["nan", "inf", "-1e-3", "1e-2,nan"])
def test_cli_profile_rejects_an_epsilon_grid_run_would_reject(tmp_path, capsys, grid):
    # the records exist, so only the grid can make the exit code 2
    config = {"problems": [{"name": "portfolio", "p": 15, "n": 5}], "methods": ["fwgsc"],
              "max_iter": 5, "out_dir": str(tmp_path / "rec")}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg)]) == 0
    out_csv = tmp_path / "prof.csv"
    assert main(["profile", str(tmp_path / "rec"), f"--epsilons={grid}",
                 "--out", str(out_csv)]) == 2
    assert "config error: the epsilon grid" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cli_profile_stdout_matches_the_csv_file(tmp_path, capsys):
    config = {"problems": [{"name": "portfolio", "p": 15, "n": 5, "seed": 3}],
              "methods": ["fwgsc", "fw-standard"], "epsilon": 1e-7, "max_iter": 80,
              "out_dir": str(tmp_path / "rec")}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg)]) == 0
    out_csv = tmp_path / "prof.csv"
    assert main(["profile", str(tmp_path / "rec"), "--epsilons", "1e-2,1e-5",
                 "--out", str(out_csv)]) == 0
    capsys.readouterr()
    assert main(["profile", str(tmp_path / "rec"), "--epsilons", "1e-2,1e-5"]) == 0
    printed = capsys.readouterr().out
    # the file is written by the csv module (CRLF rows), stdout by print
    assert printed == out_csv.read_bytes().decode().replace("\r\n", "\n")
    lines = printed.splitlines()
    assert lines[0] == "epsilon,method,rho,rho_iter,rho_time"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        eps, method, rho, rho_iter, rho_time = line.split(",")
        assert eps in ("0.01", "1e-05") and method in ("fwgsc", "fw-standard")
        assert all(f == "" or len(f.split(".")[1]) == 6 for f in (rho, rho_iter, rho_time))
