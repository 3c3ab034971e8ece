import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from simcf import cli, estimation, experiments

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import simcf; "
         "assert 'scipy' not in sys.modules, sorted(sys.modules)",
         str(SRC)],
        check=True)


def test_validate_passes(capsys):
    assert cli.main(["validate", "--trials", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS ") for line in lines)


def test_log_level_option(capsys, monkeypatch):
    # the pilot covariance conditioning check runs only at DEBUG
    enabled = []
    check = estimation._monitor_conditioning

    def spy(psi):
        enabled.append(estimation.log.isEnabledFor(logging.DEBUG))
        return check(psi)

    monkeypatch.setattr(estimation, "_monitor_conditioning", spy)
    package_log = logging.getLogger("simcf")
    level = package_log.level
    try:
        assert cli.main(["validate", "--trials", "2000"]) == 0
        assert enabled and not any(enabled)
        enabled.clear()
        assert cli.main(["validate", "--trials", "2000",
                         "--log-level", "DEBUG"]) == 0
        assert enabled and all(enabled)
    finally:
        package_log.setLevel(level)
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--log-level", "TRACE"])
    assert exc.value.code == 2
    assert "--log-level" in capsys.readouterr().err


def test_validate_rejects_zero_trials(capsys):
    # one trial has no standard error either: no |z| can be formed
    for trials in ("0", "1"):
        assert cli.main(["validate", "--trials", trials]) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["type"] == "ValueError"


def test_negative_seed_is_a_spec_error(tmp_path, capsys):
    assert cli.main(["table1", "--drops", "1", "--seed", "-1",
                     "--out-dir", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["type"] == "ExperimentError" and "seed" in record["error"]


def test_run_writes_rows(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "sweep": "L", "values": [2], "n_drops": 1, "seed": 5,
        "base": {"K": 3, "U": 2, "M": 2, "N": 9, "tau_p": 2}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--spec", str(spec), "--out-dir", str(out)]) == 0
    rows = (out / "rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 2          # header + K UEs x 2 decoders
    assert "0 failed drops" in capsys.readouterr().out


def test_run_prints_traceback_of_a_bug(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(experiments, "generate_drop", broken)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sweep": "L", "values": [2], "n_drops": 1,
                                "base": {"K": 3, "U": 2, "M": 2, "N": 9,
                                         "tau_p": 2}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--spec", str(spec), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: a bug" in err
    assert json.loads(err.splitlines()[-1]) == {"error": "a bug",
                                                "type": "TypeError"}


def test_threads_option_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["run", "--spec", str(tmp_path / "spec.json"),
                  "--threads", "2"])
