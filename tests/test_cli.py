import json
import subprocess
import sys
from pathlib import Path

import pytest

from simcf import cli

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


def test_threads_option_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["run", "--spec", str(tmp_path / "spec.json"),
                  "--threads", "2"])
