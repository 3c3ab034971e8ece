# tools/ab.py reads each run's unscaled medians from the line run.py prints
# before its JSON report; a change to that line's format must fail here,
# not leave the A/B table without its raw rows. tools/digests.py names the
# columns of a CSV whose digest moved.

from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def tools_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "tools"))


@pytest.fixture
def ab():
    import ab
    return ab


def test_raw_times_parse_run_line(ab):
    stdout = ("perfbench: round 1 sweep_s=0.4210 rows=329d48b3\n"
              "perfbench: raw sweep_s=0.4432 setup_s=0.2517\n"
              '{"correct": true, "metrics": {}}\n')
    assert ab.raw_times(stdout) == {"sweep_s": 0.4432, "setup_s": 0.2517}
    assert ab.raw_times(stdout.replace("raw ", "")) is None
    assert ab.raw_times("") is None


def test_summary_counts_wins_for_lower_is_better(ab):
    line = ab.summary({"name": "sweep_s", "better": "lower"},
                      [0.42, 0.43, 0.41, 0.44], [0.33, 0.35, 0.45, 0.34])
    assert line.split()[0] == "sweep_s"
    assert "3/4" in line and line.split()[-2] == "yes"


def test_differing_columns_names_the_cells_that_moved():
    import digests
    old = ("sweep,value,sinr,mc_sinr,mc_stderr\r\n"
           "L,10,1.5,1.4,0.1\r\nL,10,2.5,2.6,0.2\r\n")
    new = old.replace("1.4,0.1", "1.45,0.1").replace("0.2\r", "0.3\r")
    assert (digests.differing_columns(old, new)
            == "differs only in mc_sinr, mc_stderr")
    assert (digests.differing_columns(old, old.replace("\r\n", "\n"))
            == "differs in bytes only, not in any cell")
    assert (digests.differing_columns(old, old + "L,10,3.5,3.4,0.3\r\n")
            == "differs in row count, 2 against 3")
    assert (digests.differing_columns(old, old.replace("sinr,", "snr,", 1))
            == "differs in its header")
    assert (digests.differing_columns(old, old.replace("0.2", "0.2,9"))
            == "differs only in unnamed column 6")
