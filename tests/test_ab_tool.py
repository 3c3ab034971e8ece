# tools/ab.py reads each run's unscaled medians from the line run.py prints
# before its JSON report; a change to that line's format must fail here,
# not leave the A/B table without its raw rows.

import pytest


@pytest.fixture
def ab(monkeypatch):
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "tools"))
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
