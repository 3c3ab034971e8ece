# tools/probe_profile.py times each stage of a probe block by wrapping the
# functions of the probe chain by name. Run it with one repetition and check
# that every stage line prints a time and a max no smaller, so a rename of
# a wrapped function fails here (the way test_perfbench_targets guards the
# traced run).

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "probe_profile.py"
STAGE_LINES = ("cascade", "block statistics", "block parts", "sinr + se",
               "commit", "improve", "probe block (ms)")


def test_probe_profile_prints_every_stage():
    run = subprocess.run([sys.executable, str(TOOL), "--seed", "1",
                          "--reps", "1"], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    times = {}
    for line in run.stdout.splitlines():
        found = re.fullmatch(r"(\S.*?)\s+(\d[\d.e+-]*)\s+(\d[\d.e+-]*)",
                             line)
        if found:
            times[found.group(1)] = float(found.group(2))
            assert float(found.group(3)) >= times[found.group(1)], line
    assert set(STAGE_LINES) <= set(times), run.stdout
    assert all(times[label] > 0 for label in STAGE_LINES), run.stdout
