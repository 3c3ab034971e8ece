# The traced benchmark run wraps simcf functions by name (TARGETS in
# perfbench/tracing.py) and only prints "trace target missing" for a name
# that is gone. Read that table without importing perfbench and check that
# every entry still resolves, so a rename fails here instead; and run one
# short traced round end to end.

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    """The (span, module, attribute) tuples of TARGETS."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    missing = []
    for _, module, path in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def test_traced_run_prints_its_metrics():
    # the traced run reads the objects the wrapped functions return and
    # prints its metrics as JSON; a result it cannot count must not make
    # that line fail
    run = subprocess.run(
        [sys.executable, str(TRACING.parent / "run.py"), "--workload",
         "fig3-closed-form", "--seed", "1", "--trace", "1", "--seconds",
         "0.5"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
