# The traced benchmark run wraps simcf functions by name (TARGETS in
# perfbench/tracing.py) and only prints "trace target missing" for a name
# that is gone. Read that table without importing perfbench and check that
# every entry still resolves, so a rename fails here instead.

import ast
import importlib
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
