# Module boundaries inside simcf: no module imports or reads a private
# (underscore-prefixed) name of another simcf module. Tests are exempt;
# their oracles reach into private helpers on purpose.

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "simcf"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_uses(source):
    """(line, use) for every private name of another simcf module that
    source imports or reads."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "simcf")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "simcf"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"import {alias.name}"))
                if node.module in (None, "simcf"):   # from . import se
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and _dotted(node.value) in modules):
            found.append((node.lineno, _dotted(node)))
    return sorted(found)


def test_checker_flags_private_imports_and_reads():
    source = ("from . import se\n"
              "from .montecarlo import _TrialSampler, uatf_monte_carlo\n"
              "import simcf.experiments as ex\n"
              "x = se._coherent_coeffs(se.SinrTerms, ex._drop_seed)\n"
              "y = se.__name__, self._own\n")
    assert private_uses(source) == [(2, "import _TrialSampler"),
                                    (4, "ex._drop_seed"),
                                    (4, "se._coherent_coeffs")]


def test_no_module_uses_another_modules_private_names():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if (uses := private_uses(path.read_text()))}
    assert found == {}
