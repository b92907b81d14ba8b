"""Source hygiene: every imported name is used, and importing the program
stays cheap. No linter ships with the project, so this scan stands in for
one."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.workloads import PROGRAM_MODULES

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never references. A name listed in
    ``__all__`` counts as referenced (it is re-exported)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for line, name in sorted((line, name)
                                     for name, line in imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\n"
                     "from a import b, c\n__all__ = ['c']\nprint(os)\n")
    assert unused_imports(tree) == ["line 2: system", "line 3: b"]


# Standard-library packages the program must not load on import:
# ``concurrent.futures`` alone pulls in ``logging`` and costs several
# milliseconds, a noticeable share of the benchmark's setup time.
HEAVY_MODULES = ("multiprocessing", "concurrent.futures", "logging")


def test_program_import_loads_no_heavy_modules():
    code = ("import importlib, sys\n"
            f"for name in {sorted(PROGRAM_MODULES.values())!r}:\n"
            "    importlib.import_module(name)\n"
            f"print([m for m in {HEAVY_MODULES!r} if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src",
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
