"""Source hygiene: every imported name is used, importing the program
stays cheap, only ``meta._Child`` forks, and every defaulted parameter is
passed somewhere. No linter ships with the project, so these scans stand
in for one."""

import ast
import math
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


# Top-level functions and classes that nothing in ``src/`` refers to, each
# kept for a reason outside the program.
UNREFERENCED_ALLOWED = {
    "state_distance": "acceptance oracle for the block-distance loss",
    "grad_check": "acceptance oracle for the gradients",
    "select_action": "called and patched by perfbench",
    "squared_error_loss": "called by perfbench",
}


def unreferenced_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each top-level function or class in ``trees``
    whose name no module reads, as a variable or as an attribute."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        f"{module}:{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used)


def program_trees() -> dict[str, ast.Module]:
    """Each module under ``src/``, keyed by its path there."""
    return {str(p.relative_to(ROOT / "src")): ast.parse(p.read_text())
            for p in sorted((ROOT / "src").rglob("*.py"))}


def test_every_definition_is_referenced_or_allowed():
    flagged = {entry.split(":")[1]
               for entry in unreferenced_definitions(program_trees())}
    assert flagged == set(UNREFERENCED_ALLOWED)


def test_scan_finds_an_unreferenced_definition():
    trees = {"a.py": ast.parse("def f():\n    return g()\n\n"
                               "def g():\n    pass\n\nclass C:\n    pass\n"),
             "b.py": ast.parse("import a\na.C\n")}
    assert unreferenced_definitions(trees) == ["a.py:f"]


def forks_outside_the_child(trees: dict[str, ast.Module]) -> list[str]:
    """``module:line`` of each ``os.fork`` reference, or import of ``fork``
    from ``os``, outside the ``_Child`` class of ``gridlight/meta.py``."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if (module == "gridlight/meta.py"
                    and isinstance(top, ast.ClassDef)
                    and top.name == "_Child"):
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "fork"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"
                        or isinstance(node, ast.ImportFrom)
                        and node.module == "os"
                        and any(a.name == "fork" for a in node.names)):
                    found.append(f"{module}:{node.lineno}")
    return found


def test_only_the_child_class_forks():
    """Every child process comes from ``meta._Child``, so each one is reaped
    and runs BLAS on one thread, as ``tests/conftest.py`` checks."""
    assert forks_outside_the_child(program_trees()) == []


def test_scan_finds_a_fork_outside_the_child():
    trees = {"gridlight/meta.py": ast.parse(
                 "import os\nclass _Child:\n    def f(self):\n"
                 "        os.fork()\n\ndef g():\n    return os.fork()\n"),
             "gridlight/x.py": ast.parse("from os import fork\n")}
    assert forks_outside_the_child(trees) == ["gridlight/meta.py:7",
                                              "gridlight/x.py:1"]


# The simulator's per-tick and per-interval methods, and the lane lists
# whose every lane they must not visit: they walk the lanes that can act.
SIM_HOT_METHODS = ("step", "_tick", "movement_queues")
SIM_FULL_LANE_LISTS = ("_approach_lanes", "_all_lanes", "_entry_lanes")


def full_lane_loops(trees: dict[str, ast.Module]) -> list[str]:
    """``method:line`` of each loop or comprehension in ``Sim``'s
    ``SIM_HOT_METHODS`` of ``gridlight/sim/engine.py`` whose iterable reads
    one of ``SIM_FULL_LANE_LISTS``."""
    found = []
    tree = trees.get("gridlight/sim/engine.py", ast.Module(body=[]))
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "Sim"):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef)
                    and fn.name in SIM_HOT_METHODS):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.For, ast.comprehension)) and any(
                        isinstance(n, ast.Attribute)
                        and n.attr in SIM_FULL_LANE_LISTS
                        for n in ast.walk(node.iter)):
                    found.append(f"{fn.name}:{node.iter.lineno}")
    return found


def test_sim_steps_and_queue_reads_visit_no_full_lane_list():
    """Each step of a tick, interval end and queue-window read costs in
    proportion to the lanes that can act, not to the lanes there are."""
    assert full_lane_loops(program_trees()) == []


def test_scan_finds_a_loop_over_every_lane():
    trees = {"gridlight/sim/engine.py": ast.parse(
        "class Sim:\n"
        "    def step(self):\n"
        "        for lane in self._approach_lanes:\n            pass\n"
        "    def movement_queues(self):\n"
        "        return {ln: 0 for ln in chain(self._all_lanes, x)}\n"
        "    def observe_all(self):\n"
        "        return [ln for ln in self._approach_lanes]\n"
        "class Other:\n"
        "    def _tick(self):\n"
        "        for lane in self._entry_lanes:\n            pass\n")}
    assert full_lane_loops(trees) == ["step:3", "movement_queues:6"]


# Defaulted parameters that no call passes, each kept for a reason.
UNPASSED_ALLOWED = {
    "saturated_city(episode_s)":
        "every DESK_CITIES builder takes the same arguments",
}


def unpassed_parameters(defs: dict[str, ast.Module],
                        calls: list[ast.Module]) -> list[str]:
    """``module:function(parameter)`` of each defaulted parameter of a
    function in ``defs`` that no call in ``calls`` passes, by keyword or by
    position. Calls match by name alone: ``f(...)`` and ``x.f(...)`` count
    for every function named ``f``, and a call of a class's name for its
    ``__init__``. A call with ``*`` or ``**`` passes every parameter, and a
    leading ``self`` or ``cls`` takes no position."""
    positions: dict[str, float] = {}
    keywords: dict[str, set] = {}
    for tree in calls:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            positions[name] = max(positions.get(name, 0),
                                  math.inf if starred else len(node.args))
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords)
    found = []
    for module, tree in defs.items():
        inits = {id(f): c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body
                 if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = inits.get(id(fn), fn.name)
            params = fn.args.posonlyargs + fn.args.args
            if params and params[0].arg in ("self", "cls"):
                params = params[1:]
            first = len(params) - len(fn.args.defaults)
            defaulted = [p for i, p in enumerate(params)
                         if first <= i and positions.get(name, 0) <= i]
            defaulted += [p for p, d in zip(fn.args.kwonlyargs,
                                            fn.args.kw_defaults)
                          if d is not None and positions.get(name) != math.inf]
            found += [f"{module}:{name}({p.arg})" for p in defaulted
                      if p.arg not in keywords.get(name, ())]
    return sorted(found)


def test_every_defaulted_parameter_is_passed_or_allowed():
    calls = [ast.parse(p.read_text()) for p in
             SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))]
    flagged = {entry.split(":")[1]
               for entry in unpassed_parameters(program_trees(), calls)}
    assert flagged == set(UNPASSED_ALLOWED)


def test_scan_finds_an_unpassed_parameter():
    defs = {"a.py": ast.parse(
        "def f(x, y=1, z=2, *, k=3, j=4):\n    pass\n\n"
        "def g(x=1, *, k=2):\n    pass\n\n"
        "class C:\n    def __init__(self, u=1, v=2):\n        pass\n\n"
        "    def m(self, w=1):\n        pass\n")}
    calls = [ast.parse("f(0, 1)\nf(0, k=4)\ng(*args)\nC(5)\nc.m(w=2)\n")]
    assert unpassed_parameters(defs, calls) == [
        "a.py:C(v)", "a.py:f(j)", "a.py:f(z)"]
