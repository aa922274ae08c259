"""Import checks that need a fresh interpreter, so that no other test's
imports or caches enter them.

Re-importing the package frees the old module copies.  A module-level alias
that subscripts ``typing`` with a library class (for example
``Union[SomeClass, ...]``) puts that class into ``typing``'s global caches,
and through the class its whole module stays alive after the package is
dropped from ``sys.modules``.

The expression layer (``qreider.expr``) stands below the statement parser: it
loads no ``qreider.document``, ``qreider.report`` or ``qreider.cli``.  The PLC
thresholds (``qreider.plc``) stand beside the criteria: from the library they
import ``qreider.lattice`` alone, and ``qreider.criteria`` defines none of
their names.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_PATH = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, CHILD_PATH))}

CHILD = r"""
import gc, importlib, json, pkgutil, sys, weakref

def import_all():
    package = importlib.import_module("qreider")
    names = ["qreider"] + [f"qreider.{m.name}" for m in pkgutil.iter_modules(package.__path__)]
    return [importlib.import_module(name) for name in names]

refs = [
    (f"{module.__name__}.{cls.__qualname__}", weakref.ref(cls))
    for module in import_all()
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__
]
for name in [k for k in sys.modules if k == "qreider" or k.startswith("qreider.")]:
    del sys.modules[name]
import_all()
gc.collect()
print(json.dumps({"classes": len(refs), "alive": [name for name, ref in refs if ref() is not None]}))
"""


def test_reimport_leaves_no_class_of_the_old_modules_alive():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=CHILD_ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["classes"] > 40
    assert result["alive"] == []


def test_the_expression_layer_loads_no_statement_parser_report_or_cli():
    code = "import json, sys, qreider.expr; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "qreider.expr" in loaded
    assert not loaded & {"qreider.document", "qreider.report", "qreider.cli"}


def _library_imports(path: Path) -> set[str]:
    """The ``qreider`` modules that a source file's import statements name, relative ones included."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "qreider" + (f".{node.module}" if node.module else "") if node.level else node.module
            names += [module] if module != "qreider" else [f"qreider.{alias.name}" for alias in node.names]
    return {name.removeprefix("qreider.").split(".")[0] for name in names if name.split(".")[0] == "qreider"}


def test_the_plc_thresholds_import_only_the_lattice():
    assert _library_imports(ROOT / "src" / "qreider" / "plc.py") == {"lattice"}


def test_criteria_defines_no_plc_threshold_name_and_no_jets():
    from qreider import criteria

    gone = ("plc_threshold", "LocalConfig", "LocalCurveData", "ThresholdResult", "ThresholdMode")
    gone += ("PLCContextWarning", "jet_separation")
    assert [name for name in gone if hasattr(criteria, name)] == []
