"""Re-importing the package frees the old module copies.

A module-level alias that subscripts ``typing`` with a library class (for
example ``Union[SomeClass, ...]``) puts that class into ``typing``'s global
caches, and through the class its whole module stays alive after the package
is dropped from ``sys.modules``.  The check runs in a fresh interpreter, so no
other test's imports or caches enter it.
"""

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
