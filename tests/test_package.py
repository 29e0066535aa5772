import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import curvedirac

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# every demo but 06, the convergence study (about 8 s on its own)
SMOKE_DEMOS = sorted(p.name for p in DEMOS.glob("*.py") if not p.name.startswith("06_"))


def test_exported_names_resolve_and_are_not_modules():
    names = curvedirac.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(curvedirac, name)
        assert not isinstance(obj, types.ModuleType), name


def test_demo_imports_resolve():
    # parsed, not run: every name a demo imports from the package must exist,
    # and names taken from the package root must be exported there
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module != "curvedirac" and not node.module.startswith("curvedirac."):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                where = f"{path.name}: {node.module}.{alias.name}"
                assert hasattr(module, alias.name), where
                if module is curvedirac:
                    assert alias.name in curvedirac.__all__, where


@pytest.mark.parametrize("name", SMOKE_DEMOS)
def test_demo_runs(name):
    # run, not only parsed: a changed signature or return value fails here
    src = str(Path(curvedirac.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
