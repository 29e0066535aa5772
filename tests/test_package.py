import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import curvedirac

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
# every demo but 06, the convergence study (about 8 s on its own)
SMOKE_DEMOS = sorted(p.name for p in DEMOS.glob("*.py") if not p.name.startswith("06_"))


def test_exported_names_resolve_and_are_not_modules():
    names = curvedirac.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(curvedirac, name)
        assert not isinstance(obj, types.ModuleType), name


def test_installed_numpy_meets_the_declared_floor():
    # the explicit step's in-place transforms need np.fft.fft(..., out=)
    def version(text):
        return tuple(int(part) for part in re.match(r"\d+(?:\.\d+)*", text).group().split("."))

    floor = re.search(r'"numpy>=([^"]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    assert version(floor) >= (2, 0)
    assert version(np.__version__) >= version(floor)


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


def test_readme_module_references_resolve():
    # every `module.name` in the README whose module is a package submodule
    # names an attribute of that submodule; file names such as `harness.py`
    # are not references
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", text)
    checked = 0
    for module, name in refs:
        if name == "py" or importlib.util.find_spec(f"curvedirac.{module}") is None:
            continue
        assert hasattr(importlib.import_module(f"curvedirac.{module}"), name), f"{module}.{name}"
        checked += 1
    assert checked


@pytest.mark.parametrize("name", SMOKE_DEMOS)
def test_demo_runs(name):
    # run, not only parsed: a changed signature or return value fails here
    src = str(Path(curvedirac.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
