import ast
import importlib
import types
from pathlib import Path

import curvedirac

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
