import types

import curvedirac


def test_exported_names_resolve_and_are_not_modules():
    names = curvedirac.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(curvedirac, name)
        assert not isinstance(obj, types.ModuleType), name
