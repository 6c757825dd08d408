"""The package namespace: what `from heisenberg_orbits import *` exports."""

import ast
import importlib
import inspect
import pkgutil
import types

import heisenberg_orbits
from heisenberg_orbits import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_star_import_gives_all():
    namespace = {}
    exec("from heisenberg_orbits import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(heisenberg_orbits.__all__)
    assert len(heisenberg_orbits.__all__) == len(set(heisenberg_orbits.__all__))


def _listing_modules():
    for info in pkgutil.iter_modules(heisenberg_orbits.__path__):
        module = importlib.import_module(f"heisenberg_orbits.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def _top_level_definitions(module):
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_each_name_is_listed_once_where_it_is_defined():
    listed = []
    for module in _listing_modules():
        assert set(module.__all__) <= _top_level_definitions(module), module.__name__
        listed += module.__all__
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(heisenberg_orbits.__all__)


def test_all_lists_every_public_name():
    # the package binds what its modules' __all__ lists give it; no other
    # public name may reach its namespace
    public = {
        name
        for name, value in vars(heisenberg_orbits).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(heisenberg_orbits.__all__) == public


def test_every_package_error_is_exported():
    exported = set(heisenberg_orbits.__all__)
    for cls in [errors.HeisenbergOrbitError, *_subclasses(errors.HeisenbergOrbitError)]:
        assert cls.__name__ in exported
        assert getattr(heisenberg_orbits, cls.__name__) is cls
