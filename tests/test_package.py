"""The package namespace: what `from heisenberg_orbits import *` exports."""

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


def test_all_lists_every_public_name():
    # the import block and __all__ are kept by hand; this keeps them in step
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
