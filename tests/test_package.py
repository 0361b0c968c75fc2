"""The package namespace: each module's `__all__` is the one list of its
public names, and `artifact` re-exports all of them."""

from __future__ import annotations

import inspect

import artifact
from artifact import analytic, bandit, errors, experiments, ids, solver

MODULES = (bandit, errors, solver, ids, analytic, experiments)


def test_all_is_the_sorted_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert artifact.__all__ == sorted(names)


def test_every_exported_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(artifact, name) is getattr(module, name), name


def test_errors_lists_every_exception_class():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj)
        and issubclass(obj, errors.BanditError)
        and obj.__module__ == errors.__name__
    }
    assert set(errors.__all__) == defined
