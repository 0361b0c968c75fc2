"""The package namespace: each module's `__all__` is the one list of its
public names, and `artifact` re-exports all of them, looked up on first
use."""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_each_library_rule_is_stated_once():
    # the belief, mixture-weight, alpha and theta rules and the certificate
    # check each have one owner; a restatement would be free to drift
    source = "".join(p.read_text() for p in Path(artifact.__file__).parent.glob("*.py"))
    for text in (
        "beta must lie in [-1, 1]",
        "q must lie in [0, 1]",
        "alpha must lie in [0, 1]",
        "theta must lie strictly between 1/2 and 1",
        "exceeds tol=",
    ):
        assert source.count(text) == 1, text


def callers_of(*names):
    """Per name, the functions of the package that call it, as
    module.function, with nested functions joined by dots."""
    callers = {name: set() for name in names}

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in callers:
                callers[name].add(".".join(self.scope))
            self.generic_visit(node)

    for path in Path(artifact.__file__).parent.glob("*.py"):
        Visitor(path.stem).visit(ast.parse(path.read_text()))
    return callers


def test_the_certified_optimum_has_one_owner():
    # policy iteration and its certificate run together in one function,
    # which the CLI and the sweeps call; a second caller would be free to
    # drop the certificate or read the cached optimum without it
    for name, found in callers_of("policy_iteration", "certify_optimal").items():
        assert len(found) == 1, (name, sorted(found))
    assert callers_of("_policy_optimum") == {"_policy_optimum": {"solver._optimal_solve"}}


def test_the_regret_has_one_owner():
    # V_mdp - v is formed in regret_curve alone, which the CLI, the sweep
    # rows and regret_bound read; a second formula would be free to round
    # differently between nodes
    assert callers_of("mdp_value") == {"mdp_value": {"solver.regret_curve"}}


def run_fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_lazy_module_is_an_attribute_after_its_import():
    # `import artifact.experiments` finds the module waiting in sys.modules
    # and binds nothing itself; the package must already hold it
    code = "import artifact.experiments\nprint(artifact.experiments.run_manifest.__name__)"
    assert run_fresh(code) == "run_manifest\n"


def test_star_import_binds_exactly_all():
    code = (
        "import json\nns = {}\nexec('from artifact import *', ns)\n"
        "print(json.dumps(sorted(set(ns) - {'__builtins__'})))"
    )
    assert json.loads(run_fresh(code)) == artifact.__all__


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        artifact.no_such_name
    assert not hasattr(artifact, "read_value_csv")
