"""Discounted two-armed Bernoulli bandit with a hidden binary state.

The package solves the belief-state control problem exactly on a grid,
implements information-directed action selection with a tunable
regret/information trade-off, checks both against closed-form solutions
on the symmetric and one-informative-arm subclasses, and runs the
parameter sweeps behind the headline comparisons.

Modules:

- ``bandit``: model primitives (beliefs, updates, entropy, information).
- ``errors``: the library's exception types, all subclasses of ``BanditError``.
- ``solver``: grid discretization, certified policy iteration (the
  optimal solver), value iteration, and policy evaluation.
- ``ids``: information-directed policies and their regret guarantees.
- ``analytic``: closed-form values, exponents, and expansion fits.
- ``experiments``: deterministic sweeps driven by JSON manifests.
- ``io``: CSV and JSON writers for the CLI and sweeps (not re-exported).
- ``cli``: the ``artifact`` command.

Every name in the ``__all__`` of the first six modules is importable from
``artifact`` itself; those lists are the only place its names are written.

``import artifact`` executes none of them.  A name is looked up on first
use (PEP 562), importing the modules it needs.  ``ids``, ``analytic`` and
``experiments`` are bound here and placed in ``sys.modules`` unexecuted,
and run on their first attribute access, so a command that never calls
them never pays for compiling and running them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the library modules in lookup order; the last three run on first use
_MODULES = ("bandit", "errors", "solver", "ids", "analytic", "experiments")


def _lazy(name):
    """The submodule `name`, registered in sys.modules but not executed."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ids, analytic, experiments = (_lazy(name) for name in _MODULES[3:])


def _submodule(name):
    """The submodule `name`, imported by __import__ rather than
    importlib.import_module, so that `-X importtime` lists it."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _MODULES[:3] or name in ("io", "cli"):
        # a submodule not imported yet: `from . import io` asks for it here
        return _submodule(name)
    # in order, so that a name of bandit, errors or solver runs no lazy module
    modules = (_submodule(m) for m in _MODULES)
    if name == "__all__":
        return sorted(n for module in modules for n in module.__all__)
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
