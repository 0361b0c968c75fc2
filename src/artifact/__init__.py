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
"""

from . import bandit, errors, solver, ids, analytic, experiments
from .bandit import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .ids import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (bandit, errors, solver, ids, analytic, experiments)
    for name in module.__all__
)
