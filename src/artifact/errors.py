"""Exception types shared across the library."""

__all__ = [
    "BanditError",
    "ZeroLikelihood",
    "IterationLimit",
    "DegenerateTheta",
    "DegenerateRatio",
    "NoBoundary",
    "MultipleBoundaries",
    "InsufficientSamples",
    "InvalidManifest",
]


class BanditError(Exception):
    """Base class for every library-specific failure."""


class ZeroLikelihood(BanditError):
    """A Bayes update was conditioned on an observation of probability zero."""


class IterationLimit(BanditError):
    """An iterative solver exhausted its sweep budget before reaching tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DegenerateTheta(BanditError):
    """A closed-form expression is singular at the requested win probability."""


class DegenerateRatio(BanditError):
    """Information ratio of the form x/0 with x > 0; the caller must fall back
    to the guarded (greedy) path instead of evaluating the ratio."""


class NoBoundary(BanditError):
    """The policy never switches preferred action along the belief grid."""


class MultipleBoundaries(BanditError):
    """The policy switches preferred action more than once along the grid."""


class InsufficientSamples(BanditError):
    """Too few data points for the requested fit."""


class InvalidManifest(BanditError):
    """A sweep manifest failed validation."""
