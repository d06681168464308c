"""Exception types shared across the package."""


class QDetectError(Exception):
    """Base class for all package errors."""


class InvalidModel(QDetectError):
    """A model object violates its construction invariants."""


class UnsupportedParameter(QDetectError):
    """A parameter value is outside the supported range (e.g. alpha = 0)."""


class ImpossibleObservation(QDetectError):
    """An observation has zero likelihood under the current belief."""


class ImpossibleAction(QDetectError):
    """An action has zero likelihood under the current belief."""


class NonConvergence(QDetectError):
    """An iterative solver failed to converge within its budget."""

    def __init__(self, message, last_delta=None, probes=None):
        super().__init__(message)
        self.last_delta = last_delta
        self.probes = probes


class NumericalFailure(QDetectError):
    """A numerical routine produced non-finite or inconsistent output."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RunawayEpisode(QDetectError):
    """An episode exceeded its step cap without stopping."""


class ConfigError(QDetectError):
    """An experiment config file is missing, malformed, or inconsistent."""


class CacheMiss(QDetectError):
    """A required persisted artifact is absent or has a stale config hash."""
