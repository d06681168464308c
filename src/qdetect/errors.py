"""Exception types shared across the package."""


class QDetectError(Exception):
    """Base class for all package errors. Keyword arguments become attributes
    carrying the failing quantities; each subclass lists its own (default None)."""

    def __init__(self, message, **quantities):
        super().__init__(message)
        self.__dict__.update(quantities)


class InvalidModel(QDetectError):
    """A model object violates its construction invariants."""


class UnsupportedParameter(QDetectError):
    """A parameter value is outside the supported range (e.g. alpha = 0)."""


class ImpossibleObservation(QDetectError):
    """An observation has zero likelihood under the current belief."""

    episode = step = belief = observation = None


class ImpossibleAction(QDetectError):
    """An action has zero likelihood under the current belief."""

    episode = step = belief = action = None


class NonConvergence(QDetectError):
    """An iterative solver failed to converge within its budget."""

    last_delta = probes = None


class NumericalFailure(QDetectError):
    """A numerical routine produced non-finite or inconsistent output."""

    residual = None


class RunawayEpisode(QDetectError):
    """An episode passed its step cap without stopping (episode, step_cap)."""

    episode = step_cap = None


class ConfigError(QDetectError):
    """An experiment config file is missing, malformed, or inconsistent."""


class CacheMiss(QDetectError):
    """A required persisted artifact is absent or has a stale config hash."""
