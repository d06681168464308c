"""Exception types shared across the package. Each type carries the exit code
and the stderr tag that the command line reports it with."""


class QDetectError(Exception):
    """Base class for all package errors. Keyword arguments become attributes
    carrying the failing quantities; each subclass lists its own (default None).
    A config or model error exits 2, tagged "config"."""

    exit_code, tag = 2, "config"

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

    exit_code, tag = 3, "numerical"
    last_delta = rate = None


class NumericalFailure(QDetectError):
    """A numerical routine produced non-finite or inconsistent output."""

    exit_code, tag = 3, "numerical"
    residual = None


class RunawayEpisode(QDetectError):
    """An episode passed its step cap without stopping (episode, step_cap)."""

    exit_code, tag = 3, "numerical"
    episode = step_cap = None


class ConfigError(QDetectError):
    """An experiment config file is missing, malformed, or inconsistent."""


class CacheMiss(QDetectError):
    """A required persisted artifact is absent or has a stale config hash."""

    exit_code, tag = 4, "cache-miss"
