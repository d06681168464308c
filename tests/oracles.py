"""Reference pieces that only the tests use: the one-step prediction P' pi,
the observation likelihood sigma(pi, y) written through it, and the policy
that stops at once."""

import numpy as np

from qdetect import Policy


def predict(change, pi):
    """One-step prior P' pi over the next state."""
    pi = np.asarray(pi, dtype=float)
    return np.array([pi[0] + change.p * pi[1], (1.0 - change.p) * pi[1]])


def observation_likelihood(pi, y, change, obs):
    """sigma(pi, y): marginal likelihood of observation y one step ahead."""
    return float(obs.B[:, y - 1] @ predict(change, pi))


def always_stop_policy(grid):
    return Policy(grid=grid, u=np.ones(grid.size, dtype=int))
