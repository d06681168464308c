"""Reference pieces that only the tests use: the one-step prediction P' pi,
the observation likelihood sigma(pi, y) written through it, the policy
that stops at once, and the closed-form steady state at the certain
beliefs."""

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


def closed_form_vertices(frame, params):
    """Gamma(e_x) for each state x, shaped (n_states, n_actions), from the
    closed form of the steady state (proof step 2 in qdetect.quantum): with
    kappa = alpha^2 / (alpha^2 + (1 - alpha)^2 A^2), k = 1 - 2 (1 - kappa) / A
    and g = (1 - phi) k / (1 - phi k) (0 at phi = 1),
    Gamma(e_x) = 1/A + g (pi_x - 1/A), where pi_x is the logit choice
    p(a | x) proportional to u(a | x)^lam, replaced by its mean over the
    states at phi = 0."""
    A = frame.n_actions
    alpha, phi = params.alpha, params.phi
    kappa = alpha**2 / (alpha**2 + (1.0 - alpha) ** 2 * A**2)
    k = 1.0 - 2.0 * (1.0 - kappa) / A
    g = 0.0 if phi == 1.0 else (1.0 - phi) * k / (1.0 - phi * k)
    logits = params.lam * np.log(frame.utility.T)         # (n_states, A)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    choice = w / w.sum(axis=1, keepdims=True)
    if phi == 0.0:
        choice = np.broadcast_to(choice.mean(axis=0), choice.shape)
    return 1.0 / A + g * (choice - 1.0 / A)
