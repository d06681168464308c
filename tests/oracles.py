"""Reference pieces that only the tests use: the one-step prediction P' pi,
the observation likelihood sigma(pi, y) written through it, the policy that
stops at once, the Lindblad superoperators in their np.kron form, and the
per-row verdicts of the belief and probability checks with the stacks they
are tried on."""

import math

import numpy as np
from hypothesis import strategies as st

from qdetect import Policy, hamiltonian

# how far from 1 Generator.choice lets the sum of p be
SQRT_EPS = np.sqrt(np.finfo(float).eps)


def predict(change, pi):
    """One-step prior P' pi over the next state."""
    pi = np.asarray(pi, dtype=float)
    return np.array([pi[0] + change.p * pi[1], (1.0 - change.p) * pi[1]])


def observation_likelihood(pi, y, change, obs):
    """sigma(pi, y): marginal likelihood of observation y one step ahead."""
    return float(obs.B[:, y - 1] @ predict(change, pi))


def always_stop_policy(grid):
    return Policy(grid=grid, u=np.ones(grid.size, dtype=int))


def kron_dissipator(gamma):
    """The jump dissipator's superoperator with its anticommutator term as
    two Kronecker products over the whole matrix."""
    d = gamma.shape[0]
    g = gamma.sum(axis=0)
    S = np.zeros((d * d, d * d))
    idx = np.arange(d) * (d + 1)
    S[np.ix_(idx, idx)] = gamma
    S -= 0.5 * (np.kron(np.diag(g), np.eye(d)) + np.kron(np.eye(d), np.diag(g)))
    return S


def kron_coherent(frame, alpha):
    """-i(1-alpha)[H, .] on row-major vectorized operators, by np.kron."""
    H, eye = hamiltonian(frame), np.eye(frame.dim)
    return -1j * (1.0 - alpha) * (np.kron(H, eye) - np.kron(eye, H.T))


def belief_rows_ok(rows):
    """check_belief's rule, row by row: entries >= -1e-12 and a sum within
    1e-12 of 1."""
    return (rows >= -1e-12).all(axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)


def probability_rows_residual(probs):
    """|sum - 1| of each row, and Generator.choice's verdict on it: entries
    >= 0 and the sum within sqrt(eps) of 1."""
    residual = np.abs(probs.sum(axis=1) - 1.0)
    return residual, (probs >= 0).all(axis=1) & (residual <= SQRT_EPS)


@st.composite
def edge_stacks(draw, floor, tol):
    """Stacks of 0-5 rows of 1-4 entries at the edges of a check that wants
    entries >= floor and row sums within tol of 1. A row sums to 1, to one
    ulp inside 1 +- tol, or to 1 +- tol and one ulp outside it; its last
    entry may be -0.0, floor, one ulp below floor, NaN or +-inf. About a
    third of the rows fail. A one-row stack may come as a 1-D vector."""
    n = draw(st.integers(1, 4))
    inside = [1.0, np.nextafter(1.0 + tol, 0.0), np.nextafter(1.0 - tol, 2.0)]
    outside = [1.0 + tol, np.nextafter(1.0 + tol, 2.0), 1.0 - tol, np.nextafter(1.0 - tol, 0.0)]
    kinds = {"plain": ([None], inside), "sum": ([None], outside),
             "edge": ([floor, -0.0], inside),
             "bad edge": ([np.nextafter(floor, -np.inf), np.nan, np.inf, -np.inf], inside)}
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        edges, sums = kinds[draw(st.sampled_from(["plain", "plain", "sum", "edge", "bad edge"]))]
        edge, target = draw(st.sampled_from(edges)), draw(st.sampled_from(sums))
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        row = w / w.sum()
        if edge is not None:
            row[-1] = edge
        if n > 1 or edge is None:               # the first entry brings the sum to target
            row[0] = target - math.fsum(row[1:])
        rows.append(row)
    stack = np.array(rows, dtype=float).reshape(-1, n)
    return stack[0] if len(rows) == 1 and draw(st.booleans()) else stack
