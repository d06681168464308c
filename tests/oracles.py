"""Reference pieces that only the tests use: the one-step prediction P' pi,
the observation likelihood sigma(pi, y) written through it, the policy that
stops at once, the Lindblad superoperators in their np.kron form, the
probability-row rule row by row with the stacks it is tried on, the
former per-row normalization of a steady action distribution, and the
former nearest-grid-point rule of Policy.decide."""

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


def row_rule(rows, floor, tol):
    """The probability-row rule, one row at a time: each row's |sum - 1|,
    whether it holds an entry below floor (NaN counts), and whether it
    passes, every entry >= floor and the sum within tol of 1. A row holding
    inf and -inf sums to NaN, here without numpy's RuntimeWarning."""
    with np.errstate(invalid="ignore"):
        residual = np.array([abs(row.sum() - 1.0) for row in rows])
    low = np.array([not (row >= floor).all() for row in rows], dtype=bool)
    return residual, low, ~low & (residual <= tol)


def finalize_distribution(probs):
    """One steady action distribution the former per-row way: its least
    entry not below -1e-12, clipped at 0 and divided by its sum, which must
    be within 1e-9 of 1."""
    assert not probs.min() < -1e-12
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    assert not abs(total - 1.0) > 1e-9
    return probs / total


def nearest_point(points, x):
    """The grid index that Policy.decide read for a policy with no single
    threshold, by its own searchsorted: the cell below x (the first cell at
    or below points[0]), and its upper end only when strictly nearer."""
    lo = np.maximum(np.searchsorted(points, x) - 1, 0)
    hi = np.minimum(lo + 1, points.size - 1)
    return np.where(np.abs(points[hi] - x) < np.abs(points[lo] - x), hi, lo)


@st.composite
def edge_stacks(draw, floor, tol, n_rows=st.integers(0, 5)):
    """Stacks of n_rows rows (0-5 by default) of 1-4 entries at the edges of
    a check that wants entries >= floor and row sums within tol of 1. A row
    sums to 1, to one ulp inside 1 +- tol, or to 1 +- tol and one ulp
    outside it; its last entry may be -0.0, floor, one ulp below floor, NaN
    or +-inf, and in a row of two or more, an infinite last entry makes the
    first the opposite infinity. About a third of the rows fail. A one-row
    stack may come as a 1-D vector."""
    n = draw(st.integers(1, 4))
    inside = [1.0, np.nextafter(1.0 + tol, 0.0), np.nextafter(1.0 - tol, 2.0)]
    outside = [1.0 + tol, np.nextafter(1.0 + tol, 2.0), 1.0 - tol, np.nextafter(1.0 - tol, 0.0)]
    kinds = {"plain": ([None], inside), "sum": ([None], outside),
             "edge": ([floor, -0.0], inside),
             "bad edge": ([np.nextafter(floor, -np.inf), np.nan, np.inf, -np.inf], inside)}
    rows = []
    for _ in range(draw(n_rows)):
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
