"""Reference pieces that only the tests use: the one-step prediction P' pi,
the observation likelihood sigma(pi, y) written through it, the policy that
stops at once, the Lindblad superoperators in their np.kron form, the
probability-row rule row by row with the stacks it is tried on, the
former per-row normalization of a steady action distribution, the former
nearest-grid-point rule of Policy.decide, the former scalar least-squares
shortcut with the every-belief and the per-row pruned verdicts of a
region-scan row built on it, and the exact Blackwell order of two A = 2
opponents."""

import math

import numpy as np
from hypothesis import strategies as st

from qdetect import Policy, dominance, hamiltonian

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


def two_action_shortcut(ghat, g):
    """best_transform's least-squares shortcut for one A = 2 pair, the former
    scalar way: (M, residual) when it settles the pair against GARBLING_TOL,
    else None."""
    # M = [[m1, 1-m1], [m2, 1-m2]]; matching the first column suffices.
    c = g[:, 0]
    sol, res2, rank, _ = np.linalg.lstsq(ghat, c, rcond=None)
    mvec = np.clip(sol, 0.0, 1.0)
    err = ghat @ mvec - c
    resid = float(np.abs(err).max())
    M = np.column_stack([mvec, 1.0 - mvec])
    if resid <= dominance.GARBLING_TOL:
        return M, resid
    if rank == ghat.shape[1] and res2.size:
        # unconstrained L2 residual lower-bounds the constrained minimax:
        # t* >= ||e||_inf >= ||e||_2 / sqrt(m) for any feasible point
        lower = float(np.sqrt(res2[0] / ghat.shape[0]))
        if lower > dominance.GARBLING_TOL:
            return M, resid
    return None


def every_belief_verdict(src_fam, dst_fam):
    """A region-scan row's worst residual the former way: best_transform's
    rule at every sampled belief, in belief order, from 0.0, with the scalar
    shortcut in place of the stacked one."""
    worst = 0.0
    for src, dst in zip(src_fam, dst_fam):
        got = two_action_shortcut(src, dst) if src.shape[-1] == 2 else None
        worst = max(worst, (got or dominance._transform_linprog(src, dst))[1])
    return worst


def pruned_row_verdict(src_fam, dst_fam):
    """A region-scan row's (worst, LP count) the former per-row way: the
    scalar shortcut at each belief in belief order, then _minimax_bounds over
    the unsettled beliefs of this row alone, and their LPs in descending
    bound until none can reach the running worst."""
    worst, rest, lps = 0.0, [], 0
    for k, (src, dst) in enumerate(zip(src_fam, dst_fam)):
        got = two_action_shortcut(src, dst) if src.shape[-1] == 2 else None
        if got is None:
            rest.append(k)
        else:
            worst = max(worst, got[1])
    bounds = (dominance._minimax_bounds(src_fam[rest], dst_fam[rest]) if src_fam.shape[-1] == 2
              else np.full(len(rest), np.inf))
    for u, k in sorted(zip(bounds, rest), key=lambda pair: -pair[0]):
        if u + dominance.PRUNE_MARGIN < worst:
            break
        worst = max(worst, dominance._transform_linprog(src_fam[k], dst_fam[k])[1])
        lps += 1
    return worst, lps


def vertex_order(V, V2):
    """Whether the n = 2, A = 2 vertex matrix V garbles into V2, exactly, and
    the slack of that verdict: (garbles, slack).

    A row-stochastic M = [[m1, 1 - m1], [m2, 1 - m2]] maps V onto V2 exactly
    when the affine f(t) = m2 + t (m1 - m2) takes q = V[:, 0] onto r =
    V2[:, 0], and f(0) = m2, f(1) = m1 must lie in [0, 1]. If q[0] != q[1],
    f is the line through (q[0], r[0]) and (q[1], r[1]); it garbles when f(0)
    and f(1) are in [0, 1], with slack their least distance from 0 and 1. If
    not, with v the farthest either lies outside and d = |q[0] - q[1]|, no
    stochastic M has a worst-entry residual below the slack v d / (d + 2): a
    line within e of both points moves f(0) and f(1) by at most e (1 + 2 / d).
    If q[0] == q[1], V garbles into V2 exactly when r[0] == r[1] (slack inf),
    and otherwise no residual is below the slack |r[0] - r[1]| / 2."""
    q, r = V[:, 0], V2[:, 0]
    d = abs(q[0] - q[1])
    if d == 0.0:
        spread = float(abs(r[0] - r[1]))
        return spread == 0.0, math.inf if spread == 0.0 else spread / 2.0
    s = (r[0] - r[1]) / (q[0] - q[1])
    ends = np.array([r[0] - s * q[0], r[0] + s * (1.0 - q[0])])    # f(0), f(1)
    inside = float(np.minimum(ends, 1.0 - ends).min())
    return (True, inside) if inside >= 0.0 else (False, -inside * d / (d + 2.0))


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
