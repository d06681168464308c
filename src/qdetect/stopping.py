"""Bayesian quickest-detection solver on a discretized belief grid.

The detector watches belief pi(1) in the changed state and each step either
stops (u = 1) or continues (u = 2). Stopping before the change costs f,
every step after the change costs d. Value iteration solves

    V(pi) = min( f (1 - pi),  d pi + E[ V(T_bar(pi, a)) ] )

with expectations under the one-step action (or observation) likelihoods and
V read off the grid by linear interpolation. Ties break toward stopping.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModel, NonConvergence
from .protocol import BeliefGrid, _transitions, grid_interp, grid_slopes, grid_stencil

# Default stopping rule of every Bellman loop: sup-norm change and sweep budget.
VI_TOL = 1e-8
MAX_ITER = 10000


@dataclass(frozen=True)
class ValueTable:
    """Optimal (or fixed-policy) expected cost at each point of its grid."""

    grid: BeliefGrid
    values: np.ndarray
    sweeps: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.grid.size,):
            raise InvalidModel(f"values have shape {self.values.shape}, not ({self.grid.size},)")
        if not np.all(np.isfinite(self.values)):
            raise InvalidModel("values must be finite")


@dataclass(frozen=True)
class Policy:
    """Stop/continue decision u at each grid point. u is the whole rule: the
    threshold and crossing count are derived from it by extract_threshold."""

    grid: BeliefGrid
    u: np.ndarray
    threshold: float | None = field(init=False)
    crossings: int = field(init=False)

    def __post_init__(self):
        u = np.asarray(self.u)
        if u.shape != (self.grid.size,):
            raise InvalidModel(f"decisions have shape {u.shape}, not ({self.grid.size},)")
        if not np.all((u == 1) | (u == 2)):         # before the int cast truncates 1.5 to 1
            raise InvalidModel("decisions must be 1 (stop) or 2 (continue)")
        object.__setattr__(self, "u", u.astype(int))
        threshold, crossings = extract_threshold(self.grid.points, self.u)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "crossings", crossings)

    def decide(self, pi1):
        """Decision at arbitrary beliefs, elementwise over an array of pi(1):
        by threshold when one exists, otherwise the nearest grid point's
        decision, a tie going to the lower grid index."""
        x = np.asarray(pi1, dtype=float)
        if self.threshold is not None:
            u = np.where(x >= self.threshold - 1e-12, 1, 2)
        else:
            pts = self.grid.points
            lo = np.maximum(np.searchsorted(pts, x) - 1, 0)
            hi = np.minimum(lo + 1, pts.size - 1)
            u = self.u[np.where(np.abs(pts[hi] - x) < np.abs(pts[lo] - x), hi, lo)]
        return int(u) if u.ndim == 0 else u


def _action_transitions(kernel, change):
    """_transitions for the actions of the kernel."""
    return _transitions(kernel.grid.points, kernel.table[0].T, kernel.table[1].T, change.p)


def _iterate(grid, transitions, costs, tol, max_iter, stop_mask=None):
    """Bellman sweeps on the grid until the sup-norm change is <= tol.
    Without a stop mask the policy is the greedy one; with a mask it is
    fixed, stopping exactly where the mask is set. Returns the value table
    and the greedy policy against it.

    The posteriors do not move between sweeps, so their grid_stencil is
    taken once; each sweep takes V's slopes into one buffer and reads V at
    every posterior through grid_interp, np.interp's numbers to the bit."""
    t1, weights = transitions
    points = grid.points
    stencil = grid_stencil(points, t1)
    dx, slopes = np.diff(points), np.empty_like(points)
    stop_cost = costs.f * (1.0 - points)
    delay_cost = costs.d * points

    def continuation(V):
        terms = grid_interp(V, grid_slopes(V, dx, slopes), stencil)
        terms *= weights
        return delay_cost + sum(terms)              # the rows add in evidence order from 0

    fixed = stop_mask is not None
    V = np.where(stop_mask, stop_cost, 0.0) if fixed else np.zeros_like(points)
    delta = np.inf
    for sweep in range(1, max_iter + 1):
        cont = continuation(V)
        Vn = np.where(stop_mask, stop_cost, cont) if fixed else np.minimum(stop_cost, cont)
        delta = np.abs(Vn - V).max()
        V = Vn
        if delta <= tol:
            break
    else:
        raise NonConvergence(f"{'policy evaluation' if fixed else 'value iteration'} missed "
                             f"tolerance {tol} after {max_iter} sweeps", last_delta=float(delta))
    cont = continuation(V)
    return (
        ValueTable(grid=grid, values=V, sweeps=sweep),
        Policy(grid=grid, u=np.where(stop_cost <= cont, 1, 2)),
    )


def value_iteration(kernel, change, costs, tol=VI_TOL, max_iter=MAX_ITER):
    """Solve the detector's stopping problem on the kernel's grid.

    Returns the value table and the greedy policy with its threshold.
    """
    return _iterate(kernel.grid, _action_transitions(kernel, change), costs, tol, max_iter)


def classical_value_iteration(change, obs, costs, grid, tol=VI_TOL, max_iter=MAX_ITER):
    """Reference solver for a detector that sees the observations directly:
    the same iteration with the observation likelihoods B in place of R."""
    transitions = _transitions(grid.points, obs.B[0][:, None], obs.B[1][:, None], change.p)
    return _iterate(grid, transitions, costs, tol, max_iter)


def extract_threshold(points, u):
    """Smallest grid point with u = 1 when the stop set is an upper interval.

    Returns (threshold, crossing_count); threshold is None when the policy
    never stops or the stop set is not a single upper interval.
    """
    u = np.asarray(u, dtype=int)
    crossings = int(np.count_nonzero(u[1:] != u[:-1]))
    stop_idx = np.flatnonzero(u == 1)
    if stop_idx.size == 0:
        return None, crossings
    if crossings == 0 or (crossings == 1 and u[-1] == 1):
        return float(points[stop_idx[0]]), crossings
    return None, crossings


def evaluate_policy(kernel, change, costs, policy, tol=VI_TOL, max_iter=MAX_ITER):
    """Expected cost of a fixed policy on the kernel's grid.

    Stop points carry exactly f (1 - pi); continuation points take the
    one-step expectation under the same transitions as value_iteration.
    """
    grid = kernel.grid
    return _iterate(grid, _action_transitions(kernel, change), costs, tol, max_iter,
                    stop_mask=policy.decide(grid.points) == 1)[0]
