"""Blackwell-style comparisons between action channels.

An action channel here is the family of steady-state action distributions a
detector faces, one distribution per observation, indexed by the public
belief. A channel dominates another when a single row-stochastic garbling
matrix M maps its distributions onto the other's for every observation at
once. This module finds such matrices, checks the convex-interpolation
properties the comparisons rely on, and turns kernel mismatch into the
KL-based robustness bound used by the sensitivity harness.
"""

import functools
import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidModel
from .protocol import _channel_family, build_action_kernel, build_mismatched_kernel
from .quantum import PsychParams
from .stopping import MAX_ITER, VI_TOL, evaluate_policy, value_iteration


def linprog(*args, **kwargs):
    """``scipy.optimize.milp``, imported on first call. With its default
    integrality (every variable continuous) milp hands HiGHS the LP that
    ``linprog(method="highs")`` builds from the same stacked rows and bounds,
    through one validation pass instead of linprog's option checks. The rows
    come as a ``csc_array`` filled into _lp_template's layout, which is the
    layout milp would make of the dense rows, so HiGHS gets the same model.
    It keeps the name linprog: the benchmark counts LP calls, and tests patch
    solver failures, through this module attribute. scipy.optimize takes
    about a quarter second to import, and only the LP path needs it."""
    from scipy.optimize import milp

    return milp(*args, **kwargs)


@dataclass(frozen=True)
class KLBoundReport:
    """Per-grid-point check of the mismatch robustness bound."""

    K: float
    distance: float
    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def worst_slack(self):
        return float(np.min(self.rhs - self.lhs))


@dataclass(frozen=True)
class BetweennessReport:
    checks: int
    violations: int
    worst_margin: float


def best_transform(gamma_hat, gamma, eps=None):
    """Row-stochastic M minimizing the worst-entry residual of
    gamma_hat @ M = gamma. Returns (M, residual).

    With eps given, clear-cut cases at A=2 are settled by a least-squares
    shortcut whose feasible/infeasible verdict relative to eps is exact (the
    residual it reports is then an upper bound on the true minimum, on the
    correct side of eps). All other cases go through an LP minimizing the
    maximum residual subject to stochasticity.
    """
    ghat = np.atleast_2d(np.asarray(gamma_hat, dtype=float))
    g = np.atleast_2d(np.asarray(gamma, dtype=float))
    if ghat.shape != g.shape:
        raise InvalidModel(
            f"channel families must share shape, got {ghat.shape} vs {g.shape}"
        )
    m, A = ghat.shape
    if A == 2 and eps is not None:
        got = _transform_two_actions(ghat, g, eps)
        if got is not None:
            return got
    return _transform_linprog(ghat, g)


def _transform_two_actions(ghat, g, eps):
    # M = [[m1, 1-m1], [m2, 1-m2]]; matching the first column suffices.
    c = g[:, 0]
    sol, res2, rank, _ = np.linalg.lstsq(ghat, c, rcond=None)
    mvec = np.clip(sol, 0.0, 1.0)
    err = ghat @ mvec - c
    resid = float(np.abs(err).max())
    M = np.column_stack([mvec, 1.0 - mvec])
    if resid <= eps:
        return M, resid
    if rank == ghat.shape[1] and res2.size:
        # unconstrained L2 residual lower-bounds the constrained minimax:
        # t* >= ||e||_inf >= ||e||_2 / sqrt(m) for any feasible point
        lower = float(np.sqrt(res2[0] / ghat.shape[0]))
        if lower > eps:
            return M, resid
    return None


@functools.lru_cache(maxsize=None)
def _lp_template(m, A):
    """The garbling LP of every m x A family pair, less its numbers: variables
    M (row-major, M[j, k] at j*A + k) then t; per y and k the + then the -
    residual row, -inf <= +/-(ghat M - g)[y, k] - t <= +/-g[y, k]; then the A
    row sums of M, equal to 1. The matrix has the layout csc_array gives the
    dense stacked rows: column j*A + k holds +ghat[y, j] and -ghat[y, j] in
    rows 2(yA + k) and 2(yA + k) + 1 for each y, then 1 in row 2mA + j; the
    t column holds -1 in each of the 2mA residual rows.

    Returns (cost, bounds, lower, data, indices, indptr, plus, gather): data
    with zeros in the ghat slots, the positions plus of the +ghat slots (each
    -ghat slot is the next one) and their gather index into ghat.ravel().
    Every array is read-only: the template is shared by every LP of its
    shape."""
    from scipy.optimize import Bounds

    R, cols, per = 2 * m * A, A * A, 2 * m + 1
    j, k = np.divmod(np.arange(cols), A)
    y = np.arange(m)
    rows = 2 * (y * A + k[:, None])                    # (cols, m): the + rows
    block = np.empty((cols, per), dtype=int)
    block[:, 0:-1:2] = rows
    block[:, 1:-1:2] = rows + 1
    block[:, -1] = R + j
    values = np.zeros((cols, per))
    values[:, -1] = 1.0
    cost = np.zeros(cols + 1)
    cost[-1] = 1.0
    bounds = Bounds(0.0, np.append(np.ones(cols), np.inf))     # 0 <= M <= 1, t >= 0
    arrays = (
        np.append(np.full(R, -np.inf), np.ones(A)),
        np.append(values.ravel(), np.full(R, -1.0)),
        np.append(block.ravel(), np.arange(R)).astype(np.int32),
        np.append(np.arange(cols + 1) * per, cols * per + R).astype(np.int32),
        (np.arange(cols)[:, None] * per + 2 * y).ravel(),
        (y * A + j[:, None]).ravel(),
    )
    for array in (cost, bounds.lb, bounds.ub, *arrays):
        array.flags.writeable = False
    return (cost, bounds, *arrays)


def _transform_linprog(ghat, g):
    from scipy.optimize import LinearConstraint
    from scipy.sparse import csc_array

    m, A = ghat.shape
    cost, bounds, lower, data, indices, indptr, plus, gather = _lp_template(m, A)
    R = 2 * m * A
    # fill the shape's template: +/-ghat into a copy of its data, and the
    # residual rows' upper bounds +/-g interleaved, one pair per (y, k)
    vals = ghat.ravel()[gather]
    data = data.copy()
    data[plus] = vals
    data[plus + 1] = -vals
    if not vals.all():
        # csc_array of the dense rows stores no zero, -0.0 included
        keep = data != 0.0
        data, indices = data[keep], indices[keep]
        # a column now starts after the entries kept before its old start
        indptr = np.cumsum(np.append(False, keep), dtype=np.int32)[indptr]
    hi = np.empty(R + A)
    hi[0:R:2] = g.ravel()
    hi[1:R:2] = -g.ravel()
    hi[R:] = 1.0
    res = linprog(
        cost,
        constraints=LinearConstraint(
            csc_array((data, indices, indptr), shape=(R + A, cost.size)), lower, hi),
        bounds=bounds,
    )
    if not res.success:
        raise InvalidModel(f"transform search failed: {res.message}")
    M = res.x[:-1].reshape(A, A)
    resid = float(np.abs(ghat @ M - g).max())
    return M, resid


def _mix_params(p1, p2, eps):
    return PsychParams(
        alpha=eps * p1.alpha + (1.0 - eps) * p2.alpha,
        lam=eps * p1.lam + (1.0 - eps) * p2.lam,
        phi=eps * p1.phi + (1.0 - eps) * p2.phi,
    )


def interpolation_betweenness_check(
    frame,
    p1,
    p2,
    change,
    obs,
    eps_values=None,
    pi_values=None,
    tol=1e-6,
):
    """Check that steady action distributions interpolate between endpoints.

    For p3 = eps*p1 + (1-eps)*p2, every component of Gamma_{y,3}^pi must lie
    in the closed interval spanned by the endpoint values, within tol.
    """
    if eps_values is None:
        eps_values = np.linspace(0.1, 0.9, 9)
    if pi_values is None:
        pi_values = np.linspace(0.0, 1.0, 11)
    fam1 = _channel_family(frame, p1, change, obs, pi_values)
    fam2 = _channel_family(frame, p2, change, obs, pi_values)
    lo = np.minimum(fam1, fam2)
    hi = np.maximum(fam1, fam2)
    checks = 0
    violations = 0
    worst = np.inf
    for eps in np.asarray(eps_values, dtype=float):
        fam3 = _channel_family(frame, _mix_params(p1, p2, eps), change, obs, pi_values)
        margin = np.minimum(fam3 - lo, hi - fam3)
        checks += margin.size
        violations += int(np.count_nonzero(margin < -tol))
        worst = min(worst, float(margin.min()))
    return BetweennessReport(checks=checks, violations=violations, worst_margin=worst)


def model_distance(kernel, kernel_hat, change):
    """sqrt(2) sup_pi max_i sum_j P_ij sqrt(KL(R_j,pi || R_hat_j,pi)).

    KL uses 0 log 0 = 0; a zero in R_hat where R is positive makes the
    distance infinite.
    """
    if kernel.grid != kernel_hat.grid or kernel.table.shape != kernel_hat.table.shape:
        raise InvalidModel("kernels must share grid and action set")
    R = kernel.table
    Rh = kernel_hat.table
    if np.any((R > 0) & (Rh == 0)):
        return float("inf")
    ratio = np.where(R > 0, R / np.where(Rh > 0, Rh, 1.0), 1.0)
    kl = np.sum(R * np.log(ratio), axis=2)                 # (2, npts)
    kl = np.maximum(kl, 0.0)
    root = np.sqrt(kl)
    P = change.P
    inner = P @ root                                       # (2, npts), rows i
    return float(np.sqrt(2.0) * inner.max())


def sensitivity_bound_check(
    frame,
    params_true,
    mixture,
    change,
    obs,
    costs,
    grid,
    tol=VI_TOL,
    max_iter=MAX_ITER,
):
    """Robustness bound for running the mismatched-model policy on the truth.

    lhs = cost of the policy optimized against the mixture kernel, evaluated
    under the true kernel; rhs = true optimal cost + 2 K distance with
    K = max(f, d) / p.
    """
    kernel = build_action_kernel(frame, params_true, change, obs, grid)
    kernel_hat = build_mismatched_kernel(frame, mixture, change, obs, grid)
    V_true, _ = value_iteration(kernel, change, costs, tol=tol, max_iter=max_iter)
    _, pol_hat = value_iteration(kernel_hat, change, costs, tol=tol, max_iter=max_iter)
    lhs = evaluate_policy(kernel, change, costs, pol_hat, tol=tol, max_iter=max_iter)
    distance = model_distance(kernel, kernel_hat, change)
    K = max(costs.f, costs.d) / change.p
    rhs = V_true.values + 2.0 * K * distance
    return KLBoundReport(
        K=K, distance=distance, points=grid.points, lhs=lhs.values, rhs=rhs
    )


def box_grid(alpha, lam, phi, points_per_axis):
    """Cartesian sample of a parameter box, points_per_axis per axis."""
    axes = [
        np.linspace(lo, hi, points_per_axis) if hi > lo else np.array([lo])
        for lo, hi in (alpha, lam, phi)
    ]
    pts = []
    for a in axes[0]:
        for l in axes[1]:
            for ph in axes[2]:
                pts.append(PsychParams(alpha=float(a), lam=float(l), phi=float(ph)))
    return pts


@dataclass(frozen=True)
class ScanRow:
    """One (ref point, test point, direction) record from a region scan."""

    ref: PsychParams
    test: PsychParams
    direction: str            # "ref_to_test" or "test_to_ref"
    certified: bool
    residual: float           # worst over sampled beliefs of the best transform
    worst_V_margin: float     # min over grid of V(garbled) - V(source)


def _row_verdict(src_fam, dst_fam, eps):
    """Worst residual of one pair direction, from 0.0: a garbling search at
    every sampled belief, in belief order."""
    return float(max([0.0] + [best_transform(src, dst, eps=eps)[1]
                              for src, dst in zip(src_fam, dst_fam)]))


def _map_rows(src_fams, dst_fams, eps):
    """_row_verdict over the rows, in order, on one forked worker per CPU this
    process may run on; serially in this process on one CPU or without
    os.sched_getaffinity. A worker's exception is raised here."""
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)), len(src_fams)) if affinity else 1
    if workers < 2:
        return list(map(_row_verdict, src_fams, dst_fams, repeat(eps)))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the forked workers inherit the loaded module, so the milp import inside
    # the linprog forwarder is a lookup in each of them, not a quarter second
    import scipy.optimize  # noqa: F401

    # fork, not spawn: a spawned worker would import numpy and scipy anew and
    # would not see a patched dominance.linprog. The executor forks every
    # worker before it starts its own manager thread.
    context = multiprocessing.get_context("fork")
    chunk = math.ceil(len(src_fams) / (4 * workers))
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(_row_verdict, src_fams, dst_fams, repeat(eps),
                             chunksize=chunk))


# a box's tag from the certified flags of its own directions and the other box's
def _tag(own, other):
    return "dominating" if all(own) else "dominated" if all(other) else "unresolved"


def region_scan(
    frame,
    ref_points,
    test_points,
    change,
    obs,
    costs,
    grid,
    pi_samples=11,
    eps=1e-6,
    tol=VI_TOL,
    max_iter=MAX_ITER,
):
    """Pairwise dominance scan between two sampled parameter regions.

    For every (ref, test) pair and both directions, looks for a shared
    garbling matrix at each sampled belief; a direction is certified when
    every belief admits one. Certified directions also record the value
    ordering margin (garbled side should cost at least as much everywhere).

    The channel families, kernels and value functions are built here, in
    order. The garbling searches of each pair direction are one job; the jobs
    run on one forked worker process per CPU this process may use (serially
    here when that is one, e.g. under ``taskset -c 0``). Every search has the
    same inputs either way, so the rows are the same to the bit.

    Returns (tags, rows): the ref box's and the test box's tag (see _tag),
    and the pair records, ref-major with ref_to_test before test_to_ref.
    """
    pi_values = np.linspace(0.0, 1.0, pi_samples)

    def prep(points):
        out = []
        for p in points:
            fam = _channel_family(frame, p, change, obs, pi_values)
            kernel = build_action_kernel(frame, p, change, obs, grid)
            V, _ = value_iteration(kernel, change, costs, tol=tol, max_iter=max_iter)
            out.append((p, fam, V.values))
        return out

    ref_data, test_data = prep(ref_points), prep(test_points)
    jobs = [
        (p_ref, p_test, direction, src_fam, dst_fam, V_src, V_dst)
        for p_ref, fam_ref, V_ref in ref_data
        for p_test, fam_test, V_test in test_data
        for direction, src_fam, dst_fam, V_src, V_dst in (
            ("ref_to_test", fam_ref, fam_test, V_ref, V_test),
            ("test_to_ref", fam_test, fam_ref, V_test, V_ref),
        )
    ]
    verdicts = _map_rows([j[3] for j in jobs], [j[4] for j in jobs], eps)
    rows = [
        ScanRow(ref=p_ref, test=p_test, direction=direction, certified=worst <= eps,
                residual=worst, worst_V_margin=float(np.min(V_dst - V_src)))
        for (p_ref, p_test, direction, _, _, V_src, V_dst), worst in zip(jobs, verdicts)
    ]
    fwd = [r.certified for r in rows if r.direction == "ref_to_test"]
    bwd = [r.certified for r in rows if r.direction == "test_to_ref"]
    return (_tag(fwd, bwd), _tag(bwd, fwd)), rows
