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
import itertools
import os

import numpy as np

from ._record import record
from .errors import InvalidModel
from .protocol import _channel_family, build_action_kernel, build_mismatched_kernel
from .quantum import ActionMap, PsychParams
from .stopping import MAX_ITER, VI_TOL, evaluate_policy, value_iteration

GARBLING_TOL = 1e-6             # a garbling certifies at this worst-entry residual
PRUNE_MARGIN = 1e-6             # HiGHS's residual may exceed the LP optimum by this much
ROW_CHUNK = 16                  # region-scan rows per _row_verdicts pass


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


@record
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


@record
class BetweennessReport:
    """Result of interpolation_betweenness_check: components checked, how many
    fell outside their endpoint interval by more than 1e-6, and the worst margin."""

    checks: int
    violations: int
    worst_margin: float


def best_transform(gamma_hat, gamma):
    """Row-stochastic M for gamma_hat @ M = gamma and its worst-entry
    residual. Returns (M, residual).

    Clear-cut cases at A=2 are settled by a least-squares shortcut whose
    verdict relative to GARBLING_TOL is exact (the residual it reports is then
    an upper bound on the true minimum, on the same side of GARBLING_TOL).
    All other cases go through an LP minimizing the maximum residual subject
    to stochasticity.
    """
    ghat = np.atleast_2d(np.asarray(gamma_hat, dtype=float))
    g = np.atleast_2d(np.asarray(gamma, dtype=float))
    if ghat.shape != g.shape:
        raise InvalidModel(
            f"channel families must share shape, got {ghat.shape} vs {g.shape}"
        )
    if ghat.shape[1] == 2:
        M, resid, settled = _transform_two_actions(ghat[None], g[None])
        if settled[0]:
            return M[0], float(resid[0])
    return _transform_linprog(ghat, g)


def _transform_two_actions(ghat, g):
    """The least-squares shortcut for a stack of A = 2 family pairs, shaped
    (K, m, 2): returns (M, resid, settled), M shaped (K, 2, 2). Each pair's
    M is its least-squares fit clipped to [0, 1], resid that M's worst-entry
    residual, and settled whether the fit decides the pair against
    GARBLING_TOL on its own: resid is within it, or no stochastic M comes
    within it. A settled resid is then on the LP optimum's side of
    GARBLING_TOL. Each pair gets its own lstsq; the rest runs once over the
    stack, and np.matmul gives every pair's residual the bits of ghat @ M."""
    # M = [[m1, 1-m1], [m2, 1-m2]]; matching the first column suffices.
    K, m, A = ghat.shape
    c = g[..., 0]
    sol, res2 = np.empty((K, A)), np.full(K, np.nan)
    for k in range(K):
        sol[k], r2, rank, _ = np.linalg.lstsq(ghat[k], c[k], rcond=None)
        if rank == A and r2.size:
            res2[k] = r2[0]
    mvec = np.clip(sol, 0.0, 1.0)
    resid = np.abs(np.matmul(ghat, mvec[..., None])[..., 0] - c).max(axis=1)
    # unconstrained L2 residual lower-bounds the constrained minimax:
    # t* >= ||e||_inf >= ||e||_2 / sqrt(m) for any feasible point (NaN, and
    # no bound, where lstsq gives no residual)
    lower = np.sqrt(res2 / m)
    settled = (resid <= GARBLING_TOL) | (lower > GARBLING_TOL)
    return np.stack([mvec, 1.0 - mvec], axis=-1), resid, settled


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


def _minimax_bounds(ghat, g):
    """Upper bounds on the garbling LP's optimum for a stack of A = 2 family
    pairs, shaped (K, m, 2): for each, the least worst-entry residual of a
    row-stochastic M = [[m1, 1 - m1], [m2, 1 - m2]] at the LP's vertex
    candidates, (m1, m2) clipped to [0, 1].

    With b = m2 and s = m1 - m2, row y's residual r_y = ghat[y] @ (m1, m2) -
    g[y, 0] is b + s ghat[y, 0] - g[y, 0] while the row sums to 1: the LP is a
    Chebyshev fit of a line to the points (ghat[y, 0], g[y, 0]) with both of
    its ends, b and b + s, in [0, 1]. Its optimum sits at a vertex of
    {(m1, m2, t): |r_y| <= t, 0 <= m1, m2 <= 1}, where three of those
    constraints hold with equality; without t, that is where two of the lines
    r_y = 0, r_y = r_z, r_y = -r_z (y < z) and m1, m2 in {0, 1} cross, and
    every crossing is a candidate. So the least residual over them is the
    LP's optimum up to rounding, and each candidate's residual, over both
    columns, is that of a feasible M: an upper bound however they round."""
    K, m, _ = ghat.shape
    c = g[..., 0]
    y, z = np.triu_indices(m, 1)
    box_normal = np.broadcast_to([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], (K, 4, 2))
    box_level = np.broadcast_to([0.0, 1.0, 0.0, 1.0], (K, 4))
    normal = np.concatenate(
        [ghat, ghat[:, y] - ghat[:, z], ghat[:, y] + ghat[:, z], box_normal], axis=1)
    level = np.concatenate([c, c[:, y] - c[:, z], c[:, y] + c[:, z], box_level], axis=1)
    i, j = np.triu_indices(normal.shape[1], 1)
    p, q, hp, hq = normal[:, i], normal[:, j], level[:, i], level[:, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Cramer's rule; parallel lines give NaN, skipped below, or an inf
        # that the clip takes to a box end
        det = p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
        x = np.stack([hp * q[..., 1] - p[..., 1] * hq,
                      p[..., 0] * hq - hp * q[..., 0]], axis=-1) / det[..., None]
    x = np.clip(x, 0.0, 1.0)                # (K, pairs, 2): column 0 of M
    rows = ghat.transpose(0, 2, 1)
    resid = np.maximum(np.abs(x @ rows - c[:, None]),
                       np.abs((1.0 - x) @ rows - g[:, None, :, 1])).max(axis=-1)
    return np.fmin.reduce(resid, axis=1)


def _mix_params(p1, p2, eps):
    return PsychParams(
        alpha=eps * p1.alpha + (1.0 - eps) * p2.alpha,
        lam=eps * p1.lam + (1.0 - eps) * p2.lam,
        phi=eps * p1.phi + (1.0 - eps) * p2.phi,
    )


def interpolation_betweenness_check(frame, p1, p2, change, obs):
    """Check that steady action distributions interpolate between endpoints.

    For p3 = eps*p1 + (1-eps)*p2 at eps = 0.1, 0.2, ..., 0.9, every component
    of Gamma_{y,3}^pi at pi(1) = 0, 0.1, ..., 1 must lie in the closed
    interval spanned by the endpoint values, within tol = 1e-6.
    """
    eps_values, pi_values, tol = np.linspace(0.1, 0.9, 9), np.linspace(0.0, 1.0, 11), 1e-6
    fam1, fam2, *mixed = (_channel_family(ActionMap(frame, p), change, obs, pi_values)
                          for p in (p1, p2, *(_mix_params(p1, p2, eps) for eps in eps_values)))
    lo, hi = np.minimum(fam1, fam2), np.maximum(fam1, fam2)
    margins = np.stack([np.minimum(fam3 - lo, hi - fam3) for fam3 in mixed])
    return BetweennessReport(checks=margins.size, violations=int(np.count_nonzero(margins < -tol)),
                             worst_margin=float(margins.min()))


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


def sensitivity_bound_check(frame, params_true, mixture, change, obs, costs, grid, tol=VI_TOL,
                            max_iter=MAX_ITER):
    """Robustness bound for running the mismatched-model policy on the truth.

    lhs = cost of the policy optimized against the mixture kernel, evaluated
    under the true kernel; rhs = true optimal cost + 2 K distance with
    K = max(f, d) / p.
    """
    kernel = build_action_kernel(ActionMap(frame, params_true), change, obs, grid)
    kernel_hat = build_mismatched_kernel(frame, mixture, change, obs, grid)
    V_true, _ = value_iteration(kernel, change, costs, tol=tol, max_iter=max_iter)
    _, pol_hat = value_iteration(kernel_hat, change, costs, tol=tol, max_iter=max_iter)
    lhs = evaluate_policy(kernel, change, costs, pol_hat, tol=tol, max_iter=max_iter)
    distance = model_distance(kernel, kernel_hat, change)
    K = max(costs.f, costs.d) / change.p
    rhs = V_true.values + 2.0 * K * distance
    return KLBoundReport(K=K, distance=distance, points=grid.points, lhs=lhs.values, rhs=rhs)


def box_grid(alpha, lam, phi, points_per_axis):
    """Cartesian sample of a parameter box, points_per_axis >= 1 per axis,
    each axis a (lo, hi) pair with lo <= hi."""
    if points_per_axis < 1:
        raise InvalidModel(f"points_per_axis must be >= 1, got {points_per_axis}")
    for axis, (lo, hi) in zip(("alpha", "lambda", "phi"), (alpha, lam, phi)):
        if lo > hi:
            raise InvalidModel(f"{axis} needs lo <= hi, got {lo!r}:{hi!r}")
    axes = [np.linspace(lo, hi, points_per_axis) if hi > lo else np.array([lo])
            for lo, hi in (alpha, lam, phi)]
    return [PsychParams(alpha=float(a), lam=float(l), phi=float(ph))
            for a, l, ph in itertools.product(*axes)]


@record
class ScanRow:
    """One (ref point, test point, direction) record from a region scan."""

    ref: PsychParams
    test: PsychParams
    direction: str            # "ref_to_test" or "test_to_ref"
    certified: bool
    residual: float           # worst over sampled beliefs of the best transform
    worst_V_margin: float     # min over grid of V(garbled) - V(source)
    lp_calls: int             # garbling LPs run to find residual


def _row_verdicts(src_fams, dst_fams):
    """(worst, lp_calls) for each row of a list of pair directions whose
    (K, m, A) families share one shape: the row's worst residual, from 0.0,
    over its sampled beliefs, the largest residual best_transform would give
    at any of them, and the number of LPs run to find it.

    At A = 2 every belief of every row first gets the least-squares shortcut,
    in one pass over the stack, and each residual it settles enters its row's
    worst (it may lie far above the LP optimum, so it is never skipped). The
    other beliefs get _minimax_bounds' u_k, an upper bound on their LP
    optimum, also in one pass. Each row then runs its LPs in descending u_k;
    belief k is skipped once u_k + PRUNE_MARGIN < worst, the largest residual
    the row has computed so far, and so are all after it. PRUNE_MARGIN = 1e-6
    is ten times HiGHS's default 1e-7 feasibility tolerances; its residual
    exceeded the exact optimum by at most 4.8e-8 over 4000 random 3 x 2
    pairs and 4000 within 1e-5 of a garbling. So a skipped LP would have
    given less than worst, and the max, every bit of it, is the every-belief
    one. At A != 2 there is no bound (u_k = inf) and every LP runs, in
    belief order. Each row's verdict is the same whatever rows share its
    list."""
    src, dst = np.stack(src_fams), np.stack(dst_fams)
    R, K, m, A = src.shape
    bounds = np.full((R, K), np.inf)
    if A == 2:
        _, resid, settled = _transform_two_actions(src.reshape(-1, m, A), dst.reshape(-1, m, A))
        resid, settled = resid.reshape(R, K), settled.reshape(R, K)
        worst = np.where(settled, resid, 0.0).max(axis=1)
        bounds[~settled] = _minimax_bounds(src[~settled], dst[~settled])
    else:
        settled, worst = np.zeros((R, K), dtype=bool), np.zeros(R)
    verdicts = []
    for r in range(R):
        row_worst, lps = float(worst[r]), 0
        rest = np.flatnonzero(~settled[r])
        for u, k in sorted(zip(bounds[r, rest], rest), key=lambda pair: -pair[0]):
            if u + PRUNE_MARGIN < row_worst:
                break
            row_worst = max(row_worst, _transform_linprog(src[r, k], dst[r, k])[1])
            lps += 1
        verdicts.append((row_worst, lps))
    return verdicts


def _map_rows(src_fams, dst_fams):
    """_row_verdicts over the rows, in order, in contiguous chunks of at most
    ROW_CHUNK rows: on one forked worker per CPU this process may run on, at
    most one per chunk; serially in this process, chunk by chunk, on one CPU,
    for a single chunk, or without os.sched_getaffinity. The chunks are the
    same either way, so the verdicts do not depend on the CPU count, and
    memory holds one chunk's stacks at a time. A worker's exception is raised
    here."""
    starts = range(0, len(src_fams), ROW_CHUNK)
    srcs = [src_fams[i:i + ROW_CHUNK] for i in starts]
    dsts = [dst_fams[i:i + ROW_CHUNK] for i in starts]
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)), len(srcs)) if affinity else 1
    if workers < 2:
        return [v for chunk in map(_row_verdicts, srcs, dsts) for v in chunk]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the forked workers inherit the loaded module, so the milp import inside
    # the linprog forwarder is a lookup in each of them, not a quarter second
    import scipy.optimize  # noqa: F401

    # fork, not spawn: a spawned worker would import numpy and scipy anew and
    # would not see a patched dominance.linprog or GARBLING_TOL. The executor
    # forks every worker before it starts its own manager thread.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return [v for chunk in pool.map(_row_verdicts, srcs, dsts) for v in chunk]


# a box's tag from the certified flags of its own directions and the other box's
def _tag(own, other):
    return "dominating" if all(own) else "dominated" if all(other) else "unresolved"


def region_scan(frame, ref_points, test_points, change, obs, costs, grid, pi_samples=11,
                tol=VI_TOL, max_iter=MAX_ITER):
    """Pairwise dominance scan between two sampled parameter regions.

    For every (ref, test) pair and both directions, looks for a shared
    garbling matrix at each sampled belief; a direction is certified when
    every belief admits one within GARBLING_TOL. Every row, certified or not,
    records the value ordering margin min(V_dst - V_src) (the garbled side
    should cost at least as much everywhere).

    The channel families, kernels and value functions are built here, in
    order, each point's family and kernel from one ActionMap. The pair
    directions are judged in contiguous chunks of at most ROW_CHUNK = 16
    rows, one _row_verdicts pass each; the chunks run on one forked worker
    process per CPU this process may use (serially here when that is one,
    e.g. under ``taskset -c 0``, or when there is one chunk). The chunks are
    the same either way, so the rows are the same to the bit.

    A row's residual is the largest over its beliefs, so _row_verdicts runs a
    belief's LP only when its exact A = 2 bound, plus PRUNE_MARGIN = 1e-6,
    can reach the row's running worst; the column keeps every bit, and
    lp_calls counts the LPs that ran. On the benchmark's 8 x 8-point scans
    (README frame, 11 beliefs) that runs 200, 203, 208 and 204 LPs at seeds
    0-3 instead of 576, 649, 626 and 598. The default 27 x 27 scan of the
    README model at grid_n 200 took 3.7-3.8 s on two CPUs instead of 6.3-6.6
    s when every LP ran. Judging the rows by chunks took it to 2.95-3.46 s
    from 3.26-4.05 s with each row judged alone (five alternating runs each
    on a shared two-CPU host), and to 5.2 s from 5.6 s on one CPU.

    Returns (tags, rows): the ref box's and the test box's tag (see _tag),
    and the pair records, ref-major with ref_to_test before test_to_ref.
    """
    if not (ref_points and test_points):
        raise InvalidModel(f"the {'test' if ref_points else 'ref'} box has no parameter points")
    pi_values = np.linspace(0.0, 1.0, pi_samples)

    def prep(points):
        out = []
        for p in points:
            amap = ActionMap(frame, p)
            fam = _channel_family(amap, change, obs, pi_values)
            kernel = build_action_kernel(amap, change, obs, grid)
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
    verdicts = _map_rows([j[3] for j in jobs], [j[4] for j in jobs])
    rows = [
        ScanRow(ref=p_ref, test=p_test, direction=direction,
                certified=worst <= GARBLING_TOL, residual=worst,
                worst_V_margin=float(np.min(V_dst - V_src)), lp_calls=lps)
        for (p_ref, p_test, direction, _, _, V_src, V_dst), (worst, lps) in zip(jobs, verdicts)
    ]
    fwd = [r.certified for r in rows if r.direction == "ref_to_test"]
    bwd = [r.certified for r in rows if r.direction == "test_to_ref"]
    return (_tag(fwd, bwd), _tag(bwd, fwd)), rows
