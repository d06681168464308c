"""Channel-comparison tests: garbling certificates, betweenness, kernel
distance, the robustness bound, and region scans.

The LP certifier is cross-checked by an exhaustive grid scan over all 2x2
row-stochastic matrices at 1e-4 resolution; the scan can only overshoot the
true minimax residual, and by at most the grid's Lipschitz slack.
"""

import faulthandler
import os
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdetect import (
    ActionKernel,
    ActionMap,
    BeliefGrid,
    ChangeModel,
    DetectionCosts,
    ParameterMixture,
    PsychParams,
    best_transform,
    box_grid,
    build_action_kernel,
    build_mismatched_kernel,
    interpolation_betweenness_check,
    model_distance,
    region_scan,
    sensitivity_bound_check,
    value_iteration,
)
from qdetect import dominance
from qdetect.dominance import _channel_family, _mix_params
from qdetect.errors import InvalidModel, QDetectError

PAIR_HI = PsychParams(0.9, 50.0, 0.3)    # dominating side of the test pair
PAIR_LO = PsychParams(0.2, 50.0, 0.3)
LAM_HI = PsychParams(0.9, 100.0, 0.3)    # saturated-precision pair
LAM_LO = PsychParams(0.9, 10.0, 0.3)


def family_at(frame, params, change, obs, pi1):
    return _channel_family(frame, params, change, obs, [pi1])[0]


def random_stochastic(rng, rows, cols):
    M = rng.uniform(0.05, 1.0, size=(rows, cols))
    return M / M.sum(axis=1, keepdims=True)


def scan_min_residual(ghat, g, step=1e-4):
    """Exhaustive minimax residual over 2x2 row-stochastic M on a step grid.

    For A = 2 the column-1 residual mirrors column 0, so E(m1, m2) =
    max_y |ghat[y,0] m1 + ghat[y,1] m2 - g[y,0]| with mj = M[j, 0].
    """
    vals = np.arange(0.0, 1.0 + step / 2, step)
    c = g[:, 0]
    best = np.inf
    for lo in range(0, vals.size, 250):
        m1 = vals[lo:lo + 250][:, None]
        m2 = vals[None, :]
        E = np.zeros((m1.size, vals.size))
        for y in range(ghat.shape[0]):
            np.maximum(
                E, np.abs(ghat[y, 0] * m1 + ghat[y, 1] * m2 - c[y]), out=E
            )
        best = min(best, float(E.min()))
    return best


def test_identity_family_certifies(pd_frame, pd_change, pd_obs):
    fam = family_at(pd_frame, PAIR_HI, pd_change, pd_obs, 0.5)
    M, resid = best_transform(fam, fam, eps=1e-6)
    assert resid <= 1e-9
    np.testing.assert_allclose(fam @ M, fam, atol=1e-9)


def test_degenerate_source_forces_row():
    ghat = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    g = np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    M, resid = best_transform(ghat, g, eps=1e-6)
    assert resid <= 1e-12
    np.testing.assert_allclose(M[0], [0.3, 0.7], atol=1e-12)


def test_lp_matches_exhaustive_scan(pd_frame, pd_change, pd_obs):
    # at this coarse verdict scale only the saturated pair is infeasible;
    # the low-to-high direction's small-but-real residual shows up under
    # the stricter eps in test_region_scan_asymmetric_pair
    cases = [
        (PAIR_LO, PAIR_HI, True),
        (LAM_HI, LAM_LO, False),
        (PAIR_HI, PAIR_LO, True),
    ]
    for src, dst, feasible in cases:
        fs = family_at(pd_frame, src, pd_change, pd_obs, 0.5)
        fd = family_at(pd_frame, dst, pd_change, pd_obs, 0.5)
        _, lp = best_transform(fs, fd, eps=None)     # force the LP path
        scan = scan_min_residual(fs, fd)
        assert scan >= lp - 1e-9
        assert scan <= lp + 1.5e-4
        assert (lp <= 5e-4) == feasible
        assert (scan <= 6e-4) == feasible


def dense_garbling_lp(ghat, g):
    """The garbling LP's constraint rows as one dense matrix, built row by row
    with its row bounds: per y and k the + then the - residual row,
    -inf <= +/-(ghat M - g)[y, k] - t <= +/-g[y, k] over the variables M
    (row-major) then t, then the row sums of M, equal to 1."""
    m, A = ghat.shape
    n_vars = A * A + 1
    rows, hi = [], []
    for y in range(m):
        for k in range(A):
            row = np.zeros(n_vars)
            row[k::A][:A] = ghat[y]
            row[-1] = -1.0
            rows += [row, np.concatenate([-row[:-1], [-1.0]])]
            hi += [g[y, k], -g[y, k]]
    A_eq = np.zeros((A, n_vars))
    for j in range(A):
        A_eq[j, j * A:(j + 1) * A] = 1.0
    lower = np.concatenate([np.full(len(hi), -np.inf), np.ones(A)])
    return np.vstack([rows, A_eq]), lower, np.concatenate([hi, np.ones(A)])


def linprog_oracle(ghat, g):
    """The garbling LP as scipy.optimize.linprog(method="highs") solves it,
    from dense_garbling_lp's rows. best_transform hands HiGHS the same model
    through milp, so it must return the same x to the bit."""
    from scipy.optimize import linprog

    m, A = ghat.shape
    rows, _, hi = dense_garbling_lp(ghat, g)
    R = 2 * m * A
    res = linprog(np.eye(A * A + 1)[-1], A_ub=rows[:R], b_ub=hi[:R],
                  A_eq=rows[R:], b_eq=hi[R:],
                  bounds=[(0.0, 1.0)] * (A * A) + [(0.0, None)], method="highs")
    assert res.success
    M = res.x[:-1].reshape(A, A)
    return M, float(np.abs(ghat @ M - g).max())


@st.composite
def channel_pairs(draw):
    # small Dirichlet concentrations give exact zeros; "identical" pairs are
    # feasible at zero residual, "degenerate" ones carry a one-hot source row;
    # "zeroed" sources lose some entries, and one row is one-hot with -0.0
    # for its zeros, which the LP's sparse matrix must drop like +0.0
    m, A = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    concentration = draw(st.sampled_from([0.02, 0.2, 1.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ghat = rng.dirichlet(np.full(A, concentration), size=m)
    kind = draw(st.sampled_from(["random", "identical", "degenerate", "zeroed"]))
    g = ghat.copy() if kind == "identical" else rng.dirichlet(np.full(A, concentration), size=m)
    if kind == "degenerate":
        ghat[rng.integers(m)] = np.eye(A)[rng.integers(A)]
    if kind == "zeroed":
        ghat[rng.random((m, A)) < 0.4] = 0.0
        ghat[rng.integers(m)] = np.where(np.eye(A)[rng.integers(A)] > 0, 1.0, -0.0)
    return ghat, g


@settings(max_examples=150)
@given(channel_pairs())
def test_lp_matches_linprog_oracle_bit_for_bit(pair):
    ghat, g = pair
    M, resid = best_transform(ghat, g, eps=None)         # always the LP
    M_oracle, resid_oracle = linprog_oracle(ghat, g)
    assert M.tobytes() == M_oracle.tobytes()
    assert resid == resid_oracle


def lp_inputs(ghat, g):
    """The (cost, constraints, bounds) that best_transform hands the LP
    forwarder for one pair, and its answer."""
    seen = []
    forward = dominance.linprog

    def capture(cost, constraints, bounds):
        seen.append((cost, constraints, bounds))
        return forward(cost, constraints=constraints, bounds=bounds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dominance, "linprog", capture)
        got = best_transform(ghat, g, eps=None)
    [inputs] = seen
    return inputs, got


@settings(max_examples=150)
@given(channel_pairs())
def test_lp_template_lays_out_the_dense_rows(pair):
    # the sparse matrix filled into the per-shape template is csc_array of
    # the dense stacked rows, entry for entry, zeros dropped; so are the
    # row and variable bounds
    from scipy.sparse import csc_array

    ghat, g = pair
    (cost, constraints, bounds), _ = lp_inputs(ghat, g)
    rows, lower, hi = dense_garbling_lp(ghat, g)
    want = csc_array(rows)
    got = constraints.A
    assert got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    assert constraints.lb.tobytes() == lower.tobytes()
    assert constraints.ub.tobytes() == hi.tobytes()
    n_vars = rows.shape[1]
    np.testing.assert_array_equal(cost, np.eye(n_vars)[-1])
    np.testing.assert_array_equal(np.broadcast_to(bounds.lb, n_vars), 0.0)
    np.testing.assert_array_equal(bounds.ub, [1.0] * (n_vars - 1) + [np.inf])


def test_lp_template_survives_a_family_with_zeros():
    # a zero-containing family drops entries from its copy of the shared
    # template; the next, zero-free family of the same shape must still get
    # the full layout and linprog_oracle's x to the bit
    dominance._lp_template.cache_clear()
    rng = np.random.default_rng(20)
    for m in range(1, 5):
        for A in range(1, 5):
            sparse = rng.dirichlet(np.ones(A), size=m)
            sparse[:, 0] = 0.0
            sparse[0] = -0.0
            for ghat in (sparse, rng.dirichlet(np.ones(A), size=m)):
                g = rng.dirichlet(np.ones(A), size=m)
                (_, constraints, _), (M, resid) = lp_inputs(ghat, g)
                M_oracle, resid_oracle = linprog_oracle(ghat, g)
                assert M.tobytes() == M_oracle.tobytes()
                assert resid == resid_oracle
            assert constraints.A.nnz == A * A * (2 * m + 1) + 2 * m * A


def test_saturated_pair_one_way(pd_frame, pd_change, pd_obs):
    # lambda = 100 pins both steady rows near the same vertex, so it cannot
    # reproduce the lambda = 10 family; the reverse direction is trivial
    fs = family_at(pd_frame, LAM_HI, pd_change, pd_obs, 0.5)
    fd = family_at(pd_frame, LAM_LO, pd_change, pd_obs, 0.5)
    _, resid = best_transform(fs, fd, eps=None)
    assert abs(resid - 0.003884773831369648) <= 1e-9
    assert best_transform(fs, fd, eps=1e-6)[1] > 1e-6
    _, back = best_transform(fd, fs, eps=1e-6)
    assert back <= 1e-9


def test_certificate_soundness_lp_path():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ghat = random_stochastic(rng, 5, 3)
        M_true = random_stochastic(rng, 3, 3)
        g = ghat @ M_true
        M, resid = best_transform(ghat, g, eps=1e-6)
        assert resid <= 1e-6
        assert np.abs(ghat @ M - g).max() <= 1e-6
        assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-9
        assert M.min() >= -1e-9


def test_betweenness_degenerate_pair(pd_frame, pd_change, pd_obs):
    p = PsychParams(0.5, 30.0, 0.4)
    report = interpolation_betweenness_check(
        pd_frame, p, p, pd_change, pd_obs,
        eps_values=[0.3, 0.7], pi_values=[0.2, 0.8],
    )
    assert report.violations == 0
    assert abs(report.worst_margin) <= 1e-12
    assert report.checks == 2 * 2 * pd_obs.n_obs * 2

    assert _mix_params(p, PsychParams(0.1, 5.0, 0.9), 1.0) == p
    fam_mix = _channel_family(
        pd_frame, _mix_params(p, PsychParams(0.1, 5.0, 0.9), 1.0),
        pd_change, pd_obs, [0.3],
    )
    fam_p = _channel_family(pd_frame, p, pd_change, pd_obs, [0.3])
    np.testing.assert_array_equal(fam_mix, fam_p)


def test_betweenness_typical_pairs(pd_frame, pd_change, pd_obs):
    # these six seeded pairs satisfy betweenness; the property is not
    # universal in the box (see the violation regression below)
    rng = np.random.default_rng(2024)
    for _ in range(6):
        lo = PsychParams(
            alpha=rng.uniform(0.1, 0.5),
            lam=rng.uniform(10.0, 100.0),
            phi=rng.uniform(0.1, 0.5),
        )
        hi = PsychParams(
            alpha=rng.uniform(0.1, 0.5),
            lam=rng.uniform(10.0, 100.0),
            phi=rng.uniform(0.1, 0.5),
        )
        report = interpolation_betweenness_check(
            pd_frame, lo, hi, pd_change, pd_obs
        )
        assert report.violations == 0
        assert report.worst_margin >= -1e-6


def test_betweenness_flags_real_violation(pd_frame, pd_change, pd_obs):
    # frozen counter-example: interpolating across a wide lambda gap pushes
    # the defection rate outside the endpoint hull by about 2e-4 (the
    # excursion is confirmed by long-time evolution, not a solver artifact)
    p1 = PsychParams(0.21641257175629086, 38.74532164563436, 0.4409110469136389)
    p2 = PsychParams(0.2581333958722586, 10.929793318660964, 0.3596910339467988)
    report = interpolation_betweenness_check(
        pd_frame, p1, p2, pd_change, pd_obs
    )
    assert report.violations > 0
    assert abs(report.worst_margin - (-2.0652097155893223e-04)) <= 1e-9


def test_model_distance_zero_and_symmetry_breaking(pd_change):
    grid = BeliefGrid(4)
    k1 = ActionKernel(grid=grid, table=np.tile([0.5, 0.5], (2, grid.size, 1)))
    k2 = ActionKernel(grid=grid, table=np.tile([0.9, 0.1], (2, grid.size, 1)))
    assert model_distance(k1, k1, pd_change) == 0.0

    kl12 = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
    kl21 = 0.9 * np.log(0.9 / 0.5) + 0.1 * np.log(0.1 / 0.5)
    assert abs(model_distance(k1, k2, pd_change) - np.sqrt(2 * kl12)) <= 1e-12
    assert abs(model_distance(k2, k1, pd_change) - np.sqrt(2 * kl21)) <= 1e-12
    assert model_distance(k1, k2, pd_change) != model_distance(k2, k1, pd_change)


def test_model_distance_infinite_on_support_mismatch(pd_change):
    grid = BeliefGrid(4)
    k = ActionKernel(grid=grid, table=np.tile([0.9, 0.1], (2, grid.size, 1)))
    kh = ActionKernel(grid=grid, table=np.tile([1.0, 0.0], (2, grid.size, 1)))
    assert model_distance(k, kh, pd_change) == float("inf")
    assert np.isfinite(model_distance(kh, k, pd_change))


def test_model_distance_double_loop_oracle(
    pd_frame, pd_params, pd_change, pd_obs, small_grid, pd_kernel_small
):
    mix = ParameterMixture((
        (pd_params, 0.8),
        (PsychParams(0.7, 10.495, 0.9), 0.2),
    ))
    khat = build_mismatched_kernel(
        pd_frame, mix, pd_change, pd_obs, small_grid
    )
    d = model_distance(pd_kernel_small, khat, pd_change)
    assert abs(d - 0.0340604175836471) <= 1e-10

    R, Rh = pd_kernel_small.table, khat.table
    worst = 0.0
    for ipt in range(small_grid.size):
        for i in range(2):
            total = 0.0
            for j in range(2):
                kl = sum(
                    R[j, ipt, a] * np.log(R[j, ipt, a] / Rh[j, ipt, a])
                    for a in range(2)
                    if R[j, ipt, a] > 0
                )
                total += pd_change.P[i, j] * np.sqrt(max(kl, 0.0))
            worst = max(worst, total)
    assert abs(d - np.sqrt(2.0) * worst) <= 1e-12


def test_sensitivity_point_mass(
    pd_frame, pd_params, pd_change, pd_obs, pd_costs, small_grid
):
    mix = ParameterMixture(((pd_params, 1.0),))
    report = sensitivity_bound_check(
        pd_frame, pd_params, mix, pd_change, pd_obs, pd_costs, small_grid
    )
    assert report.distance == 0.0
    assert report.K == pd_costs.f / pd_change.p
    assert report.worst_slack >= -5e-8
    table, _ = value_iteration(
        build_action_kernel(pd_frame, pd_params, pd_change, pd_obs, small_grid),
        pd_change, pd_costs,
    )
    assert np.abs(report.lhs - table.values).max() <= 5e-8


def test_sensitivity_zero_costs(
    pd_frame, pd_params, pd_change, pd_obs, small_grid
):
    mix = ParameterMixture(((PsychParams(0.7, 10.495, 0.9), 1.0),))
    report = sensitivity_bound_check(
        pd_frame, pd_params, mix, pd_change, pd_obs,
        DetectionCosts(f=0.0, d=0.0), small_grid,
    )
    np.testing.assert_array_equal(report.lhs, 0.0)
    assert report.K == 0.0
    assert report.worst_slack >= 0.0


def test_sensitivity_alpha_mixture(
    pd_frame, pd_params, pd_change, pd_obs, pd_costs, small_grid
):
    mix = ParameterMixture((
        (PsychParams(0.712, 10.495, 0.9), 0.5),
        (PsychParams(0.912, 10.495, 0.9), 0.5),
    ))
    report = sensitivity_bound_check(
        pd_frame, pd_params, mix, pd_change, pd_obs, pd_costs, small_grid
    )
    assert 0.0 < report.distance < np.inf
    assert report.worst_slack >= 0.0
    assert (report.rhs - report.lhs).min() == report.worst_slack


def test_region_scan_self_pair(
    pd_frame, pd_params, pd_change, pd_obs, pd_costs, small_grid
):
    tags, rows = region_scan(
        pd_frame, [pd_params], [pd_params], pd_change, pd_obs, pd_costs,
        small_grid,
    )
    assert len(rows) == 2
    assert all(r.certified for r in rows)
    assert all(r.residual <= 1e-9 for r in rows)
    assert all(abs(r.worst_V_margin) <= 1e-12 for r in rows)
    assert tags == ("dominating", "dominating")


def test_region_scan_asymmetric_pair(
    pd_frame, pd_change, pd_obs, pd_costs, small_grid
):
    tags, rows = region_scan(
        pd_frame, [PAIR_HI], [PAIR_LO], pd_change, pd_obs, pd_costs,
        small_grid, eps=1e-7,
    )
    fwd = next(r for r in rows if r.direction == "ref_to_test")
    bwd = next(r for r in rows if r.direction == "test_to_ref")
    assert fwd.certified
    assert fwd.residual <= 1e-9
    assert fwd.worst_V_margin >= -1e-6
    assert not bwd.certified
    assert 1e-6 < bwd.residual < 1.2e-6
    assert tags == ("dominating", "dominated")


def test_box_grid_counts():
    pts = box_grid((0.1, 0.5), (10.0, 100.0), (0.1, 0.5), points_per_axis=3)
    assert len(pts) == 27
    alphas = sorted({p.alpha for p in pts})
    assert alphas == [0.1, 0.30000000000000004, 0.5]

    flat = box_grid((0.3, 0.3), (10.0, 100.0), (0.2, 0.2), points_per_axis=4)
    assert len(pts) == 27
    assert len(flat) == 4
    assert all(p.alpha == 0.3 and p.phi == 0.2 for p in flat)


def default_box_scan(pd_frame, pd_change, pd_obs, pd_costs):
    """region_scan over the CLI's default boxes, 2 points per axis, grid_n 100."""
    ref = box_grid((0.8, 1.0), (10.0, 100.0), (0.1, 0.5), points_per_axis=2)
    test = box_grid((0.1, 0.5), (10.0, 100.0), (0.1, 0.5), points_per_axis=2)
    return region_scan(pd_frame, ref, test, pd_change, pd_obs, pd_costs,
                       BeliefGrid(n_cells=100))


def row_bits(row):
    return (row.ref, row.test, row.direction, row.certified,
            row.residual.hex(), row.worst_V_margin.hex())


def test_region_scan_pool_matches_serial(
    pd_frame, pd_change, pd_obs, pd_costs, monkeypatch, tmp_path
):
    # each garbling search appends the pid it ran in, so the test sees which
    # path ran; two CPUs force the pool even on a one-CPU host
    pid_log = tmp_path / "pids"
    search = dominance.best_transform

    def logged(*args, **kwargs):
        with open(pid_log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return search(*args, **kwargs)

    monkeypatch.setattr(dominance, "best_transform", logged)
    scans = {}
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        pid_log.write_text("", encoding="utf-8")
        scans[len(cpus)] = default_box_scan(pd_frame, pd_change, pd_obs, pd_costs)
        pids = set(pid_log.read_text(encoding="utf-8").split())
        assert (str(os.getpid()) in pids) == (len(cpus) == 1)
        assert len(pids) >= 1
    (pool_tags, pool_rows), (serial_tags, serial_rows) = scans[2], scans[1]
    assert len(pool_rows) == 128
    assert [row_bits(r) for r in pool_rows] == [row_bits(r) for r in serial_rows]
    assert pool_tags == serial_tags


def test_region_scan_sound_against_vertex_certificate(
    pd_frame, pd_change, pd_obs, pd_costs
):
    # the channel family at belief pi is T(pi) V for the vertex matrix V, so
    # a garbling M with V_src M = V_dst (Blackwell's order) certifies every
    # sampled belief at once: a vertex-certified direction must be certified
    _, rows = default_box_scan(pd_frame, pd_change, pd_obs, pd_costs)
    vertex_certified = 0
    for row in rows:
        src, dst = ((row.ref, row.test) if row.direction == "ref_to_test"
                    else (row.test, row.ref))
        _, resid = best_transform(ActionMap(pd_frame, src).vertices,
                                  ActionMap(pd_frame, dst).vertices, eps=1e-6)
        if resid <= 1e-6:
            vertex_certified += 1
            assert row.certified, (row, resid)
    assert vertex_certified >= 1
    assert len(rows) == 128


def test_region_scan_worker_error_reaches_caller(
    pd_frame, pd_change, pd_obs, pd_costs, monkeypatch
):
    # the forked workers inherit the patched forwarder; the typed error raised
    # in a worker is pickled back and raised here, not a pickling error
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(dominance, "linprog", lambda *args, **kwargs: SimpleNamespace(
        success=False, message="patched solver failure"))
    faulthandler.dump_traceback_later(120, exit=True)     # a hang fails loudly
    try:
        with pytest.raises(InvalidModel,
                           match="transform search failed: patched solver failure"):
            default_box_scan(pd_frame, pd_change, pd_obs, pd_costs)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.mark.parametrize("cls", [QDetectError, *QDetectError.__subclasses__()])
def test_errors_keep_message_and_quantities_through_pickle(cls):
    # a region-scan worker's error reaches the parent pickled; the declared
    # quantities (NumericalFailure.residual, ImpossibleAction.episode and
    # .step, ...) and any other keyword must survive the trip
    declared = [k for k in vars(cls) if not k.startswith("_")]
    quantities = {k: 0.5 + i for i, k in enumerate(declared)}
    quantities["belief_hint"] = np.array([0.25, 0.75])
    back = pickle.loads(pickle.dumps(cls("it failed", **quantities)))
    assert type(back) is cls
    assert str(back) == "it failed"
    assert back.args == ("it failed",)
    for key, value in quantities.items():
        np.testing.assert_array_equal(getattr(back, key), value)

