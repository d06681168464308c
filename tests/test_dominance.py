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
from hypothesis import assume, given, settings, strategies as st

from qdetect import (
    ActionKernel,
    ActionMap,
    BeliefGrid,
    ChangeModel,
    DecisionFrame,
    DetectionCosts,
    ObservationModel,
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
from qdetect.protocol import _transitions
from qdetect.quantum import closed_form_vertices

from oracles import every_belief_verdict, vertex_order

PAIR_HI = PsychParams(0.9, 50.0, 0.3)    # dominating side of the test pair
PAIR_LO = PsychParams(0.2, 50.0, 0.3)
LAM_HI = PsychParams(0.9, 100.0, 0.3)    # saturated-precision pair
LAM_LO = PsychParams(0.9, 10.0, 0.3)


def family_at(frame, params, change, obs, pi1):
    return _channel_family(ActionMap(frame, params), change, obs, [pi1])[0]


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
    M, resid = best_transform(fam, fam)
    assert resid <= 1e-9
    np.testing.assert_allclose(fam @ M, fam, atol=1e-9)


def test_degenerate_source_forces_row():
    ghat = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    g = np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    M, resid = best_transform(ghat, g)
    assert resid <= 1e-12
    np.testing.assert_allclose(M[0], [0.3, 0.7], atol=1e-12)


def test_lp_matches_exhaustive_scan(pd_frame, pd_change, pd_obs):
    # at this coarse verdict scale only the saturated pair is infeasible;
    # the low-to-high direction's small-but-real residual shows up under
    # the stricter tolerance in test_region_scan_asymmetric_pair
    cases = [
        (PAIR_LO, PAIR_HI, True),
        (LAM_HI, LAM_LO, False),
        (PAIR_HI, PAIR_LO, True),
    ]
    for src, dst, feasible in cases:
        fs = family_at(pd_frame, src, pd_change, pd_obs, 0.5)
        fd = family_at(pd_frame, dst, pd_change, pd_obs, 0.5)
        _, lp = dominance._transform_linprog(fs, fd)     # the LP, never the shortcut
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
    from dense_garbling_lp's rows. _transform_linprog hands HiGHS the same
    model through milp, so it must return the same x to the bit."""
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
    M, resid = dominance._transform_linprog(ghat, g)
    M_oracle, resid_oracle = linprog_oracle(ghat, g)
    assert M.tobytes() == M_oracle.tobytes()
    assert resid == resid_oracle


def lp_inputs(ghat, g):
    """The (cost, constraints, bounds) that _transform_linprog hands the LP
    forwarder for one pair, and its answer."""
    seen = []
    forward = dominance.linprog

    def capture(cost, constraints, bounds):
        seen.append((cost, constraints, bounds))
        return forward(cost, constraints=constraints, bounds=bounds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dominance, "linprog", capture)
        got = dominance._transform_linprog(ghat, g)
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
    _, resid = dominance._transform_linprog(fs, fd)
    assert abs(resid - 0.003884773831369648) <= 1e-9
    assert best_transform(fs, fd)[1] > 1e-6
    _, back = best_transform(fd, fs)
    assert back <= 1e-9


def test_certificate_soundness_lp_path():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ghat = random_stochastic(rng, 5, 3)
        M_true = random_stochastic(rng, 3, 3)
        g = ghat @ M_true
        M, resid = best_transform(ghat, g)
        assert resid <= 1e-6
        assert np.abs(ghat @ M - g).max() <= 1e-6
        assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-9
        assert M.min() >= -1e-9


def test_betweenness_degenerate_pair(pd_frame, pd_change, pd_obs):
    p = PsychParams(0.5, 30.0, 0.4)
    report = interpolation_betweenness_check(pd_frame, p, p, pd_change, pd_obs)
    assert report.violations == 0
    assert abs(report.worst_margin) <= 1e-12
    assert report.checks == 9 * 11 * pd_obs.n_obs * 2

    assert _mix_params(p, PsychParams(0.1, 5.0, 0.9), 1.0) == p
    fam_mix = _channel_family(
        ActionMap(pd_frame, _mix_params(p, PsychParams(0.1, 5.0, 0.9), 1.0)),
        pd_change, pd_obs, [0.3],
    )
    fam_p = _channel_family(ActionMap(pd_frame, p), pd_change, pd_obs, [0.3])
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


def posteriors(change, obs, pi_values):
    """The sensor posteriors T(pi, y) as distributions over the two states,
    shaped (n_pi, n_obs, 2): a channel family is these times a vertex matrix."""
    post = _transitions(pi_values, obs.B[0][:, None], obs.B[1][:, None], change.p)[0].T
    return np.stack([post, 1.0 - post], axis=-1)


def closed_form_family(frame, params, change, obs, pi_values):
    """_channel_family with closed_form_vertices in place of the eigensolve:
    the sensor posteriors T(pi, y) times the vertex matrix."""
    return posteriors(change, obs, pi_values) @ closed_form_vertices(frame, params)


def test_criterion_8_violations_are_the_closed_forms(pd_frame, pd_change, pd_obs):
    # criterion 8's 100 draws with every family built from the closed form
    # (proof step 4): the same three pairs break betweenness with the same
    # worst margins, so the violations are the model's (g and the logit
    # choice are not linear in the parameters), not eigensolver error
    rng = np.random.default_rng(20250808)
    pi_values = np.linspace(0.0, 1.0, 11)
    flagged = []
    for draw in range(100):
        p1, p2 = [PsychParams(alpha=float(rng.uniform(0.1, 0.5)),
                              lam=float(rng.uniform(10.0, 100.0)),
                              phi=float(rng.uniform(0.1, 0.5))) for _ in range(2)]
        fam1, fam2 = (closed_form_family(pd_frame, p, pd_change, pd_obs, pi_values)
                      for p in (p1, p2))
        lo, hi = np.minimum(fam1, fam2), np.maximum(fam1, fam2)
        worst = np.inf
        for eps in np.linspace(0.1, 0.9, 9):
            fam3 = closed_form_family(pd_frame, _mix_params(p1, p2, eps), pd_change, pd_obs,
                                      pi_values)
            worst = min(worst, float(np.minimum(fam3 - lo, hi - fam3).min()))
        if worst < -1e-6:
            flagged.append(draw)
        report = interpolation_betweenness_check(pd_frame, p1, p2, pd_change, pd_obs)
        assert abs(worst - report.worst_margin) <= 1e-12, (draw, worst, report)
    assert flagged == [4, 72, 96]


@settings(max_examples=25)
@given(st.integers(2, 3), st.data())
def test_larger_g_garbles_into_smaller_g_at_equal_lambda(pd_change, pd_obs, pd_costs, A, data):
    # proof step 5: at one lam and phi in (0, 1), M = r I + (1 - r) J/A with
    # r = g_2 / g_1 maps the larger-g vertex matrix onto the smaller-g one, so
    # region_scan certifies that direction; the reverse need not hold
    utility = data.draw(st.lists(st.floats(1.0, 30.0), min_size=2 * A, max_size=2 * A))
    frame = DecisionFrame(2, A, np.reshape(utility, (A, 2)))
    lam = data.draw(st.floats(0.1, 20.0))
    points = [PsychParams(alpha=data.draw(st.floats(0.05, 1.0)), lam=lam,
                          phi=data.draw(st.floats(1e-3, 0.999))) for _ in range(2)]
    V1, V2 = (closed_form_vertices(frame, p) for p in points)
    D1, D2 = V1 - 1.0 / A, V2 - 1.0 / A
    if np.abs(D1).max() < np.abs(D2).max():
        (V1, D1), (V2, D2), points = (V2, D2), (V1, D1), points[::-1]
    scale = float((D1 * D1).sum())
    r = float((D1 * D2).sum()) / scale if scale > 0.0 else 1.0
    assert -1e-12 <= r <= 1.0 + 1e-12
    M = r * np.eye(A) + (1.0 - r) / A
    assert np.abs(V1 @ M - V2).max() <= 1e-12
    _, rows = region_scan(frame, points[:1], points[1:], pd_change, pd_obs, pd_costs,
                          BeliefGrid(n_cells=20), pi_samples=5)
    fwd = next(row for row in rows if row.direction == "ref_to_test")
    assert fwd.certified, fwd
    assert fwd.worst_V_margin >= -1e-6


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
        build_action_kernel(ActionMap(pd_frame, pd_params), pd_change, pd_obs, small_grid),
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
    pd_frame, pd_change, pd_obs, pd_costs, small_grid, monkeypatch
):
    # forked workers inherit the stricter tolerance, as they do a patched linprog
    monkeypatch.setattr(dominance, "GARBLING_TOL", 1e-7)
    tags, rows = region_scan(
        pd_frame, [PAIR_HI], [PAIR_LO], pd_change, pd_obs, pd_costs, small_grid,
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


def test_box_grid_refuses_a_reversed_axis():
    # lo > hi is an error naming the axis, not the single point lo
    with pytest.raises(InvalidModel, match=r"^alpha needs lo <= hi, got 0\.5:0\.1$"):
        box_grid((0.5, 0.1), (10.0, 100.0), (0.1, 0.5), 2)
    with pytest.raises(InvalidModel, match=r"^phi needs lo <= hi, got 0\.5:0\.1$"):
        box_grid((0.1, 0.5), (10.0, 100.0), (0.5, 0.1), 2)


def test_empty_parameter_box_is_an_error(
    pd_frame, pd_params, pd_change, pd_obs, pd_costs, small_grid
):
    # no points claim no tag, not one that holds vacuously for both boxes
    with pytest.raises(InvalidModel, match="points_per_axis must be >= 1, got 0"):
        box_grid((0.1, 0.5), (10.0, 100.0), (0.1, 0.5), points_per_axis=0)
    for ref, test, box in (([], [pd_params], "ref"), ([pd_params], [], "test")):
        with pytest.raises(InvalidModel, match=f"the {box} box has no parameter points"):
            region_scan(pd_frame, ref, test, pd_change, pd_obs, pd_costs, small_grid)


def default_box_points():
    """The CLI's default ref and test boxes, 2 points per axis."""
    return (box_grid((0.8, 1.0), (10.0, 100.0), (0.1, 0.5), points_per_axis=2),
            box_grid((0.1, 0.5), (10.0, 100.0), (0.1, 0.5), points_per_axis=2))


def default_box_scan(pd_frame, pd_change, pd_obs, pd_costs):
    """region_scan over the CLI's default boxes, 2 points per axis, grid_n 100."""
    ref, test = default_box_points()
    return region_scan(pd_frame, ref, test, pd_change, pd_obs, pd_costs,
                       BeliefGrid(n_cells=100))


def row_bits(row):
    return (row.ref, row.test, row.direction, row.certified,
            row.residual.hex(), row.worst_V_margin.hex())


def test_region_scan_pool_matches_serial(
    pd_frame, pd_change, pd_obs, pd_costs, monkeypatch, tmp_path
):
    # each garbling LP appends the pid it ran in, so the test sees which path
    # ran (the forked workers inherit the patched forwarder, and every scan of
    # these boxes runs LPs); two CPUs force the pool even on a one-CPU host
    pid_log = tmp_path / "pids"
    forward = dominance.linprog

    def logged(*args, **kwargs):
        with open(pid_log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return forward(*args, **kwargs)

    monkeypatch.setattr(dominance, "linprog", logged)
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
    # sampled belief at once: a vertex-certified direction must be certified.
    # Where the exact A = 2 test of proof step 6 finds such an M, the garbled
    # side also costs at least as much at every grid point. The other 24
    # vertex-certified rows garble within GARBLING_TOL only: each into a
    # lambda-100 point, whose two vertex rows agree to about 2e-10
    _, rows = default_box_scan(pd_frame, pd_change, pd_obs, pd_costs)
    vertex_certified = exact = 0
    for row in rows:
        src, dst = ((row.ref, row.test) if row.direction == "ref_to_test"
                    else (row.test, row.ref))
        V_src, V_dst = ActionMap(pd_frame, src).vertices, ActionMap(pd_frame, dst).vertices
        _, resid = best_transform(V_src, V_dst)
        if resid <= 1e-6:
            vertex_certified += 1
            assert row.certified, (row, resid)
        if vertex_order(V_src, V_dst)[0]:
            exact += 1
            assert row.certified and row.worst_V_margin >= -1e-6, row
    assert (exact, vertex_certified, len(rows)) == (56, 80, 128)


def test_vertex_order_flips_once_on_a_lambda_ladder(pd_frame):
    # information is not monotone in lambda. In the README frame defection
    # pays more in both states, so a fully rational player's action says
    # nothing about the state. At alpha 0.812, phi 0.9 the larger lambda
    # garbles into the smaller up to lambda 5, and from lambda 5 on the
    # smaller garbles into the larger; exactly one direction holds per step
    lams = [0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0]
    V = [closed_form_vertices(pd_frame, PsychParams(0.812, lam, 0.9)) for lam in lams]
    order = []
    for small, large in zip(V, V[1:]):
        (up, up_slack), (down, down_slack) = vertex_order(small, large), vertex_order(large, small)
        assert up != down and min(up_slack, down_slack) > 1e-4, (up_slack, down_slack)
        for garbles, src, dst in ((up, small, large), (down, large, small)):
            assert garbles == (best_transform(src, dst)[1] <= dominance.GARBLING_TOL)
        order.append("small into large" if up else "large into small")
    assert order == ["large into small"] * 3 + ["small into large"] * 3
    assert abs(V[-1][0, 0] - V[-1][1, 0]) < 1e-5


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


def counting_lps(fn, *args):
    """fn(*args) and the number of garbling LPs it ran."""
    calls = []
    forward = dominance.linprog

    def counting(*a, **kw):
        calls.append(None)
        return forward(*a, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dominance, "linprog", counting)
        got = fn(*args)
    return got, len(calls)


def test_pruned_verdicts_are_the_every_belief_ones_on_the_default_boxes(
    pd_frame, pd_change, pd_obs
):
    # default_box_scan's 128 rows, each to the bit, with about a third of
    # the LPs: only those that can set a row's worst residual run
    pi_values = np.linspace(0.0, 1.0, 11)
    ref, test = ([_channel_family(ActionMap(pd_frame, p), pd_change, pd_obs, pi_values)
                  for p in box] for box in default_box_points())
    rows = [pair for fr in ref for ft in test for pair in ((fr, ft), (ft, fr))]
    pruned_lps = every_lps = 0
    for src, dst in rows:
        worst, n = counting_lps(dominance._row_verdict, src, dst)
        want, n_every = counting_lps(every_belief_verdict, src, dst)
        assert worst.hex() == want.hex()
        pruned_lps, every_lps = pruned_lps + n, every_lps + n_every
    assert len(rows) == 128
    assert 0 < 2 * pruned_lps < every_lps, (pruned_lps, every_lps)


@st.composite
def vertex_pairs(draw):
    """The closed-form vertex matrices V, V2 of two parameter points of one
    random A = 2 frame; alpha = 1 and phi = 0 are drawn often."""
    utility = draw(st.lists(st.floats(1.0, 30.0), min_size=4, max_size=4))
    frame = DecisionFrame(2, 2, np.reshape(utility, (2, 2)))
    return tuple(closed_form_vertices(frame, PsychParams(
        alpha=draw(st.just(1.0) | st.floats(0.05, 1.0)),
        lam=draw(st.floats(0.0, 30.0)),
        phi=draw(st.just(0.0) | st.floats(0.0, 1.0)))) for _ in range(2))


@settings(max_examples=60)
@given(vertex_pairs(), st.data())
def test_pruned_verdict_is_the_every_belief_one_on_vertex_families(pair, data):
    # random rows of T(pi) V families: a random sensor and change rate,
    # 1-11 sampled beliefs
    V, V2 = pair
    n_obs = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    obs = ObservationModel(np.random.default_rng(seed).dirichlet(np.ones(n_obs), 2))
    change = ChangeModel(data.draw(st.floats(0.0, 1.0, exclude_min=True)))
    pi_values = np.sort(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11)))
    post = posteriors(change, obs, pi_values)
    for src, dst in ((post @ V, post @ V2), (post @ V2, post @ V)):
        assert dominance._row_verdict(src, dst).hex() == every_belief_verdict(src, dst).hex()


@settings(max_examples=30)
@given(st.integers(1, 11), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_pruned_verdict_runs_every_lp_at_three_actions(K, m, garbled, seed):
    # no bound at A != 2: every belief's LP runs, in belief order
    rng = np.random.default_rng(seed)
    src = rng.dirichlet(np.ones(3), size=(K, m))
    dst = (src @ rng.dirichlet(np.ones(3), size=3) if garbled
           else rng.dirichlet(np.ones(3), size=(K, m)))
    (worst, n), (want, n_every) = (counting_lps(fn, src, dst)
                                   for fn in (dominance._row_verdict, every_belief_verdict))
    assert worst.hex() == want.hex()
    assert n == n_every == K


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(1e-4, 1e-2), st.booleans())
def test_pruned_verdict_runs_both_lps_of_optima_within_the_margin(seed, delta, swap):
    # g = ghat @ (1 + delta, m2) fits exactly with a column outside [0, 1], so
    # the shortcut settles neither belief, and the LP optimum is positive; the
    # two beliefs' optima differ by about 1e-8, well within PRUNE_MARGIN, so
    # both LPs run and the worst is the larger of the two
    rng = np.random.default_rng(seed)
    first = rng.uniform(0.2, 0.8, size=3)
    ghat = np.stack([first, 1.0 - first], axis=-1)
    m2 = rng.uniform(0.0, 0.5)
    src = np.stack([ghat, ghat])
    dst = np.empty_like(src)
    for k, shift in enumerate((0.0, 1e-8)[::-1] if swap else (0.0, 1e-8)):
        dst[k, :, 0] = ghat @ [1.0 + delta + shift, m2]
        dst[k, :, 1] = 1.0 - dst[k, :, 0]
    assert all(dominance._transform_two_actions(s, d) is None for s, d in zip(src, dst))
    u = dominance._minimax_bounds(src, dst)
    assert u.min() > 0.0 and abs(u[0] - u[1]) < dominance.PRUNE_MARGIN
    worst, n = counting_lps(dominance._row_verdict, src, dst)
    assert n == 2
    assert worst.hex() == every_belief_verdict(src, dst).hex()


@st.composite
def two_action_stacks(draw):
    """Stacks of 1-4 A = 2 family pairs (ghat, g) of one shape, each (K, m, 2):
    random Dirichlet rows (exact zeros at small concentrations), pairs within
    1e-5 of a garbling, or vertex matrices (m = 2)."""
    kind = draw(st.sampled_from(["random", "near", "vertex"]))
    K = draw(st.integers(1, 4))
    if kind == "vertex":
        return tuple(np.array(stack) for stack in zip(*(draw(vertex_pairs()) for _ in range(K))))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    concentration = np.full(2, draw(st.sampled_from([0.02, 0.2, 1.0, 5.0])))
    ghat = rng.dirichlet(concentration, size=(K, m))
    if kind == "random":
        return ghat, rng.dirichlet(concentration, size=(K, m))
    g = ghat @ rng.dirichlet(np.ones(2), size=(K, 2))
    g[..., 0] = np.clip(g[..., 0] + rng.uniform(-1e-5, 1e-5, size=(K, m)), 0.0, 1.0)
    g[..., 1] = 1.0 - g[..., 0]
    return ghat, g


@settings(max_examples=200)
@given(two_action_stacks())
def test_minimax_bound_is_the_lp_optimum(stack):
    # u_k is the residual of a stochastic M, so the LP's never exceeds it by
    # more than HiGHS's tolerances, well inside PRUNE_MARGIN; and the line
    # crossings hold the LP's optimal vertex, so u_k is that optimum and no
    # prune is lost to a missed candidate
    bounds = dominance._minimax_bounds(*stack)
    assert bounds.shape == (len(stack[0]),)
    for u, src, dst in zip(bounds, *stack):
        _, lp = dominance._transform_linprog(src, dst)
        assert lp <= u + dominance.PRUNE_MARGIN / 10
        assert u <= lp + 1e-9


@settings(max_examples=200)
@given(vertex_pairs())
def test_exact_vertex_order_is_best_transforms_verdict(pair):
    # the exact A = 2 Blackwell test against best_transform(V, V2) at
    # GARBLING_TOL. A garbling pair is drawn when f(0) and f(1) are more than
    # 1e-9 inside [0, 1]. best_transform certifies a residual up to
    # GARBLING_TOL, so a pair that does not garble is drawn only when its
    # least residual is above twice that, clear of HiGHS's 1e-7 tolerances
    V, V2 = pair
    garbles, slack = vertex_order(V, V2)
    assume(slack > (1e-9 if garbles else 2 * dominance.GARBLING_TOL))
    _, resid = best_transform(V, V2)
    assert garbles == (resid <= dominance.GARBLING_TOL), (V, V2, resid, slack)


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

