"""Stopping-solver tests.

The main oracle is a one-step analysis of the PD regime: with p = 0.95 every
post-continuation belief already lies in the stop region, so the continuation
value is exactly d pi + f (1 - p)(1 - pi) and the stop/continue crossing sits
at pi* = f p / (d + f p). The solver must place its grid threshold at the
first grid point at or above pi*, independent of the action channel.
"""

import math

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
    InvalidModel,
    NonConvergence,
    NumericalFailure,
    ObservationModel,
    Policy,
    PsychParams,
    build_action_kernel,
    classical_value_iteration,
    evaluate_policy,
    extract_threshold,
    value_iteration,
)
from qdetect.protocol import _transitions
from qdetect.stopping import MAX_ITER, VI_TOL, _action_transitions, _iterate

from oracles import always_stop_policy, nearest_point


def one_step_crossing(costs, change):
    return costs.f * change.p / (costs.d + costs.f * change.p)


def test_zero_false_alarm_cost_stops_everywhere(pd_kernel_small, pd_change):
    costs = DetectionCosts(f=0.0, d=1.0)
    table, policy = value_iteration(pd_kernel_small, pd_change, costs)
    np.testing.assert_array_equal(table.values, 0.0)
    np.testing.assert_array_equal(policy.u, 1)
    assert policy.threshold == 0.0
    assert policy.crossings == 0


def test_value_bounds(pd_kernel_small, pd_change, pd_costs):
    table, _ = value_iteration(pd_kernel_small, pd_change, pd_costs)
    stop_cost = pd_costs.f * (1.0 - table.grid.points)
    assert table.values[-1] == 0.0
    assert (table.values >= 0.0).all()
    assert (table.values <= stop_cost + 1e-12).all()


def test_threshold_matches_one_step_analysis(
    pd_kernel_full, pd_change, pd_costs
):
    table, policy = value_iteration(pd_kernel_full, pd_change, pd_costs)
    # pi* = 5 * 0.95 / (1 + 5 * 0.95) = 19/23 = 0.82608...; N = 1000 grid
    assert policy.threshold is not None
    assert abs(policy.threshold - 0.827) <= 1e-9
    assert policy.crossings == 1
    assert table.sweeps == 3
    # V(0): continuing from certainty of no change costs f (1 - p)
    assert abs(table.values[0] - 0.25) <= 1e-9


def test_threshold_formula_across_costs(
    pd_kernel_small, pd_change
):
    step = 1.0 / pd_kernel_small.grid.n_cells
    for f in (1.0, 2.0, 5.0, 8.0):
        costs = DetectionCosts(f=f, d=1.0)
        _, policy = value_iteration(pd_kernel_small, pd_change, costs)
        pistar = one_step_crossing(costs, pd_change)
        assert policy.threshold is not None
        assert policy.threshold >= pistar - 1e-12
        assert policy.threshold - pistar <= step + 1e-12


def test_classical_detector_reference(
    pd_kernel_full, pd_change, pd_obs, pd_costs
):
    qt, qp = value_iteration(pd_kernel_full, pd_change, pd_costs)
    ct, cp = classical_value_iteration(
        pd_change, pd_obs, pd_costs, pd_kernel_full.grid
    )
    # seeing raw observations can only help, so Vc never exceeds Vq
    assert np.max(ct.values - qt.values) <= 1e-6
    assert cp.threshold == qp.threshold


def test_classical_blind_recursion(pd_change, pd_costs):
    # uninformative observations collapse the update to the prediction;
    # replicate that recursion directly
    grid = BeliefGrid(150)
    obs = ObservationModel(np.full((2, 4), 0.25))
    table, _ = classical_value_iteration(
        pd_change, obs, pd_costs, grid, tol=1e-10
    )
    g = grid.points
    pred1 = g + pd_change.p * (1.0 - g)
    V = np.zeros_like(g)
    for _ in range(100000):
        Vn = np.minimum(
            pd_costs.f * (1.0 - g), pd_costs.d * g + np.interp(pred1, g, V)
        )
        delta = np.abs(Vn - V).max()
        V = Vn
        if delta <= 1e-10:
            break
    assert np.abs(table.values - V).max() <= 1e-8


def test_extract_threshold_cases():
    pts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert extract_threshold(pts, [1, 1, 1, 1, 1]) == (0.0, 0)
    assert extract_threshold(pts, [2, 2, 2, 2, 2]) == (None, 0)
    assert extract_threshold(pts, [2, 2, 1, 1, 1]) == (0.5, 1)
    assert extract_threshold(pts, [1, 2, 2, 2, 1]) == (None, 2)
    assert extract_threshold(pts, [2, 1, 1, 2, 2]) == (None, 2)


def test_policy_decide(pd_kernel_full, pd_change, pd_costs):
    _, policy = value_iteration(pd_kernel_full, pd_change, pd_costs)
    thr = policy.threshold
    assert policy.decide(thr) == 1
    assert policy.decide(thr - 1e-13) == 1      # guard band
    assert policy.decide(thr - 0.01) == 2
    assert policy.decide(1.0) == 1
    assert policy.decide(0.0) == 2

    patchy = Policy(grid=BeliefGrid(2), u=np.array([1, 2, 1]))
    assert patchy.decide(0.1) == 1              # nearest grid point
    assert patchy.decide(0.6) == 2
    assert patchy.decide(0.9) == 1


def test_policy_decide_ties_and_arrays():
    grid = BeliefGrid(2)
    pts = grid.points
    patchy = Policy(grid=grid, u=np.array([1, 2, 1]))
    # a belief halfway between two grid points takes the lower index's decision
    assert patchy.decide(0.25) == 1
    assert patchy.decide(0.75) == 2
    # the array form agrees with the nearest-point rule of argmin, which
    # returns the first of equal distances
    x = np.concatenate([np.random.default_rng(0).random(500),
                        [-0.1, 0.0, 0.25, 0.5, 0.75, 1.0, 1.2]])
    want = [int(patchy.u[np.argmin(np.abs(pts - v))]) for v in x]
    np.testing.assert_array_equal(patchy.decide(x), want)
    assert [patchy.decide(v) for v in x] == want
    thr = Policy(grid=grid, u=np.array([2, 1, 1]))
    np.testing.assert_array_equal(thr.decide(np.array([0.5 - 1e-13, 0.49, 0.7])), [1, 2, 1])
    with pytest.raises(InvalidModel, match=r"decisions have shape \(4,\), not \(3,\)"):
        Policy(grid=grid, u=np.array([1, 2, 1, 1]))


def test_policy_rejects_fractional_decisions():
    grid = BeliefGrid(2)
    for u in ([1.5, 2, 1], [1.7, 2.2, 1.0], [1, 2, np.nan]):
        with pytest.raises(InvalidModel, match="decisions must be 1"):
            Policy(grid=grid, u=np.array(u))
    whole = Policy(grid=grid, u=np.array([1.0, 2.0, 1.0]))
    assert whole.u.dtype.kind == "i"
    assert whole.u.tolist() == [1, 2, 1]


@settings(max_examples=60)
@given(st.data())
def test_policy_is_its_decision_column(data):
    grid = BeliefGrid(data.draw(st.integers(1, 39)))
    pts = grid.points
    u = data.draw(st.lists(st.sampled_from([1, 2]), min_size=pts.size, max_size=pts.size))
    policy = Policy(grid=grid, u=np.array(u))
    np.testing.assert_array_equal(policy.decide(pts), u)
    assert (policy.threshold, policy.crossings) == extract_threshold(pts, u)


@settings(max_examples=200)
@given(st.data())
def test_nearest_point_decisions_are_the_searchsorted_rule(data):
    # with no single threshold, decide reads the grid through grid_stencil;
    # its index is the former searchsorted rule's at grid points, at exact
    # midpoints (ties go to the lower index) and one ulp either side of them,
    # one ulp inside and outside each end, at NaN, +-inf and -0.0
    grid = BeliefGrid(data.draw(st.integers(1, 60)))
    pts = grid.points
    u = np.array(data.draw(st.lists(st.sampled_from([1, 2]), min_size=pts.size,
                                    max_size=pts.size)))
    policy = Policy(grid=grid, u=u)
    assume(policy.threshold is None)
    mid = (pts[:-1] + pts[1:]) / 2
    x = np.concatenate([pts, mid, np.nextafter(mid, -1.0), np.nextafter(mid, 2.0),
                        np.nextafter([0.0, 0.0, 1.0, 1.0], [-1.0, 1.0, 0.0, 2.0]),
                        [np.nan, np.inf, -np.inf, -0.0]])
    want = u[nearest_point(pts, x)]
    np.testing.assert_array_equal(policy.decide(x), want)
    assert [policy.decide(v) for v in x] == want.tolist()


def test_evaluate_always_stop_exact(pd_kernel_small, pd_change, pd_costs):
    policy = always_stop_policy(pd_kernel_small.grid)
    table = evaluate_policy(pd_kernel_small, pd_change, pd_costs, policy)
    np.testing.assert_array_equal(
        table.values, pd_costs.f * (1.0 - table.grid.points)
    )


def test_evaluate_optimal_matches_value_iteration(
    pd_kernel_small, pd_change, pd_costs
):
    table, policy = value_iteration(pd_kernel_small, pd_change, pd_costs)
    ev = evaluate_policy(pd_kernel_small, pd_change, pd_costs, policy)
    assert np.abs(ev.values - table.values).max() <= 5e-8


def test_bellman_identity_at_fixed_point(pd_kernel_small, pd_change, pd_costs):
    table, _ = value_iteration(
        pd_kernel_small, pd_change, pd_costs, tol=1e-12
    )
    pts = table.grid.points
    t1, weights = _action_transitions(pd_kernel_small, pd_change)
    cont = pd_costs.d * pts + sum(
        w * np.interp(t, pts, table.values) for t, w in zip(t1, weights)
    )
    backup = np.minimum(pd_costs.f * (1.0 - pts), cont)
    assert np.abs(backup - table.values).max() <= 1e-9


def test_cost_scaling(pd_kernel_small, pd_change):
    c1 = DetectionCosts(f=5.0, d=1.0)
    c3 = DetectionCosts(f=15.0, d=3.0)
    t1_, p1 = value_iteration(pd_kernel_small, pd_change, c1, tol=1e-12)
    t3, p3 = value_iteration(pd_kernel_small, pd_change, c3, tol=1e-12)
    np.testing.assert_allclose(3.0 * t1_.values, t3.values, atol=1e-8)
    assert p1.threshold == p3.threshold


def test_slow_change_contraction(pd_frame, pd_params, pd_obs, pd_costs):
    # p = 0.05 stretches convergence out far enough to watch the sweep
    # deltas decay; replicate the iteration and compare
    change = ChangeModel(p=0.05)
    kernel = build_action_kernel(
        ActionMap(pd_frame, pd_params), change, pd_obs, BeliefGrid(100)
    )
    table, _ = value_iteration(kernel, change, pd_costs)

    pts = kernel.grid.points
    t1, weights = _action_transitions(kernel, change)
    V = np.zeros_like(pts)
    deltas = []
    for _ in range(10000):
        cont = pd_costs.d * pts + sum(
            w * np.interp(t, pts, V) for t, w in zip(t1, weights)
        )
        Vn = np.minimum(pd_costs.f * (1.0 - pts), cont)
        deltas.append(np.abs(Vn - V).max())
        V = Vn
        if deltas[-1] <= 1e-8:
            break
    assert table.sweeps == len(deltas) == 18
    tail = np.asarray(deltas[1:])
    assert (np.diff(tail) <= 1e-12).all()
    assert np.abs(V - table.values).max() <= 1e-12


def test_nonconvergence_reports_delta(pd_kernel_small, pd_change, pd_costs):
    with pytest.raises(NonConvergence) as exc:
        value_iteration(
            pd_kernel_small, pd_change, pd_costs, tol=1e-15, max_iter=1
        )
    assert exc.value.last_delta > 0.0
    assert str(exc.value).endswith("; one sweep gives no contraction rate)")


def _last_delta(kernel, change, costs, tol, max_iter):
    with pytest.raises(NonConvergence) as exc:
        value_iteration(kernel, change, costs, tol=tol, max_iter=max_iter)
    return exc.value


@pytest.mark.parametrize("max_iter", [2, 100, 1000])
def test_nonconvergence_names_the_observed_contraction(pd_frame, pd_params, pd_obs, max_iter):
    # the slow model, whose solve takes 8716 sweeps: the message's rho and
    # sweep count are what the last two deltas give, however far off they are
    change, costs, tol = ChangeModel(p=0.001), DetectionCosts(f=2000.0, d=1.0), 1e-8
    kernel = build_action_kernel(ActionMap(pd_frame, pd_params), change, pd_obs, BeliefGrid(50))
    prev = _last_delta(kernel, change, costs, tol, max_iter - 1).last_delta
    exc = _last_delta(kernel, change, costs, tol, max_iter)
    delta = exc.last_delta
    rho = delta / prev
    need = max_iter + math.ceil(math.log(tol / delta) / math.log(rho))
    assert str(exc) == (f"value iteration missed tolerance 1e-08 after {max_iter} sweeps "
                        f"(last delta {delta:.3g}; contraction rho = {rho:.6g} per sweep, at "
                        f"the observed rate about {need} sweeps in all would reach it)")


def test_nonconvergence_says_when_the_iteration_does_not_contract():
    # evidence weights summing to 1.5 with the belief fixed: each sweep of
    # the never-stopping policy adds 1.5 times the last change
    grid = BeliefGrid(4)
    transitions = (np.tile(grid.points, (2, 1)), np.full((2, grid.size), 0.75))
    with pytest.raises(NonConvergence) as exc:
        _iterate(grid, transitions, DetectionCosts(f=1.0, d=1.0), 1e-8, 5,
                 stop_mask=np.zeros(grid.size, bool))
    assert exc.value.last_delta == 1.5**4
    assert str(exc.value) == ("policy evaluation missed tolerance 1e-08 after 5 sweeps (last "
                              "delta 5.06; not contracting: the delta before it was 3.38)")


@pytest.mark.parametrize("p, f, n_cells", [(0.95, 5.0, 50), (0.05, 5.0, 100),
                                          (0.02, 50.0, 200), (0.95, 0.0, 50)])
def test_value_tables_carry_their_last_two_deltas(pd_frame, pd_params, pd_obs, p, f, n_cells):
    # a solve's table keeps the last sweep delta (<= tol) and the one before
    # it: the last delta of the same solve stopped one sweep short. At f = 0
    # every solver stops after one sweep, with no delta before it
    change, costs = ChangeModel(p), DetectionCosts(f, 1.0)
    kernel = build_action_kernel(ActionMap(pd_frame, pd_params), change, pd_obs,
                                 BeliefGrid(n_cells))
    policy = value_iteration(kernel, change, costs)[1]
    solves = (lambda m: value_iteration(kernel, change, costs, max_iter=m)[0],
              lambda m: classical_value_iteration(change, pd_obs, costs, kernel.grid,
                                                  max_iter=m)[0],
              lambda m: evaluate_policy(kernel, change, costs, policy, max_iter=m))
    for solve in solves:
        table = solve(MAX_ITER)
        assert table.last_delta <= VI_TOL
        assert (table.sweeps == 1) == (f == 0.0)
        if table.sweeps == 1:
            assert table.prev_delta == math.inf
            continue
        assert VI_TOL < table.prev_delta < math.inf
        with pytest.raises(NonConvergence) as exc:
            solve(table.sweeps - 1)
        assert exc.value.last_delta == table.prev_delta


@settings(max_examples=60)
@given(st.integers(2, 4), st.data())
def test_refining_the_grid_never_lowers_the_value(A, data):
    # Iterated from V = 0, the Bellman sweeps rise monotonically to their
    # fixed point, so the coarse solve lies below its grid's exact value.
    # The fine solve stops at a delta <= tol; at the contraction rho of its
    # last sweeps it is then within tol * rho / (1 - rho) of its own. With V
    # concave, the exact value on the 2N-grid is >= the N-grid's at every
    # shared point (Lovejoy 1991), so the fine solve on the N-grid's points
    # may fall short of the coarse one by that iteration error, plus the
    # rounding of the sums, 16 ulps of the largest value. Over 300 draws
    # like these the largest shortfall was 3.1e-15.
    draw = data.draw
    utility = draw(st.lists(st.floats(1.0, 30.0), min_size=2 * A, max_size=2 * A))
    params = PsychParams(alpha=draw(st.floats(0.1, 1.0)), lam=draw(st.floats(0.0, 50.0)),
                         phi=draw(st.floats(0.05, 0.95)))
    obs = ObservationModel(stochastic_rows(draw, (2, draw(st.integers(2, 4))), 1.0))
    change = ChangeModel(draw(st.floats(0.02, 0.9)))
    costs = DetectionCosts(f=draw(st.floats(1.0, 100.0)), d=1.0)
    n, tol = draw(st.integers(5, 60)), 1e-10
    try:
        amap = ActionMap(DecisionFrame(2, A, np.reshape(utility, (A, 2))), params)
    except NumericalFailure:
        assume(False)                           # the closed-form guard's refusal: no solve
    coarse, fine = (build_action_kernel(amap, change, obs, BeliefGrid(k)) for k in (n, 2 * n))
    V_n = value_iteration(coarse, change, costs, tol=tol)[0].values
    table, _ = value_iteration(fine, change, costs, tol=tol)
    assume(table.sweeps >= 3)                   # two deltas above tol give rho
    deltas = [_last_delta(fine, change, costs, tol, table.sweeps - k).last_delta
              for k in (2, 1)]
    rho = deltas[1] / deltas[0]
    assert rho < 1.0
    margin = tol * rho / (1.0 - rho) + 16 * np.spacing(V_n.max())
    shortfall = float((V_n - table.values[::2]).max())
    assert shortfall <= margin, (shortfall, margin, rho)


def oracle_iterate(points, transitions, costs, tol, max_iter, stop_mask=None):
    # the Bellman loop with one np.interp per evidence value, summed in Python
    t1, weights = transitions
    stop_cost = costs.f * (1.0 - points)
    delay_cost = costs.d * points
    fixed = stop_mask is not None
    V = np.where(stop_mask, stop_cost, 0.0) if fixed else np.zeros_like(points)
    for sweep in range(1, max_iter + 1):
        cont = delay_cost + sum(w * np.interp(t, points, V) for t, w in zip(t1, weights))
        Vn = np.where(stop_mask, stop_cost, cont) if fixed else np.minimum(stop_cost, cont)
        delta = np.abs(Vn - V).max()
        V = Vn
        if delta <= tol:
            break
    else:
        return None, float(delta)
    cont = delay_cost + sum(w * np.interp(t, points, V) for t, w in zip(t1, weights))
    u = np.where(stop_cost <= cont, 1, 2)
    return (V, sweep, u, *extract_threshold(points, u)), None


def assert_matches_oracle(solve, oracle):
    # solve returns (table, policy), or the table alone for a fixed policy
    expected, missed = oracle
    if expected is None:
        with pytest.raises(NonConvergence) as exc:
            solve()
        assert exc.value.last_delta == missed
        return
    V, sweeps, u, threshold, crossings = expected
    result = solve()
    table, policy = result if isinstance(result, tuple) else (result, None)
    assert table.values.tobytes() == V.tobytes()
    assert table.sweeps == sweeps
    if policy is not None:
        np.testing.assert_array_equal(policy.u, u)
        assert policy.threshold == threshold
        assert policy.crossings == crossings


def stochastic_rows(draw, shape, concentration):
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).dirichlet(np.full(shape[-1], concentration), shape[:-1])


@settings(max_examples=40)
@given(st.data())
def test_iterate_matches_per_evidence_oracle(data):
    # small concentrations give exact zeros: impossible evidence and flat rows
    draw = data.draw
    grid = BeliefGrid(draw(st.integers(1, 40)))
    pts = grid.points
    A, n_obs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    concentration = draw(st.sampled_from([0.05, 1.0, 20.0]))
    kernel = ActionKernel(grid=grid, table=stochastic_rows(draw, (2, grid.size, A), concentration))
    obs = ObservationModel(stochastic_rows(draw, (2, n_obs), concentration))
    change = ChangeModel(draw(st.floats(0.0, 1.0, exclude_min=True)))
    costs = DetectionCosts(f=draw(st.floats(0.0, 100.0)), d=draw(st.floats(0.0, 10.0)))
    tol, max_iter = 1e-8, 300                  # slow changes may miss it: both must then raise

    actions = _action_transitions(kernel, change)
    assert_matches_oracle(lambda: value_iteration(kernel, change, costs, tol, max_iter),
                          oracle_iterate(pts, actions, costs, tol, max_iter))
    observations = _transitions(pts, obs.B[0][:, None], obs.B[1][:, None], change.p)
    assert_matches_oracle(
        lambda: classical_value_iteration(change, obs, costs, grid, tol, max_iter),
        oracle_iterate(pts, observations, costs, tol, max_iter))

    u = draw(st.lists(st.sampled_from([1, 2]), min_size=grid.size, max_size=grid.size))
    policy = Policy(grid=grid, u=u)
    mask = policy.decide(pts) == 1
    oracle = oracle_iterate(pts, actions, costs, tol, max_iter, stop_mask=mask)
    assert_matches_oracle(lambda: _iterate(grid, actions, costs, tol, max_iter, stop_mask=mask),
                          oracle)
    assert_matches_oracle(lambda: evaluate_policy(kernel, change, costs, policy, tol, max_iter),
                          oracle)


def check_solve_path(frame, params, grid, change, obs, costs):
    kernel = build_action_kernel(ActionMap(frame, params), change, obs, grid)
    table, policy = value_iteration(kernel, change, costs)
    V = table.values
    assert np.all(V <= costs.f * (1.0 - grid.points))
    assert (V[2:] - 2.0 * V[1:-1] + V[:-2]).max() <= 1e-7        # criterion 5's cap
    assert policy.crossings <= 1


@settings(max_examples=50)
@given(st.integers(1, 4), st.data())
def test_solve_path_value_is_capped_concave_with_one_crossing(pd_change, pd_obs, pd_costs,
                                                              A, data):
    # criterion 5's parameter domain and model, on random two-state frames
    # with up to four actions and grids of up to 100 cells
    utility = data.draw(st.lists(st.floats(1.0, 30.0), min_size=2 * A, max_size=2 * A))
    params = PsychParams(alpha=data.draw(st.floats(0.1, 1.0)),
                         lam=data.draw(st.floats(0.0, 100.0)), phi=data.draw(st.floats(0.0, 1.0)))
    grid = BeliefGrid(data.draw(st.integers(2, 100)))
    try:
        check_solve_path(DecisionFrame(2, A, np.reshape(utility, (A, 2))), params, grid,
                         pd_change, pd_obs, pd_costs)
    except NumericalFailure as exc:
        # the closed-form guard's typed refusal, as at alpha = 1 with phi near
        # 0 (README, exit 3): there is no solve to check
        assert "misses its closed form" in str(exc)


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="at alpha * phi near 1e-9 the steady-state probes do not settle "
                          "by t = 5.2e7, so solve ends in NonConvergence, even for this "
                          "one-action frame whose only action distribution is [1]")
def test_solve_path_one_action_frame_at_tiny_phi(pd_change, pd_obs, pd_costs):
    # the counterexample that random runs of the property above found
    check_solve_path(DecisionFrame(2, 1, np.ones((1, 2))),
                     PsychParams(alpha=1.0, lam=0.0, phi=1e-9), BeliefGrid(2),
                     pd_change, pd_obs, pd_costs)
