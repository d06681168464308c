"""Filtering-protocol tests: belief updates, the action-likelihood kernel,
mixtures, and episode simulation.

The lockstep simulator is checked against the scalar per-episode loop it
replaced, kept here as the oracle: change and stop times, costs and each
step's private posterior, public belief and decision must be equal, not
close. The steps are seen through a recording policy and a recording
ActionMap patched into qdetect.protocol.

The kernel oracle recomputes steady states by long-time evolution at every
posterior instead of the vertex readout the builder uses; the consistency
identity ties the public update to the private one through two independently
computed sides.
"""

import faulthandler
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdetect import (
    ActionKernel,
    ActionMap,
    BeliefGrid,
    ChangeModel,
    DecisionFrame,
    DetectionCosts,
    ImpossibleAction,
    ImpossibleObservation,
    InvalidModel,
    NumericalFailure,
    ObservationModel,
    ParameterMixture,
    Policy,
    PsychParams,
    RunawayEpisode,
    build_action_kernel,
    build_mismatched_kernel,
    estimate_cost,
    evolve,
    maximally_mixed,
    private_belief_update,
    public_belief_update,
    simulate_episode,
    simulate_episodes,
    value_iteration,
)
from qdetect.protocol import (
    _draw, _transitions, bayes_step, grid_interp, grid_slopes, grid_stencil,
)
from qdetect.quantum import assemble_lindbladian

from oracles import always_stop_policy, observation_likelihood, predict


def test_change_model_matrix_and_prior():
    change = ChangeModel(p=0.95)
    np.testing.assert_allclose(
        change.P, np.array([[1.0, 0.0], [0.95, 0.05]]), atol=1e-15
    )
    np.testing.assert_array_equal(change.pi0, np.array([0.0, 1.0]))
    assert abs(change.mean_change_time - 1.0 / 0.95) <= 1e-15
    np.testing.assert_allclose(
        predict(change, np.array([0.2, 0.8])), [0.2 + 0.95 * 0.8, 0.05 * 0.8],
        atol=1e-15,
    )


def test_change_model_rejects_bad_probability():
    with pytest.raises(InvalidModel):
        ChangeModel(p=0.0)
    with pytest.raises(InvalidModel):
        ChangeModel(p=1.2)
    assert ChangeModel(p=1.0).mean_change_time == 1.0


def test_observation_model_validation():
    with pytest.raises(InvalidModel):
        ObservationModel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InvalidModel):
        ObservationModel(np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(InvalidModel, match=">= 0"):
        ObservationModel(np.array([[np.nan, 0.5], [0.5, 0.5]]))
    with pytest.raises(InvalidModel, match="sum to 1"):
        ObservationModel(np.array([[np.inf, 0.5], [0.5, 0.5]]))


def test_costs_validation():
    with pytest.raises(InvalidModel):
        DetectionCosts(f=-1.0, d=1.0)
    with pytest.raises(InvalidModel):
        DetectionCosts(f=1.0, d=float("nan"))
    DetectionCosts(f=0.0, d=0.0)   # zero costs are legitimate


def test_grid_points():
    grid = BeliefGrid(n_cells=4)
    np.testing.assert_allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.size == 5
    with pytest.raises(InvalidModel):
        BeliefGrid(n_cells=0)
    # built once, shared read-only; a grid still compares and hashes by n_cells
    assert grid.points is grid.points
    with pytest.raises(ValueError, match="read-only"):
        grid.points[1] = 0.3
    assert grid == BeliefGrid(4) and hash(grid) == hash(BeliefGrid(4))
    assert grid != BeliefGrid(5)
    assert repr(grid) == "BeliefGrid(n_cells=4)"


def grid_tables(rng, size):
    """A random finite table on a grid of `size` points: a scale over many
    decades, exact zeros and flat runs, and either sign. -0.0 entries come
    only in tables with no negative entry, as every table the program reads
    is >= 0: a -0.0 followed by a negative entry is the one read on a grid
    point where the stencil gives +0.0 and np.interp -0.0."""
    F = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 13)
    F[rng.random(size) < rng.random()] = 0.0
    flat = np.flatnonzero(rng.random(size) < rng.random())
    F[flat[flat > 0]] = F[flat[flat > 0] - 1]
    if rng.random() < 0.5:
        F = np.abs(F)
        F[rng.random(size) < 0.3] = -0.0
    return F


def grid_queries(rng, x):
    """Random queries, every grid point, one ulp above each, and the two
    ends and beyond them."""
    return np.concatenate([rng.random(64), x, np.nextafter(x, np.inf),
                           [0.0, 1.0, -0.0, -1e-300, -0.5, 1.0 + 1e-16, 1.5, 1e300]])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=120)
@given(st.integers(1, 1200), st.integers(0, 2**32 - 1))
def test_grid_interp_is_np_interp_bit_for_bit(n_cells, seed):
    rng = np.random.default_rng(seed)
    x = BeliefGrid(n_cells).points
    F = grid_tables(rng, x.size)
    q = grid_queries(rng, x)
    slopes = grid_slopes(F, np.diff(x))
    assert slopes[-1] == 0.0 and np.all(np.isfinite(slopes))
    assert same_bits(grid_interp(F, slopes, grid_stencil(x, q)), np.interp(q, x, F))
    # query shapes: a scalar reads a scalar, a 2-D block reads a 2-D block
    assert same_bits(grid_interp(F, slopes, grid_stencil(x, q[5])), np.interp(q[5], x, F))
    block = q[: 2 * (q.size // 2)].reshape(2, -1)
    assert same_bits(grid_interp(F, slopes, grid_stencil(x, block)), np.interp(block, x, F))
    # the one buffer a Bellman loop reuses across sweeps
    buf = np.full_like(F, np.nan)
    assert grid_slopes(F, np.diff(x), buf) is buf and same_bits(buf, slopes)


@settings(max_examples=80)
@given(st.integers(1, 1200), st.integers(1, 4), st.sampled_from([0.05, 1.0, 20.0]),
       st.integers(0, 2**32 - 1))
def test_kernel_at_matches_per_column_interp(n_cells, A, concentration, seed):
    # the read it replaced: one np.interp per (state, action) column
    rng = np.random.default_rng(seed)
    grid = BeliefGrid(n_cells)
    kernel = ActionKernel(grid, rng.dirichlet(np.full(A, concentration), (2, grid.size)))
    pts = grid.points

    def oracle(pi1):
        return np.array([[np.interp(pi1, pts, col) for col in R_x.T] for R_x in kernel.table])

    q = grid_queries(rng, pts)
    assert same_bits(kernel.at(q), oracle(q))                 # simulate_episodes' shape
    for pi1 in rng.choice(q, 8):                              # public_belief_update's scalar
        assert same_bits(kernel.at(float(pi1)), oracle(float(pi1)))
        assert kernel.at(float(pi1)).shape == (2, A)


def test_private_update_absorbing(pd_change, pd_obs):
    for y in (1, 2, 3):
        post = private_belief_update(np.array([1.0, 0.0]), y, pd_change, pd_obs)
        np.testing.assert_allclose(post, [1.0, 0.0], atol=1e-15)


def test_private_update_uninformative():
    change = ChangeModel(p=0.95)
    obs = ObservationModel(np.full((2, 3), 1.0 / 3.0))
    pi = np.array([0.3, 0.7])
    for y in (1, 2, 3):
        post = private_belief_update(pi, y, change, obs)
        np.testing.assert_allclose(post, predict(change, pi), atol=1e-15)


def test_private_update_frozen_value(pd_change, pd_obs):
    # prediction from (0.5, 0.5): (0.5 + 0.95*0.5, 0.05*0.5) = (0.975, 0.025);
    # y = 1 likelihoods (0.60, 0.15): posterior = (0.585, 0.00375) / 0.58875
    post = private_belief_update(np.array([0.5, 0.5]), 1, pd_change, pd_obs)
    assert abs(post[0] - 0.9936305732484076) <= 1e-15
    assert abs(post.sum() - 1.0) <= 1e-12
    assert abs(
        observation_likelihood(np.array([0.5, 0.5]), 1, pd_change, pd_obs)
        - 0.58875
    ) <= 1e-15


def test_private_update_impossible_observation():
    change = ChangeModel(p=0.95)
    obs = ObservationModel(np.array([[0.5, 0.5, 0.0], [0.2, 0.2, 0.6]]))
    with pytest.raises(ImpossibleObservation) as info:
        private_belief_update(np.array([1.0, 0.0]), 3, change, obs)
    assert info.value.observation == 3
    np.testing.assert_array_equal(info.value.belief, [1.0, 0.0])


def test_kernel_rows_sum_and_interpolation(pd_kernel_small):
    table = pd_kernel_small.table
    assert np.abs(table.sum(axis=2) - 1.0).max() <= 1e-9
    assert table.min() >= 0.0
    pts = pd_kernel_small.grid.points
    np.testing.assert_allclose(pd_kernel_small.at(pts[7]), table[:, 7, :], atol=1e-15)
    mid = 0.5 * (pts[7] + pts[8])
    np.testing.assert_allclose(
        pd_kernel_small.at(mid), 0.5 * (table[:, 7, :] + table[:, 8, :]),
        atol=1e-12,
    )


@st.composite
def kernel_models(draw):
    # the change model has two states, so the frame does too; actions and
    # observations range up to 4, phi as in the quantum oracle property
    A = draw(st.integers(1, 4))
    u = draw(st.lists(st.floats(1.0, 30.0), min_size=2 * A, max_size=2 * A))
    params = PsychParams(
        alpha=draw(st.floats(0.05, 1.0, exclude_min=True)),
        lam=draw(st.floats(0.0, 50.0)),
        phi=draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0 - 1e-3)),
    )
    m = draw(st.integers(1, 4))
    B = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * m, max_size=2 * m)), (2, m))
    B[:, 0] += 1e-3                         # every row keeps some mass
    return (DecisionFrame(2, A, np.reshape(u, (A, 2))), params,
            ChangeModel(draw(st.floats(1e-3, 1.0))),
            ObservationModel(B / B.sum(axis=1, keepdims=True)),
            BeliefGrid(draw(st.integers(1, 30))))


@settings(max_examples=25)
@given(kernel_models())
def test_kernel_rows_stochastic_on_random_frames(model):
    frame, params, change, obs, grid = model
    table = build_action_kernel(frame, params, change, obs, grid).table
    assert table.shape == (2, grid.size, frame.n_actions)
    assert table.min() >= 0.0
    assert np.abs(table.sum(axis=2) - 1.0).max() <= 1e-12


UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200)
@given(UNIT, UNIT, UNIT, st.floats(0.0, 1.0, exclude_min=True))
def test_bayes_step_posteriors_stay_in_unit_interval(pi1, like1, like2, p):
    pred1, num1, num2, sigma = bayes_step(pi1, 1.0 - pi1, like1, like2, p)
    assert 0.0 <= pred1 <= 1.0
    if sigma > 0:
        assert 0.0 <= num1 / sigma <= 1.0
        assert 0.0 <= num2 / sigma <= 1.0
    post, marginal = _transitions(np.array([pi1]), np.array([[like1]]), np.array([[like2]]), p)
    assert 0.0 <= post[0, 0] <= 1.0
    assert marginal[0, 0] == sigma


def test_kernel_belief_free_when_uncoupled(pd_frame, pd_change, pd_obs):
    # phi = 0 removes belief dependence, so the kernel cannot distinguish
    # states and is flat across the grid
    kernel = build_action_kernel(
        pd_frame, PsychParams(0.812, 10.495, 0.0), pd_change, pd_obs,
        BeliefGrid(8),
    )
    np.testing.assert_allclose(kernel.table[0], kernel.table[1], atol=1e-8)
    spread = np.abs(kernel.table - kernel.table[:, :1, :]).max()
    assert spread <= 1e-8


def test_kernel_matches_long_time_evolution(
    pd_frame, pd_params, pd_change, pd_obs
):
    # independent oracle: steady state per observation via expm propagation
    grid = BeliefGrid(4)
    kernel = build_action_kernel(pd_frame, pd_params, pd_change, pd_obs, grid)
    i = 2                                   # grid point pi(1) = 0.5
    pi = np.array([0.5, 0.5])
    R = np.zeros((2, 2))
    for y in (1, 2, 3):
        eta = private_belief_update(pi, y, pd_change, pd_obs)
        L = assemble_lindbladian(pd_frame, pd_params, eta)
        rho = evolve(L, maximally_mixed(pd_frame), 400.0)
        gamma = np.real(np.diag(rho)).reshape(2, 2).sum(axis=0)
        for x in range(2):
            R[x] += gamma * pd_obs.B[x, y - 1]
    np.testing.assert_allclose(kernel.table[:, i, :], R, atol=1e-8)


def test_mismatched_kernel_point_mass(
    pd_frame, pd_params, pd_change, pd_obs, small_grid, pd_kernel_small
):
    mix = ParameterMixture(((pd_params, 1.0),))
    khat = build_mismatched_kernel(
        pd_frame, mix, pd_change, pd_obs, small_grid
    )
    assert np.abs(khat.table - pd_kernel_small.table).max() <= 1e-12


def test_mismatched_kernel_two_atoms(pd_frame, pd_change, pd_obs):
    grid = BeliefGrid(16)
    p1 = PsychParams(0.812, 10.495, 0.9)
    p2 = PsychParams(0.7, 10.495, 0.9)
    k1 = build_action_kernel(pd_frame, p1, pd_change, pd_obs, grid)
    k2 = build_action_kernel(pd_frame, p2, pd_change, pd_obs, grid)

    half = build_mismatched_kernel(
        pd_frame, ParameterMixture(((p1, 0.5), (p2, 0.5))), pd_change, pd_obs,
        grid,
    )
    np.testing.assert_allclose(
        half.table, 0.5 * (k1.table + k2.table), atol=1e-12
    )

    # brute-force double sum over atoms and observations as oracle
    mix = ParameterMixture(((p1, 0.8), (p2, 0.2)))
    khat = build_mismatched_kernel(pd_frame, mix, pd_change, pd_obs, grid)
    amaps = {p1: ActionMap(pd_frame, p1), p2: ActionMap(pd_frame, p2)}
    R = np.zeros_like(khat.table)
    for params, weight in mix.atoms:
        for i, pi1 in enumerate(grid.points):
            for y in (1, 2, 3):
                eta = private_belief_update(
                    np.array([pi1, 1.0 - pi1]), y, pd_change, pd_obs
                )
                gamma = amaps[params](eta)
                for x in range(2):
                    R[x, i] += weight * gamma * pd_obs.B[x, y - 1]
    assert np.abs(khat.table - R).max() <= 1e-10


def test_mixture_validation(pd_params):
    with pytest.raises(InvalidModel):
        ParameterMixture(((pd_params, 0.6), (pd_params, 0.6)))
    with pytest.raises(InvalidModel):
        ParameterMixture(((pd_params, -0.2), (pd_params, 1.2)))
    with pytest.raises(InvalidModel, match=">= 0"):
        ParameterMixture(((pd_params, np.nan), (pd_params, 1.0)))
    with pytest.raises(InvalidModel, match="sum to 1"):
        ParameterMixture(((pd_params, np.inf), (pd_params, 1.0)))
    with pytest.raises(InvalidModel):
        ParameterMixture(())


def test_public_update_absorbing(pd_change, pd_kernel_small):
    for a in (1, 2):
        post, sbar = public_belief_update(
            np.array([1.0, 0.0]), a, pd_change, pd_kernel_small
        )
        np.testing.assert_allclose(post, [1.0, 0.0], atol=1e-15)
        assert sbar > 0.0


def test_public_update_uninformative_kernel(pd_change):
    grid = BeliefGrid(10)
    table = np.tile(np.array([0.4, 0.6]), (2, grid.size, 1))
    kernel = ActionKernel(grid=grid, table=table)
    pi = np.array([0.3, 0.7])
    for a in (1, 2):
        post, sbar = public_belief_update(pi, a, pd_change, kernel)
        np.testing.assert_allclose(post, predict(pd_change, pi), atol=1e-15)


def test_public_update_consistency_identity(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_small, pd_action_map
):
    # the public posterior decomposes over the private posteriors:
    # T_bar(pi, a) = sum_y T(pi, y) sigma(pi, y) Gamma_y(a) / sigma_bar(pi, a)
    rng = np.random.default_rng(17)
    pts = pd_kernel_small.grid.points
    for i in rng.choice(pts.size, size=100):
        pi = np.array([pts[i], 1.0 - pts[i]])
        posts = []
        sigs = []
        gammas = []
        for y in (1, 2, 3):
            eta = private_belief_update(pi, y, pd_change, pd_obs)
            posts.append(eta)
            sigs.append(observation_likelihood(pi, y, pd_change, pd_obs))
            gammas.append(pd_action_map(eta))
        for a in (1, 2):
            sbar_direct = sum(
                s * g[a - 1] for s, g in zip(sigs, gammas)
            )
            rhs = sum(
                t * s * g[a - 1] for t, s, g in zip(posts, sigs, gammas)
            ) / sbar_direct
            lhs, sbar = public_belief_update(pi, a, pd_change, pd_kernel_small)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)
            assert abs(sbar - sbar_direct) <= 1e-9


def test_public_update_martingale_drift(pd_change, pd_kernel_small):
    # E[pi'(1) | pi] = prediction(1) >= pi(1): belief drifts toward the
    # absorbing state on average
    pts = pd_kernel_small.grid.points
    for pi1 in pts[:-1]:
        pi = np.array([pi1, 1.0 - pi1])
        total = 0.0
        for a in (1, 2):
            post, sbar = public_belief_update(pi, a, pd_change, pd_kernel_small)
            total += sbar * post[0]
        pred1 = predict(pd_change, pi)[0]
        assert abs(total - pred1) <= 1e-12
        assert total >= pi1 - 1e-12


Episode = namedtuple("Episode", "change_time stop_time records cost")


class StepRecorder:
    """A policy that records what simulate_episodes hands it and, through
    action_map (an ActionMap patched into qdetect.protocol), the private
    posteriors of the running episodes: each step's eta1 and pi1 arrays and
    the decisions u."""

    def __init__(self, policy):
        self.policy = policy
        self.eta1, self.pi1, self.u = [], [], []
        recorder = self

        class RecordingActionMap(ActionMap):
            def batch(self, beliefs):
                recorder.eta1.append(np.array(beliefs)[:, 0])
                return super().batch(beliefs)

        self.action_map = RecordingActionMap

    def decide(self, pi1):
        u = self.policy.decide(pi1)
        self.pi1.append(np.array(pi1))
        self.u.append(u)
        return u

    def episodes(self, batch):
        """Each episode's records (eta1, pi1, u) in step order, as plain
        floats and ints: the running set at step n is every episode with
        stop_time >= n, in index order."""
        stop = batch.stop_time
        assert len(self.eta1) == len(self.pi1) == len(self.u) == stop.max()
        steps = [dict(zip(np.flatnonzero(stop >= n).tolist(),
                          zip(*(v.tolist() for v in values), strict=True), strict=True))
                 for n, values in enumerate(zip(self.eta1, self.pi1, self.u), 1)]
        records = [tuple(step[i] for step in steps[:t]) for i, t in enumerate(stop.tolist())]
        return [Episode(*e) for e in zip(batch.change_time.tolist(), stop.tolist(), records,
                                         batch.cost.tolist())]


def _simulate(frame, params, change, obs, policy, kernel, seeds, costs=None):
    """simulate_episodes under a StepRecorder, as one Episode per seed."""
    recorder = StepRecorder(policy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("qdetect.protocol.ActionMap", recorder.action_map)
        batch = simulate_episodes(frame, params, change, obs, recorder, kernel, seeds,
                                  costs=costs)
    return recorder.episodes(batch)


def test_simulate_always_stop(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_small, pd_costs,
):
    policy = always_stop_policy(pd_kernel_small.grid)
    alarms = 0
    n = 400
    for seed in range(n):
        trace, = _simulate(
            pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_small,
            [seed], costs=pd_costs,
        )
        assert trace.stop_time == 1
        assert len(trace.records) == 1
        assert trace.records[0][-1] == 1
        expected = pd_costs.f if trace.change_time > 1 else 0.0
        assert trace.cost == expected
        alarms += int(trace.stop_time < trace.change_time)
    # P(tau0 > 1) = 1 - p = 0.05; allow 3 sigma binomial slack
    rate = alarms / n
    assert abs(rate - 0.05) <= 3 * np.sqrt(0.05 * 0.95 / n)


def test_simulate_runaway(monkeypatch, pd_frame, pd_params, pd_change, pd_obs,
                          pd_kernel_small):
    monkeypatch.setattr("qdetect.protocol.MAX_STEPS", 25)
    grid = pd_kernel_small.grid
    never_stop = Policy(grid=grid, u=np.full(grid.size, 2))
    with pytest.raises(RunawayEpisode):
        simulate_episode(
            pd_frame, pd_params, pd_change, pd_obs, never_stop,
            pd_kernel_small, 1,
        )


def test_simulate_forced_immediate_change(
    pd_frame, pd_params, pd_obs, pd_kernel_small, pd_costs
):
    # p = 1 forces tau0 = 1, so stopping immediately never false-alarms
    change = ChangeModel(p=1.0)
    policy = always_stop_policy(pd_kernel_small.grid)
    for seed in range(50):
        batch = simulate_episode(
            pd_frame, pd_params, change, pd_obs, policy, pd_kernel_small,
            seed, costs=pd_costs,
        )
        assert batch.change_time.tolist() == [1]
        assert batch.cost.tolist() == [0.0]


def test_simulate_trace_bookkeeping(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_small, pd_costs,
):
    _, policy = value_iteration(pd_kernel_small, pd_change, pd_costs)
    trace, = _simulate(
        pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_small,
        [12345], costs=pd_costs,
    )
    assert len(trace.records) == trace.stop_time
    assert trace.records[-1][-1] == 1
    assert all(r[-1] == 2 for r in trace.records[:-1])
    expected = pd_costs.d * max(trace.stop_time - trace.change_time, 0) + (
        pd_costs.f if trace.stop_time < trace.change_time else 0.0
    )
    assert trace.cost == expected


def test_estimate_cost_matches_dynamic_program(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_small, pd_costs
):
    table, policy = value_iteration(pd_kernel_small, pd_change, pd_costs)
    mean, stderr = estimate_cost(
        pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_small,
        pd_costs, n_episodes=1200, seed=42,
    )
    assert abs(mean - table.values[0]) <= 3 * stderr


def test_estimate_cost_seed_reproducibility(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_small, pd_costs
):
    policy = always_stop_policy(pd_kernel_small.grid)
    a = estimate_cost(
        pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_small,
        pd_costs, n_episodes=60, seed=7,
    )
    b = estimate_cost(
        pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_small,
        pd_costs, n_episodes=60, seed=7,
    )
    assert a == b


def test_estimate_cost_variance_shrinks(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_small, pd_costs
):
    policy = always_stop_policy(pd_kernel_small.grid)
    _, se_small = estimate_cost(
        pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_small,
        pd_costs, n_episodes=200, seed=3,
    )
    _, se_big = estimate_cost(
        pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_small,
        pd_costs, n_episodes=800, seed=3,
    )
    # quadrupling episodes should roughly halve the standard error
    assert se_big < se_small
    assert 1.3 <= se_small / se_big <= 3.2


def _oracle_episode(
    frame,
    params,
    change,
    obs,
    policy,
    kernel,
    seed,
    costs=None,
    action_map=None,
    step_cap=None,
):
    # the scalar loop simulate_episode ran before the lockstep simulator
    rng = np.random.default_rng(seed)
    amap = action_map if action_map is not None else ActionMap(frame, params)
    if step_cap is None:
        step_cap = int(10 * change.mean_change_time + 1000)
    f = costs.f if costs is not None else 0.0
    d = costs.d if costs is not None else 0.0

    tau0 = int(rng.geometric(change.p))
    pi = change.pi0
    records = []
    n = 0
    while True:
        n += 1
        if n > step_cap:
            raise RunawayEpisode(f"no stop after {step_cap} steps")
        x = 1 if n >= tau0 else 2
        y = int(rng.choice(obs.n_obs, p=obs.B[x - 1])) + 1
        eta = private_belief_update(pi, y, change, obs)
        gamma = amap(eta)
        a = int(rng.choice(gamma.size, p=gamma)) + 1
        pi, _ = public_belief_update(pi, a, change, kernel)
        u = policy.decide(pi[0])
        records.append((float(eta[0]), float(pi[0]), u))
        if u == 1:
            break
    tau = n
    cost = d * max(tau - tau0, 0) + (f if tau < tau0 else 0.0)
    return Episode(
        change_time=tau0, stop_time=tau, records=tuple(records), cost=float(cost)
    )


@pytest.fixture(scope="module")
def slow_change():
    # the benchmark's long-episode model: change after 50 steps on average
    return ChangeModel(p=0.02)


@pytest.fixture(scope="module")
def slow_kernel(pd_frame, pd_params, slow_change, pd_obs):
    return build_action_kernel(pd_frame, pd_params, slow_change, pd_obs, BeliefGrid(200))


@pytest.fixture(scope="module")
def slow_policy(slow_kernel, slow_change):
    _, policy = value_iteration(slow_kernel, slow_change, DetectionCosts(f=50.0, d=1.0))
    assert policy.threshold is not None
    return policy


def _assert_matches_oracle(frame, params, change, obs, policy, kernel, costs, seed,
                           n=200):
    seeds = np.random.SeedSequence(seed).spawn(n)
    amap = ActionMap(frame, params)
    traces = _simulate(frame, params, change, obs, policy, kernel, seeds, costs=costs)
    assert len(traces) == n
    for s, trace in zip(seeds, traces):
        want = _oracle_episode(frame, params, change, obs, policy, kernel, s,
                               costs=costs, action_map=amap)
        assert trace == want
        assert all(type(v) is type(w) for r, q in zip(trace.records, want.records)
                   for v, w in zip(r, q))
    return traces


def test_lockstep_matches_oracle_threshold_policy(
    pd_frame, pd_params, slow_change, pd_obs, slow_kernel, slow_policy
):
    traces = _assert_matches_oracle(
        pd_frame, pd_params, slow_change, pd_obs, slow_policy, slow_kernel,
        DetectionCosts(f=50.0, d=1.0), seed=2024,
    )
    # the batch mixes stop times, false alarms and detections
    taus = [t.stop_time for t in traces]
    assert min(taus) < max(taus)
    assert any(t.stop_time < t.change_time for t in traces)
    assert any(t.stop_time >= t.change_time for t in traces)


def test_lockstep_matches_oracle_nearest_grid_policy(
    pd_frame, pd_params, slow_change, pd_obs, slow_kernel
):
    pts = slow_kernel.grid.points
    u = np.where(((pts >= 0.3) & (pts <= 0.35)) | (pts >= 0.8), 1, 2)
    patchy = Policy(grid=slow_kernel.grid, u=u)
    _assert_matches_oracle(
        pd_frame, pd_params, slow_change, pd_obs, patchy, slow_kernel,
        DetectionCosts(f=50.0, d=1.0), seed=7,
    )


def test_lockstep_matches_oracle_always_stop(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_small, pd_costs
):
    _assert_matches_oracle(
        pd_frame, pd_params, pd_change, pd_obs,
        always_stop_policy(pd_kernel_small.grid), pd_kernel_small, pd_costs, seed=3,
    )


def test_lockstep_matches_oracle_immediate_change(pd_frame, pd_params, pd_obs, pd_costs):
    change = ChangeModel(p=1.0)
    kernel = build_action_kernel(pd_frame, pd_params, change, pd_obs, BeliefGrid(50))
    _, policy = value_iteration(kernel, change, pd_costs)
    traces = _assert_matches_oracle(
        pd_frame, pd_params, change, pd_obs, policy, kernel, pd_costs, seed=11,
    )
    assert all(t.change_time == 1 for t in traces)


def test_lockstep_matches_oracle_readme_model(
    pd_frame, pd_params, pd_change, pd_obs, pd_kernel_full, pd_costs
):
    _, policy = value_iteration(pd_kernel_full, pd_change, pd_costs)
    _assert_matches_oracle(
        pd_frame, pd_params, pd_change, pd_obs, policy, pd_kernel_full, pd_costs,
        seed=11,
    )


@st.composite
def lockstep_models(draw):
    # observation tables of 2-4 columns with exact zeros in them, frames of
    # up to three actions (beyond that a batched and a one-row product may
    # round differently on some BLAS builds, see the README)
    A = draw(st.integers(1, 3))
    frame = DecisionFrame(2, A, np.reshape(
        draw(st.lists(st.floats(1.0, 30.0), min_size=2 * A, max_size=2 * A)), (A, 2)))
    m = draw(st.integers(2, 4))
    w = np.reshape(draw(st.lists(st.integers(0, 3), min_size=2 * m, max_size=2 * m)),
                   (2, m)).astype(float)
    w[:, draw(st.integers(0, m - 1))] += 1.0        # every row keeps some mass
    change = ChangeModel(draw(st.sampled_from([1.0, 0.3, 0.02])))
    grid = BeliefGrid(draw(st.integers(10, 60)))
    # every policy stops above `top`, which the public belief reaches even
    # when the actions carry no information
    top = draw(st.floats(0.5, 0.95))
    u = np.where(grid.points >= top, 1, 2)
    if draw(st.booleans()):                         # patchy: a stopping band below `top`
        lo = draw(st.floats(0.0, 0.5))
        u[(grid.points >= lo) & (grid.points <= lo + draw(st.floats(0.0, 0.1)))] = 1
    return frame, change, ObservationModel(w / w.sum(axis=1, keepdims=True)), grid, u


@settings(max_examples=50)
@given(lockstep_models(), st.integers(0, 2**32 - 1))
def test_lockstep_matches_oracle_on_random_observation_models(pd_params, model, seed):
    frame, change, obs, grid, u = model
    kernel = build_action_kernel(frame, pd_params, change, obs, grid)
    _assert_matches_oracle(frame, pd_params, change, obs, Policy(grid=grid, u=u),
                           kernel, DetectionCosts(f=20.0, d=1.0), seed, n=16)


def test_estimate_cost_equals_oracle(
    pd_frame, pd_params, slow_change, pd_obs, slow_kernel, slow_policy
):
    costs = DetectionCosts(f=50.0, d=1.0)
    n = 200
    realized = np.array([
        _oracle_episode(pd_frame, pd_params, slow_change, pd_obs, slow_policy,
                        slow_kernel, s, costs=costs).cost
        for s in np.random.SeedSequence(5).spawn(n)
    ])
    want = (float(realized.mean()), float(realized.std(ddof=1) / np.sqrt(n)))
    got = estimate_cost(pd_frame, pd_params, slow_change, pd_obs, slow_policy,
                        slow_kernel, costs, n_episodes=n, seed=5)
    assert got == want


def test_lockstep_impossible_action(pd_frame, pd_params, pd_change, pd_obs):
    # the kernel says action 2 never happens, but the agent plays it
    grid = BeliefGrid(20)
    table = np.zeros((2, grid.size, 2))
    table[:, :, 0] = 1.0
    kernel = ActionKernel(grid=grid, table=table)
    never_stop = Policy(grid=grid, u=np.full(grid.size, 2))
    seeds = list(range(30))
    first = []
    for i, seed in enumerate(seeds):
        with pytest.raises(ImpossibleAction) as alone:
            simulate_episode(pd_frame, pd_params, pd_change, pd_obs, never_stop,
                             kernel, seed)
        assert alone.value.episode == 0
        first.append((alone.value.step, i))
    with pytest.raises(ImpossibleAction) as info:
        simulate_episodes(pd_frame, pd_params, pd_change, pd_obs, never_stop,
                          kernel, seeds)
    err = info.value
    assert (err.step, err.episode) == min(first)
    assert max(first)[0] > 1               # some episodes fail later than others
    assert err.action == 2
    assert err.belief.shape == (2,) and abs(err.belief.sum() - 1.0) <= 1e-12


def test_lockstep_impossible_observation(pd_frame, pd_params):
    # action 1 comes only from state 1, so seeing it sends the public belief
    # to [1, 0], where observation 3, which only state 2 emits, is impossible
    change = ChangeModel(p=0.02)
    obs = ObservationModel(np.array([[0.5, 0.5, 0.0], [0.2, 0.2, 0.6]]))
    grid = BeliefGrid(20)
    table = np.zeros((2, grid.size, 2))
    table[0, :, 0] = table[1, :, 1] = 1.0
    kernel = ActionKernel(grid=grid, table=table)
    never_stop = Policy(grid=grid, u=np.full(grid.size, 2))
    seeds = list(range(20))
    first = []                              # (step, check order, episode) of each failure
    for i, seed in enumerate(seeds):
        with pytest.raises((ImpossibleObservation, ImpossibleAction)) as alone:
            simulate_episode(pd_frame, pd_params, change, obs, never_stop, kernel, seed)
        first.append((alone.value.step, isinstance(alone.value, ImpossibleAction), i))
    with pytest.raises(ImpossibleObservation) as info:
        simulate_episodes(pd_frame, pd_params, change, obs, never_stop, kernel, seeds)
    err = info.value
    assert (err.step, False, err.episode) == min(first) == (2, False, 1)
    assert err.observation == 3
    np.testing.assert_array_equal(err.belief, [1.0, 0.0])
    assert str(err).startswith("episode 1 step 2: observation 3 has zero likelihood")


def test_lockstep_one_runaway_episode(
    monkeypatch, pd_frame, pd_params, slow_change, pd_obs, slow_kernel, slow_policy
):
    seeds = list(range(40))
    taus = simulate_episodes(pd_frame, pd_params, slow_change, pd_obs,
                             slow_policy, slow_kernel, seeds).stop_time
    longest = int(np.argmax(taus))
    cap = int(taus[longest]) - 1
    # one episode that outlasts the cap, placed among episodes that stop in time
    batch = [s for s, t in zip(seeds, taus) if t <= cap]
    batch.insert(3, seeds[longest])
    assert len(batch) > 10
    monkeypatch.setattr("qdetect.protocol.MAX_STEPS", cap)
    with pytest.raises(RunawayEpisode) as info:
        simulate_episodes(pd_frame, pd_params, slow_change, pd_obs, slow_policy,
                          slow_kernel, batch)
    assert info.value.episode == 3
    assert info.value.step_cap == cap
    with pytest.raises(RunawayEpisode):
        _oracle_episode(pd_frame, pd_params, slow_change, pd_obs, slow_policy,
                        slow_kernel, seeds[longest], step_cap=cap)
    del batch[3]
    simulate_episodes(pd_frame, pd_params, slow_change, pd_obs, slow_policy,
                      slow_kernel, batch)


def _never_stop(frame, params, obs, p):
    change = ChangeModel(p=p)
    kernel = build_action_kernel(frame, params, change, obs, BeliefGrid(50))
    return change, kernel, Policy(grid=kernel.grid, u=np.full(kernel.grid.size, 2))


# without MAX_STEPS the step cap 10 / p + 1000 would be 1e21 at p = 1e-20,
# and would overflow to inf at p = 1e-308
@pytest.mark.parametrize("p", [1e-20, 1e-308])
def test_tiny_p_batch_stops_at_max_steps(monkeypatch, pd_frame, pd_params, pd_obs, p):
    change, kernel, never_stop = _never_stop(pd_frame, pd_params, pd_obs, p)
    monkeypatch.setattr("qdetect.protocol.MAX_STEPS", 100)
    with pytest.raises(RunawayEpisode) as info:
        simulate_episodes(pd_frame, pd_params, change, pd_obs, never_stop, kernel, [0, 1, 2])
    err = info.value
    assert (err.episode, err.step_cap) == (0, 100)
    assert str(err) == "episode 0: no stop after 100 steps"


def test_tiny_p_batch_memory_does_not_grow_with_steps(monkeypatch, pd_frame, pd_params,
                                                      pd_obs):
    # a never-stopping batch holds its running episodes' state and one block
    # of uniforms of at most 1024 steps, whatever the number of steps
    change, kernel, never_stop = _never_stop(pd_frame, pd_params, pd_obs, 1e-20)

    def peak_bytes(max_steps):
        monkeypatch.setattr("qdetect.protocol.MAX_STEPS", max_steps)
        tracemalloc.start()
        try:
            with pytest.raises(RunawayEpisode) as info:
                simulate_episodes(pd_frame, pd_params, change, pd_obs, never_stop, kernel,
                                  range(50))
            assert info.value.step_cap == max_steps
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    faulthandler.dump_traceback_later(120, exit=True)     # a hang fails loudly
    try:
        short, long = peak_bytes(2000), peak_bytes(8000)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert long < 1.5 * short, (short, long)


def test_draw_rule_and_checks():
    # choice's rule: the count of normalized cdf entries <= u
    probs = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(
        _draw(probs, np.array([0.2, 0.49, 0.99]), np.arange(3)), [1, 1, 0]
    )
    with pytest.raises(NumericalFailure) as info:
        _draw(np.array([[0.5, 0.5], [0.5, 0.6]]), np.array([0.1, 0.1]), np.array([4, 9]))
    assert abs(info.value.residual - 0.1) <= 1e-12
    assert "episode 9" in str(info.value)
    for bad in ([[1.5, -0.5]], [[np.nan, 1.0]], [[np.inf, 0.0]]):
        with pytest.raises(NumericalFailure):
            _draw(np.array(bad), np.array([0.1]), np.array([0]))
