"""Decision-core tests: choice/belief/cognitive matrices, the generator,
evolution, and steady-state action distributions.

Frozen reference values come from independent recomputation: closed-form
softmax arithmetic for the choice rates, and long-time evolution under the
matrix exponential as a cross-check on the eigendecomposition path.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdetect import (
    ActionMap,
    DecisionFrame,
    InvalidModel,
    NumericalFailure,
    PsychParams,
    UnsupportedParameter,
    assemble_lindbladian,
    belief_matrix,
    cognitive_matrix,
    evolve,
    hamiltonian,
    maximally_mixed,
    steady_state_distribution,
    subjective_choice_matrix,
)
from qdetect import quantum
from qdetect.cli import sweep_stp
from qdetect.quantum import check_belief, check_density

from oracles import closed_form_vertices


def direct_choice_probs(utility, lam):
    # plain power softmax, no log trick: independent of the implementation path
    w = np.asarray(utility, dtype=float) ** lam
    return w / w.sum(axis=0, keepdims=True)


def random_density(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_choice_matrix_flat_at_lambda_zero(pd_frame):
    Pi = subjective_choice_matrix(pd_frame, 0.0)
    expected = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    np.testing.assert_allclose(Pi, expected, atol=1e-15)


def test_choice_matrix_lambda_one_fractions(pd_frame):
    Pi = subjective_choice_matrix(pd_frame, 1.0)
    # state 1 block: utilities (20, 25); state 2 block: (5, 10)
    assert abs(Pi[0, 0] - 20.0 / 45.0) <= 1e-12
    assert abs(Pi[0, 1] - 25.0 / 45.0) <= 1e-12
    assert abs(Pi[2, 3] - 10.0 / 15.0) <= 1e-12
    # rows within a block are identical copies of p(a | x)
    np.testing.assert_array_equal(Pi[0], Pi[1])
    np.testing.assert_array_equal(Pi[2], Pi[3])


def test_choice_matrix_matches_direct_softmax(pd_frame):
    for lam in (0.3, 1.7, 10.495, 42.0):
        Pi = subjective_choice_matrix(pd_frame, lam)
        p = direct_choice_probs(pd_frame.utility, lam)
        assert abs(Pi[1, 1] - p[1, 0]) <= 1e-12
        assert abs(Pi[3, 3] - p[1, 1]) <= 1e-12
    # operating point used throughout: p(defect | state) at lam = 10.495
    p = direct_choice_probs(pd_frame.utility, 10.495)
    assert abs(p[1, 0] - 0.9122875648) <= 1e-9
    assert abs(p[1, 1] - 0.9993075485) <= 1e-9


def test_choice_matrix_sharp_limit(pd_frame):
    Pi = subjective_choice_matrix(pd_frame, 1000.0)
    # the higher payoff (defection, second column of each block) takes all mass
    assert Pi[1, 1] >= 1.0 - 1e-9
    assert Pi[3, 3] >= 1.0 - 1e-9
    np.testing.assert_allclose(Pi.sum(axis=1)[:2], 1.0, atol=1e-12)


def test_choice_matrix_survives_huge_lambda(pd_frame):
    # 20^5000 overflows double precision; the log-space path must not
    Pi = subjective_choice_matrix(pd_frame, 5000.0)
    assert np.all(np.isfinite(Pi))
    blocks = Pi[:2, :2].sum(axis=1)
    np.testing.assert_allclose(blocks, 1.0, atol=1e-12)


def test_choice_matrix_rejects_negative_sharpness(pd_frame):
    with pytest.raises(InvalidModel):
        subjective_choice_matrix(pd_frame, -0.5)


def test_belief_matrix_certain_state(pd_frame):
    # row r, column c: eta(state of c) when r and c share an action, else 0;
    # basis order (state, action) = CC, DC, CD, DD
    B = belief_matrix(pd_frame, np.array([1.0, 0.0]))
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    np.testing.assert_array_equal(B, expected)
    B2 = belief_matrix(pd_frame, np.array([0.25, 0.75]))
    np.testing.assert_array_equal(B2[0], np.array([0.25, 0.0, 0.75, 0.0]))


def test_belief_matrix_uniform_belief(pd_frame):
    B = belief_matrix(pd_frame, np.array([0.5, 0.5]))
    acts = np.arange(4) % 2
    same_action = acts[:, None] == acts[None, :]
    np.testing.assert_array_equal(B[same_action], 0.5)
    np.testing.assert_array_equal(B[~same_action], 0.0)


def test_belief_matrix_rejects_bad_beliefs(pd_frame):
    with pytest.raises(InvalidModel):
        belief_matrix(pd_frame, np.array([0.7, 0.7]))
    with pytest.raises(InvalidModel):
        belief_matrix(pd_frame, np.array([1.2, -0.2]))
    with pytest.raises(InvalidModel):
        belief_matrix(pd_frame, np.array([1.0]))
    with pytest.raises(InvalidModel, match="row 0"):       # NaN compares false
        check_belief([np.nan, np.nan], 2)
    with pytest.raises(InvalidModel, match="row 1"):
        check_belief([[0.5, 0.5], [np.nan, 1.0]], 2)


def test_cognitive_matrix_blend_endpoints(pd_frame):
    eta = np.array([0.3, 0.7])
    Pi = subjective_choice_matrix(pd_frame, 10.495)
    B = belief_matrix(pd_frame, eta)
    C0 = cognitive_matrix(pd_frame, PsychParams(0.5, 10.495, 0.0), eta)
    C1 = cognitive_matrix(pd_frame, PsychParams(0.5, 10.495, 1.0), eta)
    Ch = cognitive_matrix(pd_frame, PsychParams(0.5, 10.495, 0.5), eta)
    np.testing.assert_allclose(C0, Pi.T, atol=1e-15)
    np.testing.assert_allclose(C1, B.T, atol=1e-15)
    np.testing.assert_allclose(Ch, 0.5 * Pi.T + 0.5 * B.T, atol=1e-15)


def test_hamiltonian_block_structure(pd_frame):
    H = hamiltonian(pd_frame)
    expected = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    np.testing.assert_array_equal(H, expected)


def test_generator_is_trace_free(pd_frame):
    rng = np.random.default_rng(11)
    for alpha in (0.0, 0.3, 1.0):
        L = assemble_lindbladian(
            pd_frame, PsychParams(alpha, 10.495, 0.6), np.array([0.4, 0.6])
        )
        rho = random_density(rng, 4)
        drho = (L @ rho.reshape(-1)).reshape(4, 4)
        assert abs(np.trace(drho)) <= 1e-12


def test_generator_coherent_part_fixes_mixed_state(pd_frame):
    # alpha = 0 leaves only the commutator, which vanishes on I/d
    L = assemble_lindbladian(
        pd_frame, PsychParams(0.0, 10.495, 0.6), np.array([0.4, 0.6])
    )
    drho = (L @ maximally_mixed(pd_frame).reshape(-1)).reshape(4, 4)
    assert np.abs(drho).max() <= 1e-14


def test_evolve_identity_at_time_zero(pd_frame, pd_params):
    rng = np.random.default_rng(7)
    L = assemble_lindbladian(pd_frame, pd_params, np.array([0.2, 0.8]))
    rho0 = random_density(rng, 4)
    np.testing.assert_allclose(evolve(L, rho0, 0.0), rho0, atol=1e-12)


def test_evolve_preserves_density_properties(pd_frame, pd_params):
    rng = np.random.default_rng(13)
    L = assemble_lindbladian(pd_frame, pd_params, np.array([0.2, 0.8]))
    rho = random_density(rng, 4)
    for t in (0.1, 1.0, 10.0):
        rho_t = evolve(L, rho, t)
        assert abs(np.trace(rho_t).real - 1.0) <= 1e-9
        assert np.abs(rho_t - rho_t.conj().T).max() <= 1e-9
        assert np.linalg.eigvalsh(rho_t).min() >= -1e-9
        check_density(rho_t)


def test_evolve_reaches_steady_state(pd_frame, pd_params):
    # long-time expm propagation from two unrelated starts agrees with the
    # eigendecomposition steady state; also checks rho0 independence
    eta = np.array([0.3, 0.7])
    L = assemble_lindbladian(pd_frame, pd_params, eta)
    target = steady_state_distribution(pd_frame, pd_params, eta)
    rng = np.random.default_rng(3)
    for _ in range(2):
        rho_t = evolve(L, random_density(rng, 4), 100.0)
        marg = np.real(np.diag(rho_t)).reshape(2, 2).sum(axis=0)
        np.testing.assert_allclose(marg, target, atol=1e-6)


def test_evolve_reaches_steady_state_pure_dissipation(pd_frame):
    params = PsychParams(1.0, 10.495, 0.9)
    eta = np.array([0.3, 0.7])
    L = assemble_lindbladian(pd_frame, params, eta)
    target = steady_state_distribution(pd_frame, params, eta)
    rho_t = evolve(L, maximally_mixed(pd_frame), 200.0)
    marg = np.real(np.diag(rho_t)).reshape(2, 2).sum(axis=0)
    np.testing.assert_allclose(marg, target, atol=1e-6)


def test_steady_state_frozen_defection_rates(pd_frame):
    # frozen from this model's dense eigensolve, cross-checked against the
    # expm path in test_evolve_reaches_steady_state
    lowphi = PsychParams(0.812, 10.495, 0.1)
    cases = [
        ((0.0, 1.0), 0.9032385673),
        ((1.0, 0.0), 0.8329616135),
        ((0.5, 0.5), 0.8681000904),
    ]
    for eta, expected in cases:
        gamma = steady_state_distribution(pd_frame, lowphi, np.array(eta))
        assert abs(gamma[1] - expected) <= 1e-9
        assert abs(gamma.sum() - 1.0) <= 1e-12


def test_steady_state_high_coupling_rates(pd_frame, pd_params):
    cases = [
        ((0.0, 1.0), 0.6588031456),
        ((1.0, 0.0), 0.6311267221),
        ((0.5, 0.5), 0.6449649338),
    ]
    for eta, expected in cases:
        gamma = steady_state_distribution(pd_frame, pd_params, np.array(eta))
        assert abs(gamma[1] - expected) <= 1e-9


def test_steady_state_rejects_purely_coherent(pd_frame):
    with pytest.raises(UnsupportedParameter):
        steady_state_distribution(
            pd_frame, PsychParams(0.0, 10.495, 0.5), np.array([0.5, 0.5])
        )
    with pytest.raises(UnsupportedParameter):
        ActionMap(pd_frame, PsychParams(0.0, 10.495, 0.5))


def test_steady_state_continuous_in_belief(pd_frame):
    rng = np.random.default_rng(29)
    delta = 1e-6
    for _ in range(10):
        params = PsychParams(
            alpha=rng.uniform(0.1, 1.0),
            lam=rng.uniform(0.0, 100.0),
            phi=rng.uniform(0.0, 1.0),
        )
        e1 = rng.uniform(delta, 1.0 - delta)
        g0 = steady_state_distribution(pd_frame, params, np.array([e1, 1.0 - e1]))
        g1 = steady_state_distribution(
            pd_frame, params, np.array([e1 + delta, 1.0 - e1 - delta])
        )
        assert np.abs(g1 - g0).max() <= 1e-3


def test_action_map_matches_pointwise_solver(pd_frame, pd_params, pd_action_map):
    etas = np.array([[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.9, 0.1]])
    batched = pd_action_map.batch(etas)
    for eta, row in zip(etas, batched):
        direct = steady_state_distribution(pd_frame, pd_params, eta)
        np.testing.assert_allclose(row, direct, atol=1e-10)
        np.testing.assert_allclose(pd_action_map(eta), direct, atol=1e-10)


def test_degenerate_generator_uses_fallback(pd_frame):
    # phi = 0 removes all belief dependence and leaves a degenerate null
    # space; the long-time fallback must produce one belief-free answer
    params = PsychParams(0.812, 10.495, 0.0)
    amap = ActionMap(pd_frame, params)
    etas = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    gammas = amap.batch(etas)
    assert np.abs(gammas - gammas[0]).max() <= 1e-8
    assert abs(gammas[0, 1] - 0.8753214409) <= 1e-6


def test_steady_readout_pinned_on_both_branches(pd_frame, monkeypatch):
    # the phi = 0 row comes from the long-time fallback (its three vertex
    # generators coincide and are degenerate), the phi = 0.5 and phi = 1 rows
    # from the eigensolve; both readouts must keep these exact bits
    probes = quantum._steady_rho_from_probes
    calls = []

    def counted(superop, frame):
        calls.append(superop)
        return probes(superop, frame)

    monkeypatch.setattr(quantum, "_steady_rho_from_probes", counted)
    rows = sweep_stp(pd_frame, PsychParams(0.812, 10.495, 0.9), n_phi=3)
    assert rows == [
        (0.0, 0.8753214409471435, 0.8753214409471435, 0.8753214409471435, False),
        (0.5, 0.8494499883822174, 0.7885473796040529, 0.8189986839931351, False),
        (1.0, 0.49999999999999994, 0.5000000000000001, 0.5, False),
    ]
    assert len(calls) == 3


def test_steady_probes_reject_a_non_finite_generator(pd_frame, pd_params):
    # the probes run through evolve, so a NaN generator fails at the first
    # probe instead of doubling to the last and reporting no convergence
    L = assemble_lindbladian(pd_frame, pd_params, np.array([0.2, 0.8]))
    L[0, 1] = np.nan
    with pytest.raises(NumericalFailure, match=r"non-finite entries at t=50\.0"):
        quantum._steady_rho_from_probes(L, pd_frame)


@st.composite
def frames_and_params(draw):
    n = draw(st.integers(1, 4))
    A = draw(st.integers(1, 4))
    u = draw(st.lists(st.floats(1.0, 30.0), min_size=n * A, max_size=n * A))
    # interior phi stays 1e-3 away from the endpoints: closer in, the null
    # space is numerically degenerate and the oracle's own eigensolve loses
    # digits (ROADMAP item 3); the endpoints themselves are drawn exactly
    phi = draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0 - 1e-3))
    params = PsychParams(
        alpha=draw(st.floats(0.05, 1.0, exclude_min=True)),
        lam=draw(st.floats(0.0, 50.0)),
        phi=phi,
    )
    return DecisionFrame(n, A, np.reshape(u, (A, n))), params


@given(frames_and_params(), st.integers(0, 2**32 - 1))
def test_action_map_matches_oracle_on_random_frames(frame_params, seed):
    frame, params = frame_params
    etas = np.random.default_rng(seed).dirichlet(np.ones(frame.n_states), size=2)
    gammas = ActionMap(frame, params).batch(etas)
    for eta, row in zip(etas, gammas):
        direct = steady_state_distribution(frame, params, eta)
        np.testing.assert_allclose(row, direct, rtol=0, atol=1e-10)


@given(frames_and_params())
def test_action_map_vertices_match_the_closed_form(frame_params):
    # proof step 2's closed form, written out in tests/oracles.py: alpha and
    # phi act only through g, lambda only through the logit choice. Over
    # 3000 frames of this strategy the worst gap was 2.7e-11 (alpha = 0.05,
    # phi = 0) and none raised. Nearer phi = 0 the map can miss by far more
    # (the next test); nearer phi = 1 it can raise (the guard test below)
    frame, params = frame_params
    np.testing.assert_allclose(ActionMap(frame, params).vertices,
                               closed_form_vertices(frame, params), rtol=0, atol=1e-10)


@pytest.mark.xfail(strict=True, reason="at phi = 1e-12 the eigensolve misses the closed "
                   "form by 4.4e-2, and the barycenter guard passes (ROADMAP item 3)")
def test_action_map_misses_the_closed_form_at_tiny_phi(pd_frame):
    params = PsychParams(alpha=1.0, lam=10.495, phi=1e-12)
    np.testing.assert_allclose(ActionMap(pd_frame, params).vertices,
                               closed_form_vertices(pd_frame, params), rtol=0, atol=1e-9)


def test_action_map_rejects_off_simplex_beliefs(pd_action_map):
    with pytest.raises(InvalidModel, match="row 1"):
        pd_action_map.batch(np.array([[0.5, 0.5], [1.5, -0.5]]))
    with pytest.raises(InvalidModel, match="row 0"):
        pd_action_map(np.array([1.5, -0.5]))
    with pytest.raises(InvalidModel, match="row 0"):
        pd_action_map(np.array([0.6, 0.6]))
    with pytest.raises(InvalidModel, match="row 1"):
        pd_action_map.batch(np.array([[0.5, 0.5], [np.nan, np.nan]]))
    with pytest.raises(InvalidModel, match="shape"):
        pd_action_map(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(InvalidModel, match="shape"):
        pd_action_map.batch(np.array([[0.2, 0.3, 0.5]]))


def test_action_map_guards_the_affine_identity(pd_frame, pd_params, monkeypatch):
    solve = quantum._steady_batch

    def bent(gens, frame):
        out = solve(gens, frame)
        out[-1] += np.array([1e-6, -1e-6])     # barycenter off the vertex mean
        return out

    monkeypatch.setattr(quantum, "_steady_batch", bent)
    with pytest.raises(NumericalFailure) as exc:
        ActionMap(pd_frame, pd_params)
    assert abs(exc.value.residual - 1e-6) <= 1e-12


def test_action_map_guard_near_phi_one_is_a_typed_error(pd_frame):
    # a valid config whose near-degenerate null space costs the eigensolve
    # digits: the barycenter misses the vertex mean by about 3.2e-9, and the
    # guard reports it instead of handing out distributions
    with pytest.raises(NumericalFailure, match="barycenter") as exc:
        ActionMap(pd_frame, PsychParams(alpha=1.0, lam=10.495, phi=1.0 - 1e-8))
    assert np.isfinite(exc.value.residual)
    assert exc.value.residual > 1e-9


def test_frame_validation():
    with pytest.raises(InvalidModel):
        DecisionFrame(2, 2, np.array([[20.0, 5.0], [25.0, 0.0]]))
    with pytest.raises(InvalidModel):
        DecisionFrame(2, 2, np.array([[20.0, 5.0]]))
    with pytest.raises(InvalidModel):
        PsychParams(alpha=1.2, lam=1.0, phi=0.5)
    with pytest.raises(InvalidModel):
        PsychParams(alpha=0.5, lam=-1.0, phi=0.5)
    with pytest.raises(InvalidModel):
        PsychParams(alpha=0.5, lam=1.0, phi=-0.1)
