"""Decision-core tests: choice/belief/cognitive matrices, the generator,
evolution, and steady-state action distributions.

Frozen reference values come from independent recomputation: closed-form
softmax arithmetic for the choice rates, and long-time evolution under the
matrix exponential as a cross-check on the eigendecomposition path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdetect import (
    ActionMap,
    DecisionFrame,
    InvalidModel,
    NonConvergence,
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

from oracles import (
    edge_stacks, finalize_distribution, kron_coherent, kron_dissipator, row_rule,
)


def direct_choice_probs(utility, lam):
    # plain power softmax, no log trick: independent of the implementation path
    w = np.asarray(utility, dtype=float) ** lam
    return w / w.sum(axis=0, keepdims=True)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def test_overflowing_logits_are_an_invalid_model(pd_frame, pd_params):
    # lambda * log(20) overflows at 1e308: the one logit rule refuses it, for
    # the choice matrix and for every ActionMap, with no RuntimeWarning
    message = r"^lambda = 1e\+308 overflows the logits lambda \* log\(utility\)$"
    with pytest.raises(InvalidModel, match=message):
        subjective_choice_matrix(pd_frame, 1e308)
    with pytest.raises(InvalidModel, match=message):
        ActionMap(pd_frame, PsychParams(alpha=pd_params.alpha, lam=1e308, phi=pd_params.phi))


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


@settings(max_examples=300)
@given(edge_stacks(-1e-12, 1e-12))
def test_check_belief_accepts_exactly_the_per_row_rule(eta):
    # the whole-stack verdict against each row's own; a rejection names the
    # first bad row, with no RuntimeWarning from a row holding inf and -inf
    n = eta.shape[-1]
    rows = eta.reshape(-1, n)
    _, _, ok = row_rule(rows, -1e-12, 1e-12)
    if ok.all():
        assert same_bytes(check_belief(eta, n), np.maximum(eta, 0.0))
    else:
        row = int(np.flatnonzero(~ok)[0])
        with pytest.raises(InvalidModel) as info:
            check_belief(eta, n)
        assert str(info.value) == f"belief row {row} is not a distribution: {rows[row]}"


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


def test_steady_readout_pinned_on_both_branches(pd_frame, monkeypatch):
    # the phi = 0 row comes from the long-time fallback (its two vertex
    # generators coincide and are degenerate) and is the same at every belief,
    # the phi = 0.5 and phi = 1 rows from the eigensolve; both readouts must
    # keep these exact bits
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
    assert len(calls) == 2


def test_steady_probes_reject_a_non_finite_generator(pd_frame, pd_params):
    # the probes run through evolve, so a NaN generator fails at the first
    # probe instead of doubling to the last and reporting no convergence
    L = assemble_lindbladian(pd_frame, pd_params, np.array([0.2, 0.8]))
    L[0, 1] = np.nan
    with pytest.raises(NumericalFailure, match=r"non-finite entries at t=50\.0"):
        quantum._steady_rho_from_probes(L, pd_frame)


def probes_by_evolve(superop, frame):
    """The probe fallback with a fresh evolve at every probe time, as it ran
    before it squared the propagator."""
    rho0 = maximally_mixed(frame)
    t = quantum.PROBE_T0
    probe = evolve(superop, rho0, t)
    for _ in range(quantum.MAX_PROBE_DOUBLINGS):
        probe2 = evolve(superop, rho0, 2 * t)
        if np.abs(probe - probe2).max() <= quantum.PROBE_TOL:
            return probe2 / np.trace(probe2).real
        probe, t = probe2, 2 * t
    raise AssertionError(f"probes did not settle by t={t}")


def test_squared_probes_are_evolves_to_the_bit(monkeypatch):
    # 150 random n = 2 frames with A = 2-4 and phi often at 0 or 1, where the
    # vertex generators are degenerate; every fallback result must keep the
    # bits of the re-exponentiating loop, so no vertex moves
    probes = quantum._steady_rho_from_probes
    compared = []

    def both(superop, frame):
        got = probes(superop, frame)
        assert got.tobytes() == probes_by_evolve(superop, frame).tobytes()
        compared.append(frame.n_actions)
        return got

    monkeypatch.setattr(quantum, "_steady_rho_from_probes", both)
    rng = np.random.default_rng(20260501)
    for _ in range(150):
        A = int(rng.integers(2, 5))
        frame = DecisionFrame(2, A, rng.uniform(1.0, 30.0, (A, 2)))
        alpha = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 1.0))
        r = rng.random()
        phi = 0.0 if r < 0.3 else 1.0 if r < 0.6 else float(rng.random())
        ActionMap(frame, PsychParams(alpha, float(rng.uniform(0.0, 50.0)), phi))
    assert len(compared) >= 100 and set(compared) == {2, 3, 4}


@st.composite
def frames_and_params(draw):
    n = draw(st.integers(1, 4))
    A = draw(st.integers(1, 4))
    u = draw(st.lists(st.floats(1.0, 30.0), min_size=n * A, max_size=n * A))
    # interior phi stays 1e-3 away from the endpoints: closer in, the null
    # space is numerically degenerate, the eigensolve loses digits and
    # ActionMap can raise; the endpoints themselves are drawn exactly
    phi = draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0 - 1e-3))
    params = PsychParams(
        alpha=draw(st.floats(0.05, 1.0, exclude_min=True)),
        lam=draw(st.floats(0.0, 50.0)),
        phi=phi,
    )
    return DecisionFrame(n, A, np.reshape(u, (A, n))), params


@given(frames_and_params(), st.integers(0, 2**32 - 1))
def test_action_map_matches_oracle_on_random_frames(frame_params, seed):
    # every ActionMap also holds its vertices to the closed form within
    # CLOSED_FORM_TOL, so each example checks that too
    frame, params = frame_params
    etas = np.random.default_rng(seed).dirichlet(np.ones(frame.n_states), size=2)
    gammas = ActionMap(frame, params).batch(etas)
    for eta, row in zip(etas, gammas):
        direct = steady_state_distribution(frame, params, eta)
        np.testing.assert_allclose(row, direct, rtol=0, atol=1e-10)


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


def test_action_map_guards_the_closed_form(pd_frame, pd_params, monkeypatch):
    solve = quantum._steady_batch

    def bent(gens, frame):
        out = solve(gens, frame)
        out[-1] += np.array([1e-6, -1e-6])     # vertex Gamma(e_2) off its closed form
        return out

    monkeypatch.setattr(quantum, "_steady_batch", bent)
    with pytest.raises(NumericalFailure) as exc:
        ActionMap(pd_frame, pd_params)
    assert abs(exc.value.residual - 1e-6) <= 1e-12


def test_action_map_guard_near_phi_one_is_a_typed_error(pd_frame):
    # relaxation rate 1 - phi = 1e-10 at alpha = 1: the vertices are off by half
    with pytest.raises(NumericalFailure, match=r"closed form by 0\.499 \(alpha=1\.0, phi=0\.9+\)"):
        ActionMap(pd_frame, PsychParams(alpha=1.0, lam=10.495, phi=1.0 - 1e-10))


@pytest.mark.parametrize("alpha, phi, gap", [
    (1.0, 1e-12, 4.4e-2), (0.3, 1e-9, 1.9e-3), (1.0, 1.0 - 1e-10, 0.5),
    (1.0, 1.0 - 1e-8, None), (1.0, 0.0, None), (1.0, 1.0, None), (0.3, 0.0, None),
    (0.3, 1.0, None),
])
def test_action_map_guard_on_the_readme_frame(pd_frame, alpha, phi, gap):
    # where the slowest relaxation rate (alpha phi, or 1 - phi at alpha = 1)
    # falls below NULL_TOL the eigensolve misses the closed form, and the map
    # raises with the gap; at phi = 1 - 1e-8 it is 2.3e-11 and the map builds
    params = PsychParams(alpha=alpha, lam=10.495, phi=phi)
    if gap is None:
        ActionMap(pd_frame, params)
    else:
        with pytest.raises(NumericalFailure) as exc:
            ActionMap(pd_frame, params)
        assert exc.value.residual == pytest.approx(gap, rel=0.02)


def test_unsettled_probes_name_the_slow_rate(pd_frame):
    # both vertex generators relax the state marginal at alpha phi = 1e-9, too
    # slowly for probes doubling up to t = 5.2e7 to settle; the error says so
    with pytest.raises(NonConvergence, match=r"t=52428800\.0: the slowest relaxation rate "
                                             r"1e-09 is below what probes") as exc:
        ActionMap(pd_frame, PsychParams(alpha=0.1, lam=10.495, phi=1e-8))
    assert exc.value.rate == pytest.approx(1e-9, rel=1e-3)


def test_frame_validation():
    with pytest.raises(InvalidModel):
        DecisionFrame(2, 2, np.array([[20.0, 5.0], [25.0, 0.0]]))
    with pytest.raises(InvalidModel):
        DecisionFrame(2, 2, np.array([[20.0, 5.0]]))
    for bad in (np.inf, np.nan):
        with pytest.raises(InvalidModel, match="finite and strictly positive"):
            DecisionFrame(2, 2, np.array([[bad, 5.0], [25.0, 10.0]]))
    with pytest.raises(InvalidModel):
        PsychParams(alpha=1.2, lam=1.0, phi=0.5)
    with pytest.raises(InvalidModel):
        PsychParams(alpha=0.5, lam=-1.0, phi=0.5)
    with pytest.raises(InvalidModel):
        PsychParams(alpha=0.5, lam=1.0, phi=-0.1)


@given(st.integers(1, 3), st.data())
def test_lindblad_long_time_state_is_one_density_from_any_start(n, data):
    # alpha < 1 and phi > 0 keep the steady state unique (proof step 3); the
    # evolution runs for 40 times the slowest decay, from two starts
    A = data.draw(st.integers(1 if n > 1 else 2, 6 // n))
    utility = data.draw(st.lists(st.floats(1.0, 30.0), min_size=n * A, max_size=n * A))
    frame = DecisionFrame(n, A, np.reshape(utility, (A, n)))
    params = PsychParams(alpha=data.draw(st.floats(0.05, 0.95)),
                         lam=data.draw(st.floats(0.0, 50.0)), phi=data.draw(st.floats(0.05, 1.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    eta = rng.dirichlet(np.ones(n))
    L = assemble_lindbladian(frame, params, eta)
    decay = np.sort(-np.linalg.eigvals(L).real)
    assert abs(decay[0]) <= 1e-12 and decay[1] > 1e-6
    rho, other = (check_density(evolve(L, rho0, 40.0 / decay[1]))
                  for rho0 in (maximally_mixed(frame), random_density(rng, frame.dim)))
    np.testing.assert_allclose(other, rho, rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.real(np.diag(rho)).reshape(n, A).sum(axis=0),
                               steady_state_distribution(frame, params, eta), rtol=0, atol=1e-9)


@st.composite
def frames_and_rates(draw):
    # n = 2 and up to 8 actions; nonnegative rates with exact zeros, as every
    # cognitive matrix has; a certain belief or an interior one
    A = draw(st.integers(1, 8))
    d = 2 * A
    frame = DecisionFrame(2, A, np.reshape(
        draw(st.lists(st.floats(1.0, 30.0), min_size=d, max_size=d)), (A, 2)))
    params = PsychParams(alpha=draw(st.floats(0.0, 1.0)), lam=draw(st.floats(0.0, 50.0)),
                         phi=draw(st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.exponential(size=(d, d)) * (rng.random((d, d)) < 0.7)
    eta = draw(st.sampled_from([[1.0, 0.0], [0.0, 1.0]]) | st.just(rng.dirichlet([1.0, 1.0])))
    return frame, params, gamma, np.asarray(eta)


@settings(max_examples=60)
@given(frames_and_rates())
def test_superoperators_are_the_kron_forms_to_the_byte(case):
    frame, params, gamma, eta = case
    assert same_bytes(quantum._dissipator(gamma), kron_dissipator(gamma))
    assert same_bytes(quantum._coherent(frame, params.alpha), kron_coherent(frame, params.alpha))
    want = (kron_coherent(frame, params.alpha)
            + params.alpha * kron_dissipator(cognitive_matrix(frame, params, eta)))
    assert same_bytes(assemble_lindbladian(frame, params, eta), want)


@settings(max_examples=30)
@given(st.integers(1, 4), st.data())
def test_action_map_vertices_are_the_kron_assemblys_to_the_byte(A, data):
    # ActionMap's generators assembled from the np.kron forms, through the
    # same eigensolve (or probes, at phi 0 and 1)
    frame = DecisionFrame(2, A, np.reshape(
        data.draw(st.lists(st.floats(1.0, 30.0), min_size=2 * A, max_size=2 * A)), (A, 2)))
    params = PsychParams(
        alpha=data.draw(st.floats(0.05, 1.0)), lam=data.draw(st.floats(0.0, 50.0)),
        phi=data.draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0 - 1e-3)))
    alpha, phi = params.alpha, params.phi
    Pi = subjective_choice_matrix(frame, params.lam)
    base = kron_coherent(frame, alpha) + alpha * kron_dissipator((1.0 - phi) * Pi.T)
    parts = np.stack([alpha * kron_dissipator(phi * belief_matrix(frame, e).T)
                      for e in np.eye(2)])
    assert same_bytes(ActionMap(frame, params).vertices,
                      quantum._steady_batch(base + parts, frame))


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_steady_distributions_are_the_per_row_normalization_to_the_byte(A, data):
    # the stack _steady_batch checks, normalized row by row the former way,
    # gives ActionMap's vertices and the steady state at an interior belief
    # byte for byte; phi = 0, and phi = 1 at alpha = 1, take the probe fallback
    frame = DecisionFrame(2, A, np.reshape(
        data.draw(st.lists(st.floats(1.0, 30.0), min_size=2 * A, max_size=2 * A)), (A, 2)))
    params = PsychParams(
        alpha=data.draw(st.just(1.0) | st.floats(0.05, 1.0)), lam=data.draw(st.floats(0.0, 50.0)),
        phi=data.draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0 - 1e-3)))
    eta = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).dirichlet([1.0, 1.0])
    checked, rule = [], quantum.first_bad_row

    def seen(rows, floor, tol):
        if tol == 1e-9:                       # _steady_batch's check, not check_belief's
            checked.append(rows.copy())
        return rule(rows, floor, tol)

    with mock.patch.object(quantum, "first_bad_row", seen):
        vertices = ActionMap(frame, params).vertices
        gamma = steady_state_distribution(frame, params, eta)
    want = [np.stack([finalize_distribution(p) for p in probs]) for probs in checked]
    assert len(want) == 2
    assert same_bytes(vertices, want[0]) and same_bytes(gamma, want[1][0])


@pytest.mark.parametrize("populations, residual", [
    ([-np.inf, np.inf], np.nan), ([np.nan, 0.5], np.nan), ([1.5, -0.5], 0.0), ([0.5, 0.6], 0.1),
])
def test_steady_batch_names_the_first_bad_action_distribution(monkeypatch, pd_frame,
                                                              populations, residual):
    # at phi = 0 both vertices come from the long-time probes; the second
    # probe's populations are spoiled in the first state's block, and the
    # check names that vertex before the closed-form guard runs. NaN does
    # not pass, and -inf with inf gives no RuntimeWarning.
    probe, calls = quantum._steady_rho_from_probes, []

    def spoiled(gen, frame):
        calls.append(gen)
        if len(calls) == 2:
            return np.diag(populations + [0.0] * (frame.dim - 2)).astype(complex)
        return probe(gen, frame)

    monkeypatch.setattr(quantum, "_steady_rho_from_probes", spoiled)
    with pytest.raises(NumericalFailure, match="steady action distribution 1 is not a "
                                               "probability vector") as info:
        ActionMap(pd_frame, PsychParams(alpha=0.5, lam=10.495, phi=0.0))
    assert info.value.residual == pytest.approx(residual, nan_ok=True)
