"""Open-quantum decision core.

An agent deciding among A actions while uncertain over n world states carries a
psychological state: a density operator on the d = n*A dimensional space whose
basis vectors are (state, action) pairs in state-major order. Its evolution
blends a coherent part (block Hamiltonian of ones) with a dissipative part
whose jump rates come from a cognitive matrix: a convex mix of utility-driven
choice rates and belief-driven rates. The observable output is the steady-state
action distribution.

The steady readout is affine in the belief: Gamma(eta) = sum_x eta_x Gamma(e_x)
for every frame, with e_x the certain belief in state x, and each Gamma(e_x)
has a closed form (step 4); ``ActionMap`` relies on both. Proof, for alpha > 0
and eta on the simplex, writing p = diag(rho) for the populations,
pi_x = p(. | x) for the choice rates and q for the action marginal:

1. Both parts of the cognitive matrix C = (1 - phi) Pi^T + phi B(eta)^T have
   unit column sums for every eta: column (x', a') of Pi^T holds pi_x'(a) in
   rows (x', a), and column (x', a') of B^T holds eta_x in rows (x, a'). Every
   total outflow is therefore 1, and the dissipator is alpha (diag(C p) - rho).
2. With K = -i(1 - alpha)[H, .], a steady state solves (alpha - K) rho =
   alpha diag(C p). K has imaginary spectrum, so alpha - K is invertible and
   p = M C p with M = diag o alpha (alpha - K)^-1 o diag. Since
   alpha (alpha - K)^-1 = int_0^inf alpha e^{-alpha t} e^{tK} dt averages
   unitary conjugations, M maps populations to nonnegative populations with
   the same sum. H is the same all-ones A x A block in every state, and [H, .]
   keeps each state block, so M acts as one A x A column-stochastic matrix
   M_A on each state's populations, whatever the state and eta.
3. Reading p = M C p state by state, p_x = (1 - phi) s_x M_A pi_x +
   phi eta_x M_A q, with s_x the state marginal. Summing over actions gives
   phi s_x = phi eta_x, so s = eta for phi > 0. Summing over states gives
   q = (1 - phi) M_A sum_x eta_x pi_x + phi M_A q. For phi < 1, I - phi M_A is
   invertible, so q = (1 - phi)(I - phi M_A)^-1 M_A sum_x eta_x pi_x is linear
   in eta, and p and rho are unique. At phi = 1, q = M_A q does not involve
   eta: M_A has the unique fixed point q = 1/A for alpha < 1, and at alpha = 1
   (M_A = I) the dynamics conserve q, so the long-time fallback from the
   maximally mixed state returns q = 1/A. At phi = 0 the generator does not
   depend on eta at all and conserves s, so the fallback's answer q = M_A
   sum_x pi_x / n is belief-free. A linear or constant map on the simplex
   equals sum_x eta_x Gamma(e_x).
4. With beta = 1 - alpha and J the all-ones A x A block, e^{-i beta t J} =
   I + (e^{-i beta A t} - 1) J/A; diag(p) conjugated by it has the diagonal
   p + (1 - cos(beta A t)) (2/A) (sum(p)/A - p), and the average over
   t ~ alpha e^{-alpha t} turns cos(beta A t) into kappa = alpha^2 /
   (alpha^2 + beta^2 A^2). So M_A = k I + (1 - k) J/A, k = 1 - 2 (1 - kappa)/A,
   fixes 1/A and scales zero-sum vectors by k, and step 3 gives Gamma(e_x) =
   1/A + g (pi_x - 1/A) with g = (1 - phi) k / (1 - phi k), g = 0 at phi = 1,
   and pi_x replaced by its mean over the states at phi = 0. alpha and phi act
   only through the scalar g, in [0, 1] for A >= 2.
5. Two parameter points with the same lam share pi_x, so for phi in (0, 1) the
   vertex matrices V_i (rows Gamma(e_x)) have V_i - 1/A = g_i (pi_x - 1/A).
   For g_1 >= g_2 >= 0 with g_1 > 0, r = g_2 / g_1 is in [0, 1] and
   M = r I + (1 - r) J/A is row-stochastic; the rows of V_1 sum to 1, so
   V_1 M = r V_1 + (1 - r)/A = 1/A + g_2 (pi_x - 1/A) = V_2. Every channel row
   is eta @ V_i with eta on the simplex, so the one M garbles the larger-g
   family into the smaller-g one at every belief and observation at once,
   and by Blackwell (1953) the detector's optimal cost with the larger-g
   opponent is no higher. The exception is phi = 0, where pi_x is replaced by
   its state mean: such a point shares that mean, not pi_x, with the others.
6. At n = A = 2 the order of step 5 is exact for any two points. The rows of
   V sum to 1, so V is fixed by its first column q = (q_1, q_2). For M =
   [[m_1, 1 - m_1], [m_2, 1 - m_2]], (V M)[x, 0] = q_x m_1 + (1 - q_x) m_2 =
   f(q_x) with the affine f(t) = m_2 + t (m_1 - m_2), and the second column
   follows from the row sums. M is row-stochastic exactly when f(0) = m_2 and
   f(1) = m_1 lie in [0, 1], that is when f maps [0, 1] into [0, 1]. So V
   garbles into V' iff an affine f maps [0, 1] into [0, 1] and q_x onto q'_x:
   such an M gives its f, and such an f gives M with m_2 = f(0), m_1 = f(1).
   If q_1 != q_2, f is the line through (q_1, q'_1) and (q_2, q'_2), with
   slope s = (q'_1 - q'_2) / (q_1 - q_2) and f(0) = q'_1 - s q_1, and the test
   is f(0), f(0) + s in [0, 1]. If q_1 = q_2, V is uninformative and garbles
   into V' iff q'_1 = q'_2. As in step 5, one M then garbles every channel row
   eta @ V at once, and the garbled opponent's optimal cost is no lower;
   step 5 is the equal-lam case. In a Prisoner's Dilemma frame (utility
   20 5 ; 25 10) defection pays more in both states, so as lam grows pi_x
   tends to defection in both, q_1 - q_2 tends to 0 and every V garbles into
   the large-lam one: a fully rational opponent's action says nothing about
   the state. More rationality helps only below a frame-dependent lam; at
   alpha 0.812, phi 0.9 the larger lam garbles into the smaller along 0.5,
   1, 2, 5, and the smaller into the larger along 5, 10, 30, 100.
"""

import numpy as np

from ._record import record
from .errors import (
    InvalidModel,
    NonConvergence,
    NumericalFailure,
    UnsupportedParameter,
)


@record
class PsychParams:
    """Evolution parameters: dissipation weight alpha, choice sharpness lam,
    belief-coupling weight phi."""

    alpha: float
    lam: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidModel(f"alpha must be in [0,1], got {self.alpha}")
        if not (0.0 <= self.phi <= 1.0):
            raise InvalidModel(f"phi must be in [0,1], got {self.phi}")
        if not (0.0 <= self.lam < np.inf):
            raise InvalidModel(f"lam must be finite and >= 0, got {self.lam}")


@record
class DecisionFrame:
    """State/action spaces and the finite, positive utility table u(a | x),
    shaped (n_actions, n_states)."""

    n_states: int
    n_actions: int
    utility: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.utility, dtype=float)
        object.__setattr__(self, "utility", u)
        if self.n_states < 1 or self.n_actions < 1:
            raise InvalidModel("need at least one state and one action")
        if u.shape != (self.n_actions, self.n_states):
            raise InvalidModel(
                f"utility must be (n_actions, n_states) = "
                f"({self.n_actions}, {self.n_states}), got {u.shape}"
            )
        if not np.all(np.isfinite(u) & (u > 0)):
            raise InvalidModel("utilities must be finite and strictly positive")

    @property
    def dim(self):
        return self.n_states * self.n_actions


# Tolerances of the steady-state solver and the density checks.
NULL_TOL = 1e-9                 # |eigenvalue| counted as zero
PROBE_T0 = 50.0                 # first long-time probe
PROBE_TOL = 1e-8                # probes at t and 2t must agree to this
MAX_PROBE_DOUBLINGS = 20
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10         # ActionMap's vertices against the closed form


def first_bad_row(rows, floor, tol):
    """The one probability-row rule, for a stack of rows, shape (m, n):
    entries >= floor and the sum within tol of 1; NaN and +-inf fail.
    Returns the first bad row's index (None if all pass), each row's
    |sum - 1| and whether that row fails at the floor. Two reductions over
    the whole stack decide; the floor's runs first, so a row holding -inf
    and inf is rejected without numpy's RuntimeWarning from its sum."""
    if np.minimum.reduce(rows, axis=None, initial=np.inf) >= floor:
        residual = np.abs(np.add.reduce(rows, axis=1) - 1.0)
        if np.maximum.reduce(residual, initial=0.0) <= tol:
            return None, residual, False
    with np.errstate(invalid="ignore"):             # inf + -inf in a row sum
        residual = np.abs(np.add.reduce(rows, axis=1) - 1.0)
    low = ~(rows >= floor).all(axis=1)
    row = int(np.argmax(low | ~(residual <= tol)))
    return row, residual, bool(low[row])


def check_belief(eta, n):
    """Validate a length-n belief vector or a stack of them, shape (m, n):
    each row nonnegative (to -1e-12) and summing to 1 within 1e-12. NaN fails.
    Returns the beliefs clipped at 0."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim not in (1, 2) or eta.shape[-1] != n:
        raise InvalidModel(f"belief must have length {n}, got shape {eta.shape}")
    rows = eta.reshape(-1, n)
    row, _, _ = first_bad_row(rows, -1e-12, 1e-12)
    if row is not None:
        raise InvalidModel(f"belief row {row} is not a distribution: {rows[row]}")
    return np.maximum(eta, 0.0)


def check_density(rho):
    """Validate a density operator: Hermitian, unit trace, PSD up to tolerance."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidModel(f"density operator must be square, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > HERM_TOL:
        raise InvalidModel("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise InvalidModel(f"density operator trace is {np.trace(rho)}, not 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -PSD_TOL:
        raise InvalidModel(f"density operator has eigenvalue {w.min()} < 0")
    return rho


def maximally_mixed(frame):
    d = frame.dim
    return np.eye(d, dtype=complex) / d


def _choice(frame, lam):
    """Logit choice p(a | x) ~ u(a|x)^lam, shaped (n_actions, n_states): the
    one logit rule. InvalidModel if a logit lam * log(u), or its shift below
    its state's largest, overflows; else each column holds exp(0) = 1, so p
    is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = lam * np.log(frame.utility)
        shifted = logits - logits.max(axis=0, keepdims=True)
    if not np.isfinite(shifted).all():
        raise InvalidModel(f"lambda = {lam!r} overflows the logits lambda * log(utility)")
    w = np.exp(shifted)
    return w / w.sum(axis=0, keepdims=True)


def subjective_choice_matrix(frame, lam):
    """Utility-driven choice rates: block-diagonal, one (A x A) block per state,
    each block's rows replicating the logit choice p(a | x)."""
    if lam < 0:
        raise InvalidModel(f"lam must be >= 0, got {lam}")
    return hamiltonian(frame) * _choice(frame, lam).T.reshape(1, -1)


def closed_form_vertices(frame, params):
    """Gamma(e_x) for each state x, shaped (n_states, n_actions), from step 4
    of the module docstring."""
    A, alpha, phi = frame.n_actions, params.alpha, params.phi
    kappa = alpha**2 / (alpha**2 + (1.0 - alpha) ** 2 * A**2)
    k = 1.0 - 2.0 * (1.0 - kappa) / A
    g = 0.0 if phi == 1.0 else (1.0 - phi) * k / (1.0 - phi * k)
    choice = _choice(frame, params.lam).T
    if phi == 0.0:
        choice = np.broadcast_to(choice.mean(axis=0), choice.shape)
    return 1.0 / A + g * (choice - 1.0 / A)


def belief_matrix(frame, eta):
    """Belief-driven rates: entry (r, c) equals eta(state of column c) when rows
    r and c share the same action, else 0."""
    eta = check_belief(eta, frame.n_states)
    A = frame.n_actions
    d = frame.dim
    acts = np.arange(d) % A
    states = np.arange(d) // A
    return (acts[:, None] == acts[None, :]) * eta[states][None, :]


def cognitive_matrix(frame, params, eta):
    """Jump-rate matrix C = (1 - phi) * Pi(lam)^T + phi * B(eta)^T.

    Entry (m, n) is the rate of the n -> m jump."""
    Pi = subjective_choice_matrix(frame, params.lam)
    B = belief_matrix(frame, eta)
    return (1.0 - params.phi) * Pi.T + params.phi * B.T


def hamiltonian(frame):
    """Coherent coupling: block-diagonal matrix of all-ones (A x A) blocks,
    one per state."""
    d, A = frame.dim, frame.n_actions
    states = np.arange(d) // A
    return (states[:, None] == states[None, :]).astype(float)


def _dissipator(gamma):
    """Superoperator of the jump dissipator with elementwise rates gamma[m, n]
    for jumps n -> m, acting on row-major vectorized density operators."""
    d = gamma.shape[0]
    g = gamma.sum(axis=0)                           # total outflow per source
    S = np.zeros((d * d, d * d))
    idx = np.arange(d) * (d + 1)                    # positions of diagonal entries
    S[np.ix_(idx, idx)] = gamma
    # the anticommutator 0.5 (g_i + g_j) of entry (i, j): diagonal in S
    S.reshape(-1)[:: d * d + 1] -= 0.5 * (g[:, None] + g).reshape(-1)
    return S


def _coherent(frame, alpha):
    """Superoperator of the coherent part -i(1-alpha)[H, .] on row-major
    vectorized density operators."""
    d = frame.dim
    H, eye = hamiltonian(frame), np.eye(d)
    # kron(H, I) - kron(I, H^T): entry (i d + k, j d + l) is
    # H[i, j] I[k, l] - I[i, j] H[l, k], the products formed by broadcasting
    left = H[:, None, :, None] * eye[None, :, None, :]
    right = eye[:, None, :, None] * H.T[None, :, None, :]
    return -1j * (1.0 - alpha) * (left - right).reshape(d * d, d * d)


def assemble_lindbladian(frame, params, eta):
    """Vectorized generator: -i(1-alpha)[H, .] plus alpha times the jump
    dissipator with rates from the cognitive matrix. Acts on row-major
    vectorized density operators; shape (d^2, d^2)."""
    gamma = cognitive_matrix(frame, params, eta)
    return _coherent(frame, params.alpha) + params.alpha * _dissipator(gamma)


def evolve(superop, rho0, t):
    """Propagate rho0 for time t >= 0 under the generator."""
    if t < 0:
        raise InvalidModel(f"time must be >= 0, got {t}")
    from scipy.linalg import expm

    return _propagate(expm(superop * t), rho0, t)


def _propagate(propagator, rho0, t):
    """rho0 carried by the propagator exp(L t), checked finite and made
    Hermitian."""
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    rho_t = (propagator @ rho0.reshape(-1)).reshape(d, d)
    if not np.all(np.isfinite(rho_t)):
        raise NumericalFailure(f"evolution produced non-finite entries at t={t}")
    return 0.5 * (rho_t + rho_t.conj().T)


def _steady_rho_from_probes(superop, frame):
    """Long-time evolution fallback from the maximally mixed start; probes at
    t and 2t must agree elementwise before the result is accepted.

    The propagator is exponentiated once, at PROBE_T0, and squared at each
    doubling: exp(2tL) = exp(tL)^2. expm scales and squares too, so where it
    picks its top Pade degree at t, as on every frame tried, this repeats
    its own squarings and each probe is evolve's to the bit."""
    from scipy.linalg import expm

    rho0 = maximally_mixed(frame)
    t = PROBE_T0
    propagator = expm(superop * t)
    probe = _propagate(propagator, rho0, t)
    for _ in range(MAX_PROBE_DOUBLINGS):
        propagator = propagator @ propagator
        probe2 = _propagate(propagator, rho0, 2 * t)
        if np.abs(probe - probe2).max() <= PROBE_TOL:
            return probe2 / np.trace(probe2).real
        probe, t = probe2, 2 * t
    raise NonConvergence(f"steady-state probes did not settle by t={t}")


def _steady_batch(gens, frame):
    """Steady-state action distributions of a stack of generators: one batched
    eigendecomposition, with long-time evolution where the null space is
    degenerate or empty at tolerance. Either way the density operator's
    populations, summed over states, give the action distribution. Probes
    that do not settle raise NonConvergence with the generator's slowest
    non-zero relaxation rate, its second-smallest |eigenvalue|, as .rate.
    A stack failing first_bad_row at -1e-12 and 1e-9 raises NumericalFailure
    with the bad row's |sum - 1| as .residual; one passing is clipped at 0
    and normalized."""
    w, V = np.linalg.eig(gens)
    simple = (np.abs(w) <= NULL_TOL).sum(axis=1) == 1
    d = frame.dim
    rhos = V[np.arange(len(V)), :, np.argmin(np.abs(w), axis=1)].reshape(-1, d, d)
    rhos = 0.5 * (rhos + np.conj(np.swapaxes(rhos, 1, 2)))
    traces = np.trace(rhos, axis1=1, axis2=2).real[simple]
    if np.any(np.abs(traces) < 1e-14):
        raise NumericalFailure("null-space candidate has zero trace")
    rhos[simple] /= traces[:, None, None]
    for i in np.flatnonzero(~simple):
        try:
            rhos[i] = _steady_rho_from_probes(gens[i], frame)
        except NonConvergence as exc:
            rate = float(np.sort(np.abs(w[i]))[1])
            raise NonConvergence(f"{exc}: the slowest relaxation rate {rate:.3g} is below "
                                 f"what probes up to that t can resolve", rate=rate) from None
    diags = np.real(np.diagonal(rhos, axis1=1, axis2=2))
    probs = diags.reshape(-1, frame.n_states, frame.n_actions).sum(axis=1)
    k, residual, _ = first_bad_row(probs, -1e-12, 1e-9)
    if k is not None:
        raise NumericalFailure(f"steady action distribution {k} is not a probability "
                               f"vector: {probs[k]}", residual=float(residual[k]))
    probs = np.clip(probs, 0.0, None)
    return probs / np.add.reduce(probs, axis=1, keepdims=True)


def steady_state_distribution(frame, params, eta):
    """Long-run action distribution of the evolution at belief eta: the
    generator's null space, or long-time evolution where it is not simple."""
    if params.alpha <= 0.0:
        raise UnsupportedParameter(
            "steady state requires alpha > 0 (purely coherent evolution does not settle)"
        )
    return _steady_batch(assemble_lindbladian(frame, params, eta)[None], frame)[0]


class ActionMap:
    """Steady-state action distributions as a function of belief, for a fixed
    frame and parameter set.

    The readout is affine in the belief (see the module docstring), so the map
    solves only the certain beliefs e_x, one generator each, in one batched
    eigendecomposition at construction. Row x of ``vertices`` is Gamma(e_x),
    and every belief is read off as eta @ vertices.

    Vertices that miss ``closed_form_vertices`` by more than CLOSED_FORM_TOL
    raise NumericalFailure with the gap as ``.residual``. The gap grows as the
    slowest relaxation rate (alpha phi, or 1 - phi at alpha = 1) nears
    NULL_TOL. On 3000 random n = 2 frames (A <= 4, lam <= 50) with phi in
    [1e-3, 1 - 1e-3] it stayed within 7e-14 for alpha >= 0.05 and 5.9e-11 for
    alpha >= 1e-4. Smaller misses pass, such as 3.7e-11 on the README frame at
    alpha = 1, phi = 1e-9.
    """

    def __init__(self, frame, params):
        if params.alpha <= 0.0:
            raise UnsupportedParameter("ActionMap requires alpha > 0")
        self.frame = frame
        self.params = params
        Pi = subjective_choice_matrix(frame, params.lam)
        base = (_coherent(frame, params.alpha)
                + params.alpha * _dissipator((1.0 - params.phi) * Pi.T))
        parts = np.stack([params.alpha * _dissipator(params.phi * belief_matrix(frame, e).T)
                          for e in np.eye(frame.n_states)])
        self.vertices = _steady_batch(base + parts, frame)
        gap = float(np.abs(self.vertices - closed_form_vertices(frame, params)).max())
        if not gap <= CLOSED_FORM_TOL:            # NaN vertices fail too
            raise NumericalFailure(
                f"steady readout misses its closed form by {gap:.3g} "
                f"(alpha={params.alpha!r}, phi={params.phi!r})",
                residual=gap,
            )

    def __call__(self, eta):
        return self.batch(np.asarray(eta, dtype=float)[None, :])[0]

    def batch(self, etas):
        """Steady-state distributions for a stack of beliefs, shape (m, n)."""
        etas = np.asarray(etas, dtype=float)
        n = self.frame.n_states
        if etas.ndim != 2:
            raise InvalidModel(f"beliefs must have shape (m, {n}), got {etas.shape}")
        return check_belief(etas, n) @ self.vertices
