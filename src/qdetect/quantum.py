"""Open-quantum decision core.

An agent deciding among A actions while uncertain over n world states carries a
psychological state: a density operator on the d = n*A dimensional space whose
basis vectors are (state, action) pairs in state-major order. Its evolution
blends a coherent part (block Hamiltonian of ones) with a dissipative part
whose jump rates come from a cognitive matrix: a convex mix of utility-driven
choice rates and belief-driven rates. The observable output is the steady-state
action distribution.

The steady readout is affine in the belief: Gamma(eta) = sum_x eta_x Gamma(e_x)
for every frame, with e_x the certain belief in state x. ``ActionMap`` relies on
this. Proof, for alpha > 0 and eta on the simplex, writing p = diag(rho) for the
populations, pi_x = p(. | x) for the choice rates and q for the action marginal:

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
   depend on eta at all, so the fallback's answer is belief-free. A linear or
   constant map on the simplex equals sum_x eta_x Gamma(e_x).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidModel,
    NonConvergence,
    NumericalFailure,
    UnsupportedParameter,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DecisionFrame:
    """State/action spaces and the strictly positive utility table u(a | x),
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
        if not np.all(u > 0):
            raise InvalidModel("utilities must be strictly positive")

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


def check_belief(eta, n):
    """Validate a length-n belief vector or a stack of them, shape (m, n):
    each row nonnegative (to -1e-12) and summing to 1 within 1e-12. NaN fails.
    Returns the beliefs clipped at 0."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim not in (1, 2) or eta.shape[-1] != n:
        raise InvalidModel(f"belief must have length {n}, got shape {eta.shape}")
    rows = eta.reshape(-1, n)
    ok = (rows >= -1e-12).all(axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)
    if not ok.all():
        row = int(np.argmin(ok))
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


def subjective_choice_matrix(frame, lam):
    """Utility-driven choice rates: block-diagonal, one (A x A) block per state,
    each block's rows replicating p(a | x) = u(a|x)^lam / sum_j u(j|x)^lam.

    Powers are computed in log space so large lam does not overflow.
    """
    if lam < 0:
        raise InvalidModel(f"lam must be >= 0, got {lam}")
    A, n = frame.n_actions, frame.n_states
    logits = lam * np.log(frame.utility)            # (A, n)
    logits -= logits.max(axis=0, keepdims=True)
    w = np.exp(logits)
    p = w / w.sum(axis=0, keepdims=True)            # p[a, x]
    if not np.all(np.isfinite(p)):
        raise NumericalFailure(f"choice probabilities not finite at lam={lam}")
    d = frame.dim
    Pi = np.zeros((d, d))
    for x in range(n):
        blk = slice(x * A, (x + 1) * A)
        Pi[blk, blk] = np.tile(p[:, x], (A, 1))
    return Pi


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
    S -= 0.5 * (np.kron(np.diag(g), np.eye(d)) + np.kron(np.eye(d), np.diag(g)))
    return S


def _coherent(frame, alpha):
    """Superoperator of the coherent part -i(1-alpha)[H, .] on row-major
    vectorized density operators."""
    H, eye = hamiltonian(frame), np.eye(frame.dim)
    return -1j * (1.0 - alpha) * (np.kron(H, eye) - np.kron(eye, H.T))


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

    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    rho_t = (expm(superop * t) @ rho0.reshape(-1)).reshape(d, d)
    if not np.all(np.isfinite(rho_t)):
        raise NumericalFailure(f"evolution produced non-finite entries at t={t}")
    return 0.5 * (rho_t + rho_t.conj().T)


def _finalize_distribution(probs):
    if probs.min() < -1e-12:
        raise NumericalFailure(f"action distribution has entry {probs.min()} < 0")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise NumericalFailure(f"action distribution sums to {total}, not 1")
    return probs / total


def _steady_rho_from_probes(superop, frame):
    """Long-time evolution fallback from the maximally mixed start; probes at
    t and 2t must agree elementwise before the result is accepted."""
    rho0 = maximally_mixed(frame)
    t = PROBE_T0
    probe = evolve(superop, rho0, t)
    for _ in range(MAX_PROBE_DOUBLINGS):
        probe2 = evolve(superop, rho0, 2 * t)
        if np.abs(probe - probe2).max() <= PROBE_TOL:
            return probe2 / np.trace(probe2).real
        probe, t = probe2, 2 * t
    raise NonConvergence(
        f"steady-state probes did not settle by t={t}",
        probes=(probe, probe2),
    )


def _steady_batch(gens, frame):
    """Steady-state action distributions of a stack of generators: one batched
    eigendecomposition, with long-time evolution where the null space is
    degenerate or empty at tolerance. Either way the density operator's
    populations, summed over states, give the action distribution."""
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
        rhos[i] = _steady_rho_from_probes(gens[i], frame)
    diags = np.real(np.diagonal(rhos, axis1=1, axis2=2))
    probs = diags.reshape(-1, frame.n_states, frame.n_actions).sum(axis=1)
    return np.stack([_finalize_distribution(p) for p in probs])


def steady_state_distribution(frame, params, eta):
    """Long-run action distribution of the evolution at belief eta.

    Primary method: eigendecomposition of the generator, selecting the
    one-dimensional null space. If the null space is degenerate or empty at
    tolerance, fall back to long-time evolution from the maximally mixed state.
    """
    if params.alpha <= 0.0:
        raise UnsupportedParameter(
            "steady state requires alpha > 0 (purely coherent evolution does not settle)"
        )
    return _steady_batch(assemble_lindbladian(frame, params, eta)[None], frame)[0]


class ActionMap:
    """Steady-state action distributions as a function of belief, for a fixed
    frame and parameter set.

    The readout is affine in the belief (see the module docstring), so the map
    solves only the certain beliefs e_x plus the barycenter, in one batched
    eigendecomposition at construction. Row x of ``vertices`` is Gamma(e_x),
    and every belief is read off as eta @ vertices. A barycenter that misses
    the vertex mean by more than 1e-9 raises NumericalFailure.
    """

    def __init__(self, frame, params):
        if params.alpha <= 0.0:
            raise UnsupportedParameter("ActionMap requires alpha > 0")
        self.frame = frame
        self.params = params
        n = frame.n_states
        Pi = subjective_choice_matrix(frame, params.lam)
        base = (_coherent(frame, params.alpha)
                + params.alpha * _dissipator((1.0 - params.phi) * Pi.T))
        parts = np.stack([params.alpha * _dissipator(params.phi * belief_matrix(frame, e).T)
                          for e in np.eye(n)])
        etas = np.vstack([np.eye(n), np.full(n, 1.0 / n)])
        gammas = _steady_batch(base + np.tensordot(etas, parts, axes=(1, 0)), frame)
        self.vertices = gammas[:n]
        residual = float(np.abs(gammas[n] - self.vertices.mean(axis=0)).max())
        if residual > 1e-9:
            raise NumericalFailure(
                f"steady readout is not affine in belief: barycenter misses "
                f"the vertex mean by {residual:.3g}",
                residual=residual,
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
