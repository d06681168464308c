"""Two-layer filtering protocol between a hidden change process and an
observer who only sees decisions.

A two-state Markov chain jumps once into an absorbing changed state. A sensor
sees noisy observations of the chain, keeps a private Bayesian belief, and
hands that belief to a decision agent whose action distribution is the quantum
core's steady state. A detector sees only the actions and runs its own filter
through a belief-indexed action-likelihood kernel.

State 1 is the changed (absorbing) state, state 2 the initial one. The
parameter p is the per-step probability that the change occurs, so the change
time is geometric(p) with mean 1/p.
"""

import operator

import numpy as np

from ._record import record
from .errors import (
    ImpossibleAction,
    ImpossibleObservation,
    InvalidModel,
    NumericalFailure,
    RunawayEpisode,
)
from .quantum import ActionMap, check_belief, first_bad_row


def _check_rows(rows, tol, name):
    """InvalidModel naming the first row of rows that fails first_bad_row at
    floor 0 and tol: ">= 0" if it holds NaN or a negative entry, else "sum to 1".
    A row sum that overflows is inf, off by inf, with no RuntimeWarning."""
    with np.errstate(over="ignore"):
        k, residual, low = first_bad_row(rows, 0.0, tol)
    if k is not None:
        rule = "must be >= 0" if low else f"must sum to 1 (off by {float(residual[k])!r})"
        raise InvalidModel(f"{name} {rule}, got row {k}: {rows[k].tolist()}")


@record
class ChangeModel:
    """Absorbing two-state chain: P = [[1, 0], [p, 1-p]], initial belief (0, 1)."""

    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise InvalidModel(f"p must be in (0,1], got {self.p}")

    @property
    def P(self):
        return np.array([[1.0, 0.0], [self.p, 1.0 - self.p]])

    @property
    def pi0(self):
        return np.array([0.0, 1.0])

    @property
    def mean_change_time(self):
        return 1.0 / self.p


@record
class ObservationModel:
    """Observation likelihood table B[x-1, y-1] = p(y | x), rows summing to 1."""

    B: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != 2:
            raise InvalidModel(f"B must be 2 x n_obs, got {B.shape}")
        _check_rows(B, 1e-12, "observation likelihoods")
        return {"B": B}

    @property
    def n_obs(self):
        return self.B.shape[1]


@record
class DetectionCosts:
    """False alarm penalty f and per-step delay penalty d."""

    f: float
    d: float

    def __post_init__(self):
        if not (np.isfinite(self.f) and np.isfinite(self.d)):
            raise InvalidModel("costs must be finite")
        if self.f < 0 or self.d < 0:
            raise InvalidModel("costs must be >= 0")


@record
class BeliefGrid:
    """N+1 uniformly spaced values of pi(1) on [0, 1], cached read-only as
    the attribute points."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 1:
            raise InvalidModel(f"grid needs at least one cell, got {self.n_cells}")
        return {"points": np.linspace(0.0, 1.0, self.n_cells + 1)}

    @property
    def size(self):
        return self.n_cells + 1


def grid_stencil(x, q):
    """Where the queries q fall on the increasing grid x, for grid_interp:
    the index lo of each query's cell and the step q - x[lo] >= 0 from its
    left end, with q clipped to [x[0], x[-1]]. The step is taken as
    -(x[lo] - q): the same number, except -0.0 for a query on a grid point,
    so that slope * step + F[lo] keeps a -0.0 entry there."""
    q = np.minimum(np.maximum(q, x[0]), x[-1])
    lo = x.searchsorted(q, "right") - 1
    return lo, -(x[lo] - q)


def grid_slopes(F, dx, out=None):
    """Slope of the piecewise-linear table F, along its last axis on a grid
    of cell widths dx, on each cell, and 0 at the last point; out is an
    optional F-shaped buffer."""
    out = np.empty(F.shape) if out is None else out
    np.divide(F[..., 1:] - F[..., :-1], dx, out=out[..., :-1])
    out[..., -1] = 0.0
    return out


def grid_interp(F, slopes, stencil):
    """The piecewise-linear table F (last axis) with its grid_slopes, read at
    a grid_stencil's queries into a new array of shape F.shape[:-1] + the
    queries' shape.

    slope * (q - x[lo]) + F[lo] is np.interp's own formula, so the result is
    np.interp's to the bit wherever F and its slopes are finite. A query on
    a grid point or beyond an end reads F there, as np.interp does, except
    that a -0.0 entry followed by a negative one reads +0.0."""
    lo, step = stencil
    out = slopes.take(lo, axis=-1)
    out *= step
    out += F.take(lo, axis=-1)
    return out


@record
class ParameterMixture:
    """Finite mixture of parameter points with nonnegative weights summing to 1."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple(map(tuple, self.atoms))
        if not atoms:
            raise InvalidModel("mixture needs at least one atom")
        _check_rows(np.array([[w for _, w in atoms]], dtype=float), 1e-12, "mixture weights")
        return {"atoms": atoms}


@record
class ActionKernel:
    """Action likelihoods R[x-1, i, a-1] = p(a | state x, public belief grid[i]).
    Cached attributes: columns, each (state, action) column of R contiguous,
    shape (2, n_actions, size), and slopes, their grid_slopes."""

    grid: BeliefGrid
    table: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.table, dtype=float)
        if R.ndim != 3 or R.shape[0] != 2 or R.shape[1] != self.grid.size:
            raise InvalidModel(f"kernel table has shape {R.shape}")
        _check_rows(R.reshape(2 * self.grid.size, -1), 1e-9, "kernel rows")
        columns = np.ascontiguousarray(R.transpose(0, 2, 1))
        return {"table": R, "columns": columns,
                "slopes": grid_slopes(columns, np.diff(self.grid.points))}

    @property
    def n_actions(self):
        return self.table.shape[2]

    def at(self, pi1):
        """Kernel values at off-grid beliefs, interpolated linearly in pi(1)
        per (state, action) column; shape (2, n_actions) + shape of pi1."""
        stencil = grid_stencil(self.grid.points, pi1)
        return grid_interp(self.columns, self.slopes, stencil)


def bayes_step(pi1, pi2, like1, like2, p):
    """One predict-then-Bayes step of the two-state filter, elementwise over
    broadcast arrays: the belief (pi1, pi2) moves through P' and is weighted
    by the likelihoods (like1, like2) of the evidence in states 1 and 2.
    Returns the predicted pi(1), the posterior numerators and their sum
    sigma, the evidence's marginal likelihood; what sigma = 0 means is the
    caller's rule."""
    pred1 = pi1 + p * pi2
    num1 = like1 * pred1
    num2 = like2 * ((1.0 - p) * pi2)
    return pred1, num1, num2, num1 + num2


def _transitions(points, like1, like2, p):
    """Posterior pi(1) and marginal likelihood for each evidence value (the
    rows of like1, like2) at each grid point, shape (n_evidence, npts).
    Impossible evidence gets the prediction as a placeholder posterior; it
    carries zero weight in the expectation."""
    pred1, num1, _, sigma = bayes_step(points, 1.0 - points, like1, like2, p)
    return np.where(sigma > 0, num1 / np.where(sigma > 0, sigma, 1.0), pred1), sigma


def private_belief_update(pi, y, change, obs):
    """Bayes update of the sensor's belief after observation y (1-based):
    T(pi, y) = B_y P' pi / sigma(pi, y)."""
    pi = check_belief(pi, 2)
    _, num1, num2, sigma = bayes_step(pi[0], pi[1], obs.B[0, y - 1], obs.B[1, y - 1], change.p)
    if sigma <= 0.0:
        raise ImpossibleObservation(f"observation {y} has zero likelihood at belief {pi}",
                                    belief=pi, observation=y)
    return np.array([num1, num2]) / sigma


def _channel_family(amap, change, obs, pi_values):
    """Steady action distributions Gamma(T(pi, y)) of the ActionMap amap at
    the sensor's posterior for each belief pi(1) and observation y, shape
    (n_pi, n_obs, A)."""
    pi = np.asarray(pi_values, dtype=float)
    e1 = _transitions(pi, obs.B[0][:, None], obs.B[1][:, None], change.p)[0].T.reshape(-1)
    gammas = amap.batch(np.stack([e1, 1.0 - e1], axis=1))
    return gammas.reshape(len(pi_values), obs.n_obs, -1)


def build_action_kernel(amap, change, obs, grid):
    """Detector-side action likelihoods on the belief grid:
    R_{x,pi}(a) = sum_y Gamma(T(pi, y))(a) B_{x,y}, with Gamma the steady-state
    action distribution of the ActionMap amap at the sensor's posterior."""
    gammas = _channel_family(amap, change, obs, grid.points)
    return ActionKernel(grid=grid, table=np.einsum("iya,xy->xia", gammas, obs.B))


def build_mismatched_kernel(frame, mixture, change, obs, grid):
    """Kernel under parameter uncertainty: the mixture-weighted sum of
    per-atom kernels. A single-atom mixture reduces to build_action_kernel."""
    tables = [weight * build_action_kernel(ActionMap(frame, params), change, obs, grid).table
              for params, weight in mixture.atoms]
    return ActionKernel(grid=grid, table=sum(tables[1:], tables[0]))


def public_belief_update(pi, a, change, kernel):
    """Detector's belief update after seeing action a (1-based):
    T_bar(pi, a) = R_pi(a) P' pi / sigma_bar(pi, a). Returns the new belief
    and sigma_bar. Off-grid beliefs read R by linear interpolation."""
    pi = check_belief(pi, 2)
    like = kernel.at(pi[0])[:, a - 1]
    _, num1, num2, sigma_bar = bayes_step(pi[0], pi[1], like[0], like[1], change.p)
    if sigma_bar <= 0.0:
        raise ImpossibleAction(f"action {a} has zero likelihood at belief {pi}",
                               belief=pi, action=a)
    return np.array([num1, num2]) / sigma_bar, float(sigma_bar)


# the most steps an episode may take: a change probability near zero would
# otherwise make the step cap 10 / p + 1000 astronomically large
MAX_STEPS = 2**20


# episode k seeds from the spawn key (k,), which is one uint32 word only below this
MAX_EPISODES = 2**32

BLOCK_STEPS = 64                # steps of uniforms each running episode draws at once

# numpy.random.SeedSequence's mixing, which numpy keeps stream-stable: a pool
# of 4 uint32 words, the hash constants of its entropy mixing (A) and of its
# generate_state (B), and the multipliers of mix
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, init, mult, k):
    """SeedSequence's hashmix of a word (a Python int or a uint32 array) as
    its k-th hashmix call from init: hash constant init * mult**k mod 2**32."""
    const = init * pow(mult, k, _MASK + 1) & _MASK
    value = (value ^ const) * (const * mult & _MASK) & _MASK
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    result = (_MIX_L * x & _MASK) - (_MIX_R * y & _MASK) & _MASK
    return result ^ result >> 16


def episode_generators(seed, n):
    """One Generator(PCG64) per child of SeedSequence(seed).spawn(n), each in
    exactly the state default_rng(child) gives, for seed >= 0 and
    n <= MAX_EPISODES.

    Child k's entropy is the seed's 32-bit words, zero-padded to the pool
    size, then its spawn key k, so its pool is the parent's pool,
    SeedSequence(seed).pool, with k mixed in last. numpy mixes the seed; the
    spawn keys mix here as one uint32 array over k, from the hash constant
    after the seed's words, and the pool then gives the (n, 8) state words
    PCG64 seeds from."""
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed sequence whose state words are already generated."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words                       # PCG64 asks for 4 uint64 words

    seed = operator.index(seed)
    if seed < 0:
        raise InvalidModel(f"seed must be >= 0, got {seed}")
    if n > MAX_EPISODES:
        raise InvalidModel(f"at most {MAX_EPISODES} (2**32) episodes, got {n}")
    # the seed's mixing made 4 hashmix calls to fill the pool, 12 to cross-mix
    # it and 4 per seed word past the pool
    first = 16 + 4 * max((seed.bit_length() + 31) // 32 - _POOL, 0)
    pool = SeedSequence(seed).pool.tolist()
    keys = np.arange(n, dtype=np.uint32)
    pool = [_mix(word, _hashmix(keys, _INIT_A, _MULT_A, first + i)) for i, word in enumerate(pool)]
    state = np.empty((n, 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        state[:, i] = _hashmix(pool[i % _POOL], _INIT_B, _MULT_B, i)
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [Generator(PCG64(StateWords(w))) for w in words]


@record
class EpisodeBatch:
    """The episode record of simulate_episodes, one entry per seed: change and
    stop times, delay max(stop - change, 0), false alarm stop < change, cost."""

    change_time: np.ndarray
    stop_time: np.ndarray
    delay: np.ndarray
    false_alarm: np.ndarray
    cost: np.ndarray

    def cost_stats(self):
        """Mean cost and its standard error, from sums taken in episode order."""
        n = self.cost.size
        if n == 0:
            raise InvalidModel("an empty EpisodeBatch has no cost statistics")
        total = total_sq = 0.0
        for k, c in enumerate(self.cost.tolist()):
            total += c
            try:
                total_sq += c**2
            except OverflowError:
                raise NumericalFailure(f"episode {k}: cost {c!r} overflows when squared") from None
            if total_sq == np.inf:
                raise NumericalFailure(f"episode {k}: the sum of squared costs overflows")
        mean = total / n
        var = max(total_sq / n - mean**2, 0.0)
        return mean, (var * n / max(n - 1, 1)) ** 0.5 / n**0.5


# how far from 1 Generator.choice lets the sum of p be
_SQRT_EPS = np.sqrt(np.finfo(float).eps)


def _cdf(probs, episodes):
    """Row-wise cdf that Generator.choice(len(p), p=p) draws from:
    cumsum(p) / sum(p). choice's checks stay: entries finite and >= 0, sum
    within sqrt(eps) of 1."""
    k, residual, _ = first_bad_row(probs, 0.0, _SQRT_EPS)
    if k is not None:
        raise NumericalFailure(f"episode {episodes[k]}: {probs[k]} is not a probability "
                               f"vector", residual=float(residual[k]))
    cdf = np.add.accumulate(probs, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _draw(cdf, uniforms):
    """Row-wise 1-based index that Generator.choice(len(p), p=p) draws with
    uniform u, from the _cdf rows of p: 1 + the count of cdf entries <= u."""
    return np.add.reduce(cdf <= uniforms[:, None], axis=1) + 1


def _update(pi, like1, like2, p, error, kind, values, episodes, n):
    """bayes_step of the running episodes' beliefs pi, shape (k, 2), on the
    evidence values with likelihoods (like1, like2): the posterior rows as
    one (k, 2) array. The first episode whose evidence has zero likelihood
    raises the typed error, naming its episode, step n, belief and value."""
    _, num1, num2, sigma = bayes_step(pi[:, 0], pi[:, 1], like1, like2, p)
    if (sigma <= 0.0).any():
        k = np.flatnonzero(sigma <= 0.0)[0]
        raise error(f"episode {episodes[k]} step {n}: {kind} {values[k]} has zero "
                    f"likelihood at belief {pi[k]}", episode=int(episodes[k]), step=n,
                    belief=pi[k], **{kind: int(values[k])})
    out = np.empty((sigma.size, 2))
    np.divide(num1, sigma, out=out[:, 0])
    np.divide(num2, sigma, out=out[:, 1])
    return out


def simulate_episodes(amap, change, obs, policy, kernel, rngs, costs):
    """Run the protocol once per generator, every running episode advancing one
    step per iteration on arrays: the chain may jump, the sensor observes y
    and updates its private belief, the agent draws an action from the steady
    state of the ActionMap amap there, the detector updates the public belief
    through the kernel and applies the policy, and an episode stops at its
    first u = 1.

    Episode k draws from the Generator rngs[k]: the change time, then two
    uniforms per step that _draw turns into y and a as Generator.choice
    would, drawn in blocks of BLOCK_STEPS steps, so memory is bounded by
    the running episodes, not by the steps. The filters keep the scalar
    expression order, so each episode's times and cost equal those of the
    episode run alone. Errors name the episode and step; of several failures
    the one raised is the first in step order, then check order, then episode
    index. A batch stops with RunawayEpisode when an episode passes the step
    cap, 10 / p + 1000 steps but at most MAX_STEPS.
    """
    if not rngs:
        raise InvalidModel("need at least one episode")
    step_cap = int(min(10 * change.mean_change_time + 1000, MAX_STEPS))
    tau0 = np.array([rng.geometric(change.p) for rng in rngs])
    stop = np.zeros_like(tau0)
    obs_cdf = _cdf(obs.B, np.zeros(2, int))       # y's cdf rows by state, checked once
    act = np.arange(len(rngs))                      # running episodes
    tau = tau0                                      # and their change times
    pi = np.tile(change.pi0, (act.size, 1))
    n = 0
    while act.size:
        n += 1
        if n > step_cap:
            raise RunawayEpisode(f"episode {act[0]}: no stop after {step_cap} steps",
                                 episode=int(act[0]), step_cap=step_cap)
        col = 2 * ((n - 1) % BLOCK_STEPS)
        if col == 0:                                # the next uniforms of each running episode
            uniforms = np.empty((act.size, 2 * BLOCK_STEPS))
            for k, row in zip(act.tolist(), uniforms):
                rngs[k].random(out=row)
            rows = np.arange(act.size)
        # y's cdf row is state 2's (index 1) until the change at step tau
        y = _draw(obs_cdf.take(tau > n, axis=0), uniforms[rows, col])
        pi = check_belief(pi, 2)
        like = obs.B.take(y - 1, axis=1)            # p(y | state 1), p(y | state 2)
        etas = _update(pi, like[0], like[1], change.p, ImpossibleObservation, "observation",
                       y, act, n)
        a = _draw(_cdf(amap.batch(etas), act), uniforms[rows, col + 1])
        like = kernel.at(pi[:, 0])[:, a - 1, np.arange(act.size)]
        pi = _update(pi, like[0], like[1], change.p, ImpossibleAction, "action", a, act, n)
        u = policy.decide(pi[:, 0])
        stopped = u == 1
        if stopped.any():
            stop[act[stopped]] = n
            running = ~stopped
            act, tau, pi, rows = act[running], tau[running], pi[running], rows[running]
    delay = np.maximum(stop - tau0, 0)
    false_alarm = stop < tau0
    return EpisodeBatch(tau0, stop, delay, false_alarm,
                        costs.d * delay + np.where(false_alarm, costs.f, 0.0))


def simulate_episode(amap, change, obs, policy, kernel, seed, costs):
    """One run of the protocol from default_rng(seed): a one-episode EpisodeBatch."""
    return simulate_episodes(amap, change, obs, policy, kernel,
                             [np.random.default_rng(seed)], costs)


def estimate_cost(amap, change, obs, policy, kernel, costs, n_episodes, seed):
    """EpisodeBatch.cost_stats of the episodes seeded by episode_generators(seed, n_episodes)."""
    return simulate_episodes(amap, change, obs, policy, kernel,
                             episode_generators(seed, n_episodes), costs).cost_stats()
