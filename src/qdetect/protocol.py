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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ImpossibleAction,
    ImpossibleObservation,
    InvalidModel,
    NumericalFailure,
    RunawayEpisode,
)
from .quantum import ActionMap, check_belief


@dataclass(frozen=True)
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

    def predict(self, pi):
        """One-step prior P' pi over the next state."""
        pi = np.asarray(pi, dtype=float)
        return np.array([pi[0] + self.p * pi[1], (1.0 - self.p) * pi[1]])


@dataclass(frozen=True)
class ObservationModel:
    """Observation likelihood table B[x-1, y-1] = p(y | x), rows summing to 1."""

    B: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "B", B)
        if B.ndim != 2 or B.shape[0] != 2:
            raise InvalidModel(f"B must be 2 x n_obs, got {B.shape}")
        if not np.all(B >= 0):                      # NaN fails here
            raise InvalidModel(f"observation likelihoods must be >= 0, got {B.tolist()}")
        if not np.all(np.abs(B.sum(axis=1) - 1.0) <= 1e-12):
            raise InvalidModel("each row of B must sum to 1")

    @property
    def n_obs(self):
        return self.B.shape[1]


@dataclass(frozen=True)
class DetectionCosts:
    """False alarm penalty f and per-step delay penalty d."""

    f: float
    d: float

    def __post_init__(self):
        if not (np.isfinite(self.f) and np.isfinite(self.d)):
            raise InvalidModel("costs must be finite")
        if self.f < 0 or self.d < 0:
            raise InvalidModel("costs must be >= 0")


@dataclass(frozen=True)
class BeliefGrid:
    """N+1 uniformly spaced values of pi(1) on [0, 1]."""

    n_cells: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_cells < 1:
            raise InvalidModel(f"grid needs at least one cell, got {self.n_cells}")
        points = np.linspace(0.0, 1.0, self.n_cells + 1)
        points.flags.writeable = False              # shared by every table on this grid
        object.__setattr__(self, "points", points)

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
    lo = np.searchsorted(x, q, "right") - 1
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


@dataclass(frozen=True)
class ParameterMixture:
    """Finite mixture of parameter points with nonnegative weights summing to 1."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise InvalidModel("mixture needs at least one atom")
        w = np.array([weight for _, weight in atoms], dtype=float)
        if not np.all(w >= 0):                      # NaN fails here
            raise InvalidModel(f"mixture weights must be >= 0, got {w.tolist()}")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise InvalidModel(f"mixture weights must sum to 1, got {w.sum()!r}")


@dataclass(frozen=True)
class ActionKernel:
    """Action likelihoods R[x-1, i, a-1] = p(a | state x, public belief grid[i])."""

    grid: BeliefGrid
    table: np.ndarray
    slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", R)
        if R.ndim != 3 or R.shape[0] != 2 or R.shape[1] != self.grid.size:
            raise InvalidModel(f"kernel table has shape {R.shape}")
        if not np.all(np.isfinite(R)) or np.any(R < 0):
            raise InvalidModel("kernel entries must be finite and >= 0")
        if np.abs(R.sum(axis=2) - 1.0).max() > 1e-9:
            raise InvalidModel("kernel rows must sum to 1")
        # grid_slopes of each (state, action) column, shape (2, n_actions, size)
        slopes = grid_slopes(R.transpose(0, 2, 1), np.diff(self.grid.points))
        object.__setattr__(self, "slopes", slopes)

    @property
    def n_actions(self):
        return self.table.shape[2]

    def at(self, pi1):
        """Kernel values at off-grid beliefs, interpolated linearly in pi(1)
        per (state, action) column; shape (2, n_actions) + shape of pi1."""
        stencil = grid_stencil(self.grid.points, pi1)
        return grid_interp(self.table.transpose(0, 2, 1), self.slopes, stencil)


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


def observation_likelihood(pi, y, change, obs):
    """sigma(pi, y): marginal likelihood of observation y one step ahead."""
    pred = change.predict(np.asarray(pi, dtype=float))
    return float(obs.B[:, y - 1] @ pred)


def _channel_family(frame, params, change, obs, pi_values):
    """Steady action distributions Gamma(T(pi, y)) at the sensor's posterior
    for each belief pi(1) and observation y, shape (n_pi, n_obs, A)."""
    pi = np.asarray(pi_values, dtype=float)
    e1 = _transitions(pi, obs.B[0][:, None], obs.B[1][:, None], change.p)[0].T.reshape(-1)
    gammas = ActionMap(frame, params).batch(np.stack([e1, 1.0 - e1], axis=1))
    return gammas.reshape(len(pi_values), obs.n_obs, -1)


def build_action_kernel(frame, params, change, obs, grid):
    """Detector-side action likelihoods on the belief grid:
    R_{x,pi}(a) = sum_y Gamma(T(pi, y))(a) B_{x,y}, with Gamma the steady-state
    action distribution at the sensor's posterior."""
    gammas = _channel_family(frame, params, change, obs, grid.points)
    return ActionKernel(grid=grid, table=np.einsum("iya,xy->xia", gammas, obs.B))


def build_mismatched_kernel(frame, mixture, change, obs, grid):
    """Kernel under parameter uncertainty: the mixture-weighted sum of
    per-atom kernels. A single-atom mixture reduces to build_action_kernel."""
    table = None
    for params, weight in mixture.atoms:
        k = build_action_kernel(frame, params, change, obs, grid)
        table = weight * k.table if table is None else table + weight * k.table
    return ActionKernel(grid=grid, table=table)


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


RECORD_FIELDS = ("n", "x", "y", "eta1", "a", "pi1", "u")

# memory an episode batch's log may hold before simulate_episodes gives up on
# the batch: a change probability near zero makes the per-episode step cap
# astronomically large, and the log would grow until memory runs out
LOG_BUDGET = 2**30


def _log_bytes(rows, steps):
    """Bytes charged to an episode log holding `rows` records over `steps`
    steps: the 8 columns store 8 bytes per record, plus 200 bytes per column
    and step. The column buffers spend no memory per step; the second term is
    the cost of the per-step arrays the log used to be, kept as a deliberate
    over-count so that a runaway batch stops at the same step as before."""
    return 8 * (8 * rows + 200 * steps)


@dataclass(frozen=True)
class EpisodeBatch:
    """The episode record of simulate_episodes: per-episode change and stop
    times and realized costs, one entry per seed, and the per-step log, one
    array per RECORD_FIELDS name plus "episode" (the episode's index), in
    step order and by episode index within a step."""

    change_time: np.ndarray
    stop_time: np.ndarray
    cost: np.ndarray
    log: dict


def _cdf(probs, episodes):
    """Row-wise cdf that Generator.choice(len(p), p=p) draws from:
    cumsum(p) / sum(p). choice's checks stay: entries finite and >= 0, sum
    within sqrt(eps) of 1."""
    residual = np.abs(probs.sum(axis=1) - 1.0)
    ok = (probs >= 0).all(axis=1) & (residual <= np.sqrt(np.finfo(float).eps))  # NaN, inf fail
    if not ok.all():
        k = int(np.argmin(ok))
        raise NumericalFailure(f"episode {episodes[k]}: {probs[k]} is not a probability "
                               f"vector", residual=float(residual[k]))
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _draw(probs, uniforms, episodes):
    """Row-wise index that Generator.choice(len(p), p=p) draws with uniform
    u: the count of entries of the _cdf of p that are <= u."""
    return (_cdf(probs, episodes) <= uniforms[:, None]).sum(axis=1)


def _posterior(num1, num2, sigma):
    """The posterior pairs (num1, num2) / sigma as one (k, 2) array."""
    out = np.empty((sigma.size, 2))
    np.divide(num1, sigma, out=out[:, 0])
    np.divide(num2, sigma, out=out[:, 1])
    return out


def _grown(log, columns, rows, capacity):
    """The column buffers of log moved to new ones of capacity entries, each
    with the dtype of its step column, keeping their first rows entries."""
    grown = {}
    for (key, buffer), column in zip(log.items(), columns):
        grown[key] = np.empty(capacity, np.asarray(column).dtype)
        grown[key][:rows] = buffer[:rows]
    return grown


def _raise_impossible(sigma, error, kind, values, episodes, n, pi):
    """Raise the typed error for the first episode whose evidence has zero
    likelihood; some sigma must be <= 0."""
    k = np.flatnonzero(sigma <= 0.0)[0]
    raise error(f"episode {episodes[k]} step {n}: {kind} {values[k]} has zero "
                f"likelihood at belief {pi[k]}", episode=int(episodes[k]), step=n,
                belief=pi[k], **{kind: int(values[k])})


def simulate_episodes(frame, params, change, obs, policy, kernel, seeds, costs=None,
                      step_cap=None):
    """Run the protocol once per seed, every running episode advancing one
    step per iteration on arrays: the chain may jump, the sensor observes y
    and updates its private belief, the agent draws an action from the steady
    state there, the detector updates the public belief through the kernel
    and applies the policy, and an episode stops at its first u = 1.

    Episode k draws from default_rng(seeds[k]): the change time, then two
    uniforms per step that _cdf's rows turn into y and a as Generator.choice
    would. The filters keep the scalar expression order, so each episode's
    records, times and cost equal those of the episode run alone. Errors
    name the episode and step; of several failures the one raised is the
    first in step order, then check order, then episode index. A batch stops
    with RunawayEpisode when an episode passes step_cap or when its log would
    pass LOG_BUDGET bytes (as _log_bytes counts them).
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    if not rngs:
        raise InvalidModel("need at least one episode")
    amap = ActionMap(frame, params)
    if step_cap is None:
        step_cap = int(10 * change.mean_change_time + 1000)
    f, d = (costs.f, costs.d) if costs is not None else (0.0, 0.0)
    tau0 = np.array([rng.geometric(change.p) for rng in rngs])
    stop = np.zeros_like(tau0)
    obs_cdf = _cdf(obs.B, np.zeros(2, int))       # y's cdf rows by state, checked once
    log = {k: np.empty(0) for k in ("episode",) + RECORD_FIELDS}    # column buffers
    act = np.arange(len(rngs))                      # running episodes
    tau = tau0                                      # and their change times
    pi = np.tile(change.pi0, (act.size, 1))
    n = block_end = rows_logged = 0
    while act.size:
        n += 1
        if n > step_cap:
            raise RunawayEpisode(f"episode {act[0]}: no stop after {step_cap} steps",
                                 episode=int(act[0]), step_cap=step_cap)
        start, rows_logged = rows_logged, rows_logged + act.size
        if _log_bytes(rows_logged, n) > LOG_BUDGET:
            raise RunawayEpisode(f"episode {act[0]} step {n}: the episode log would pass "
                                 f"its budget of {LOG_BUDGET} bytes",
                                 episode=int(act[0]), step=n, budget=LOG_BUDGET)
        if n > block_end:                           # the next uniforms of each running episode
            width = max(32, n)
            uniforms = np.array([rngs[k].random(2 * width) for k in act])
            rows, block_start, block_end = np.arange(act.size), n, n + width - 1
        col = 2 * (n - block_start)
        x = np.where(n >= tau, 1, 2)
        y = (obs_cdf[x - 1] <= uniforms[rows, col][:, None]).sum(axis=1) + 1
        pi = check_belief(pi, 2)
        _, num1, num2, sigma = bayes_step(pi[:, 0], pi[:, 1], obs.B[0, y - 1], obs.B[1, y - 1],
                                          change.p)
        if (sigma <= 0.0).any():
            _raise_impossible(sigma, ImpossibleObservation, "observation", y, act, n, pi)
        etas = _posterior(num1, num2, sigma)
        a = _draw(amap.batch(etas), uniforms[rows, col + 1], act) + 1
        like = kernel.at(pi[:, 0])[:, a - 1, np.arange(act.size)]
        _, num1, num2, sigma = bayes_step(pi[:, 0], pi[:, 1], like[0], like[1], change.p)
        if (sigma <= 0.0).any():
            _raise_impossible(sigma, ImpossibleAction, "action", a, act, n, pi)
        pi = _posterior(num1, num2, sigma)
        u = policy.decide(pi[:, 0])
        columns = (act, n, x, y, etas[:, 0], a, pi[:, 0], u)
        if rows_logged > log["n"].size:             # double the buffers, first 32 steps' worth
            log = _grown(log, columns, start, max(2 * log["n"].size, 32 * act.size))
        for buffer, column in zip(log.values(), columns):
            buffer[start:rows_logged] = column
        stopped = u == 1
        if stopped.any():
            stop[act[stopped]] = n
            running = ~stopped
            act, tau, pi, rows = act[running], tau[running], pi[running], rows[running]
    cost = d * np.maximum(stop - tau0, 0) + np.where(stop < tau0, f, 0.0)
    return EpisodeBatch(tau0, stop, cost, {k: v[:rows_logged].copy() for k, v in log.items()})


def simulate_episode(frame, params, change, obs, policy, kernel, seed, costs=None,
                     step_cap=None):
    """One run of the protocol from one seed: a one-episode EpisodeBatch."""
    return simulate_episodes(frame, params, change, obs, policy, kernel, [seed], costs=costs,
                             step_cap=step_cap)


def estimate_cost(frame, params, change, obs, policy, kernel, costs, n_episodes, seed):
    """Mean realized cost and its standard error over independent episodes,
    one per child of SeedSequence(seed)."""
    realized = simulate_episodes(frame, params, change, obs, policy, kernel,
                                 np.random.SeedSequence(seed).spawn(n_episodes),
                                 costs=costs).cost
    stderr = float(realized.std(ddof=1) / np.sqrt(n_episodes)) if n_episodes > 1 else 0.0
    return float(realized.mean()), stderr
