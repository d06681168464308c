"""Experiment configuration: one INI file fully determines an experiment.

Sections and keys:

    [frame]        n_states (= 2), n_actions (<= 16), utility (rows ';'-separated)
    [params]       alpha, lambda, phi
    [mixture]      atom<k> = alpha lambda phi weight   (optional)
    [change]       p (in (0, 1], with 1/p finite)
    [observation]  B (rows ';'-separated)
    [costs]        f, d
    [solver]       grid_n, vi_tol (finite, > 0), max_iter (>= 1), seed (>= 0)
    [output]       dir

Only [frame] and [params] are universally required; each command validates
the sections it needs. Each lambda must pass the logit rule quantum._choice,
whose error is re-raised naming its section and key. The config hash covers
every section except [output], so identical experiments land in identical
cache directories regardless of where artifacts are written.
"""

import configparser
import hashlib

import numpy as np

from ._record import record
from .errors import ConfigError, InvalidModel
from .protocol import (
    BeliefGrid,
    ChangeModel,
    DetectionCosts,
    ObservationModel,
    ParameterMixture,
)
from .quantum import DecisionFrame, PsychParams, _choice
from .stopping import MAX_ITER, VI_TOL

MAX_GENERATOR_BYTES = 2**25     # n_actions <= 16; see the README's config notes


def _parse_matrix(text, what):
    try:
        rows = [
            [float(tok) for tok in row.split()]
            for row in text.split(";")
            if row.strip()
        ]
    except ValueError as exc:
        raise ConfigError(f"bad {what} matrix: {exc}") from None
    if not rows or len({len(r) for r in rows}) != 1:
        raise ConfigError(f"bad {what} matrix: ragged or empty rows")
    return np.array(rows)


def _parse_atom(text):
    toks = text.split()
    if len(toks) != 4:
        raise ValueError(f"needs 4 fields 'alpha lambda phi weight', got {len(toks)}")
    return [float(t) for t in toks]


def _check_logits(frame, lam, where):
    """ConfigError under where (a section, and a key for an atom) when the
    logit rule quantum._choice refuses lam."""
    try:
        _choice(frame, lam)
    except InvalidModel as exc:
        raise ConfigError(f"{where} {exc}") from None


def _read_ini(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None
    return {
        section: dict(parser.items(section)) for section in parser.sections()
    }


def config_hash(sections):
    """12-hex digest of the canonicalized config, [output] excluded."""
    lines = []
    for section in sorted(sections):
        if section == "output":
            continue
        for key in sorted(sections[section]):
            value = " ".join(str(sections[section][key]).split())
            lines.append(f"{section}.{key}={value}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


@record
class ExperimentConfig:
    """The parsed config: model parts (None where a section is absent), solver
    settings, output directory and the config hash."""

    frame: DecisionFrame
    params: PsychParams
    mixture: ParameterMixture | None
    change: ChangeModel | None
    obs: ObservationModel | None
    costs: DetectionCosts | None
    grid: BeliefGrid
    vi_tol: float
    max_iter: int
    seed: int | None
    out_dir: str
    hash: str

    def require(self, *names):
        """Fail with ConfigError if any named optional part is missing."""
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(
                "config is missing required section(s): "
                + ", ".join(_SECTION_OF[n] for n in missing)
            )
        return self


_SECTION_OF = {
    "mixture": "[mixture]",
    "change": "[change]",
    "obs": "[observation]",
    "costs": "[costs]",
    "seed": "[solver] seed",
}


def _get(sections, section, key, cast, default=None, required=False):
    if section not in sections or key not in sections[section]:
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = sections[section][key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [{section}] {key} = {raw!r}: {exc}") from None


def load_config(text, overrides=None):
    """Parse INI text into an ExperimentConfig.

    overrides maps dotted keys ('solver.grid_n', 'output.dir', ...) to string
    values and is applied before hashing, so command-line overrides produce
    the config they describe.
    """
    sections = _read_ini(text)
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        sections.setdefault(section, {})[key] = str(value)

    n_states = _get(sections, "frame", "n_states", int, required=True)
    if n_states != 2:
        raise ConfigError(f"[frame] n_states = {n_states} must be 2: the change model "
                          "and both filters are two-state")
    n_actions = _get(sections, "frame", "n_actions", int, required=True)
    stack = n_states * (n_states * n_actions) ** 4 * 16    # ActionMap's complex generators
    if n_actions > 0 and stack > MAX_GENERATOR_BYTES:
        raise ConfigError(f"[frame] n_actions = {n_actions} needs {stack} bytes of "
                          f"generators, over the limit of {MAX_GENERATOR_BYTES}")
    utility = _get(
        sections, "frame", "utility", lambda t: _parse_matrix(t, "utility"),
        required=True,
    )
    try:
        frame = DecisionFrame(
            n_states=n_states, n_actions=n_actions, utility=utility
        )
        params = PsychParams(
            alpha=_get(sections, "params", "alpha", float, required=True),
            lam=_get(sections, "params", "lambda", float, required=True),
            phi=_get(sections, "params", "phi", float, required=True),
        )
        _check_logits(frame, params.lam, "[params]")
        mixture = None
        if "mixture" in sections:
            atoms = []
            for key in sorted(sections["mixture"]):
                a, l, ph, w = _get(sections, "mixture", key, _parse_atom)
                atoms.append((PsychParams(alpha=a, lam=l, phi=ph), w))
                _check_logits(frame, l, f"[mixture] {key}")
            mixture = ParameterMixture(atoms=tuple(atoms))
        p = _get(sections, "change", "p", float)
        change = ChangeModel(p=p) if p is not None else None
        if change is not None and not np.isfinite(change.mean_change_time):
            # a subnormal p passes (0, 1] but its mean change time overflows
            raise ConfigError(f"[change] p = {p!r} must have a finite 1/p")
        B = _get(
            sections, "observation", "b", lambda t: _parse_matrix(t, "observation")
        )
        obs = ObservationModel(B=B) if B is not None else None
        f = _get(sections, "costs", "f", float)
        d = _get(sections, "costs", "d", float)
        if (f is None) != (d is None):
            raise ConfigError("[costs] needs both f and d")
        costs = DetectionCosts(f=f, d=d) if f is not None else None
        grid = BeliefGrid(n_cells=_get(sections, "solver", "grid_n", int, 1000))
    except ConfigError:
        raise
    except Exception as exc:
        # model-level validation failures surface as config errors
        raise ConfigError(str(exc)) from None
    vi_tol = _get(sections, "solver", "vi_tol", float, VI_TOL)
    max_iter = _get(sections, "solver", "max_iter", int, MAX_ITER)
    seed = _get(sections, "solver", "seed", int)
    for key, value, ok, rule in (
        ("vi_tol", vi_tol, np.isfinite(vi_tol) and vi_tol > 0, "finite and > 0"),
        ("max_iter", max_iter, max_iter >= 1, ">= 1"),
        ("seed", seed, seed is None or seed >= 0, ">= 0"),
    ):
        if not ok:
            raise ConfigError(f"[solver] {key} = {value!r} must be {rule}")

    return ExperimentConfig(
        frame=frame,
        params=params,
        mixture=mixture,
        change=change,
        obs=obs,
        costs=costs,
        grid=grid,
        vi_tol=vi_tol,
        max_iter=max_iter,
        seed=seed,
        out_dir=_get(sections, "output", "dir", str, "out"),
        hash=config_hash(sections),
    )


def load_config_file(path, overrides=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return load_config(text, overrides)
