"""Reproducible experiment driver.

Subcommands: stp-sweep | solve | threshold-sweep | simulate | sensitivity |
region-scan. Every run is determined by one INI config (plus explicit
overrides). A cmd_* only computes: it returns its artifacts (file name ->
serialize writer, in write order), its first stdout line and any further
lines. main then writes them to <out>/<config-hash>/, every file header
carrying the hash, and prints each line as "<command>: <line>". A run exits 0;
a failed one prints "error [<tag>]: <message>" on stderr and exits with its
error type's code: the exit codes and tags live on the types in errors.py
(2 config, 3 numerical, 4 cache-miss).
"""

import argparse
import os
import sys
from functools import cache, partial

import numpy as np

from . import serialize
from .config import load_config_file
from .errors import CacheMiss, ConfigError, QDetectError
from .protocol import (
    MAX_EPISODES,
    DetectionCosts,
    build_action_kernel,
    episode_generators,
    simulate_episodes,
)
from .quantum import ActionMap, PsychParams
from .stopping import classical_value_iteration, value_iteration


def _cache_dir(config):
    return os.path.join(config.out_dir, config.hash)


def sweep_stp(frame, params, n_phi):
    """Certain-belief and uniform-belief action rates across the coupling
    sweep, with a total-probability violation flag per row.

    Rows: (phi, p2_given_state2, p2_given_state1, p2_uniform, violation).
    For the standard two-state frame the second action is defection and the
    second state is the defecting opponent.
    """
    etas = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    rows = []
    for phi in np.linspace(0.0, 1.0, n_phi):
        p = PsychParams(alpha=params.alpha, lam=params.lam, phi=float(phi))
        gam = ActionMap(frame, p).batch(etas)
        p_def, p_coop, p_unknown = gam[0, -1], gam[1, -1], gam[2, -1]
        lo, hi = min(p_def, p_coop), max(p_def, p_coop)
        violation = bool(p_unknown < lo - 1e-12 or p_unknown > hi + 1e-12)
        rows.append((float(phi), float(p_def), float(p_coop),
                     float(p_unknown), violation))
    return rows


def violation_onset(rows):
    """Smallest phi in the sweep whose row is flagged, or None."""
    for phi, _, _, _, violation in rows:
        if violation:
            return phi
    return None


def cmd_stp_sweep(config, args):
    rows = sweep_stp(config.frame, config.params, args.phi_points)
    table = partial(serialize.write_csv, data=tuple(zip(*rows)), columns=(
        "phi", "p_defect_given_defect", "p_defect_given_coop", "p_defect_unknown", "violation"))
    onset = violation_onset(rows)
    return ({"stp_sweep.csv": table}, f"{len(rows)} rows",
            [f"violation onset {'none' if onset is None else f'{onset:.4g}'}"])


def _kernel(config):
    """The config's ActionMap and its action kernel; a missing change, obs or
    costs section is a ConfigError, raised before the ActionMap is built."""
    config.require("change", "obs", "costs")
    amap = ActionMap(config.frame, config.params)
    return amap, build_action_kernel(amap, config.change, config.obs, config.grid)


def cmd_solve(config, args):
    _, kernel = _kernel(config)
    table, policy = value_iteration(
        kernel, config.change, config.costs,
        tol=config.vi_tol, max_iter=config.max_iter,
    )
    artifacts = {"kernel.csv": partial(serialize.write_kernel, kernel=kernel),
                 "value.csv": partial(serialize.write_value, table=table),
                 "policy.csv": partial(serialize.write_policy, policy=policy)}
    thr = "none" if policy.threshold is None else f"{policy.threshold:.6g}"
    return (artifacts, f"threshold {thr} ({policy.crossings} crossings), "
            f"{table.sweeps} sweeps", [])


def _parse_f_values(text):
    values = []
    try:
        for seg in text.split(","):
            if ":" in seg:
                lo, hi = (int(v) for v in seg.split(":"))
                if lo > hi:
                    raise ValueError(f"range {seg!r} needs lo <= hi")
                values.extend(range(lo, hi + 1))
            else:
                values.append(float(seg))
    except ValueError as exc:
        raise ConfigError(f"bad f values {text!r}: {exc}") from None
    return [float(v) for v in values]


def cmd_threshold_sweep(config, args):
    f_values = _parse_f_values(args.f_values)
    _, kernel = _kernel(config)
    rows = []
    for f in f_values:
        costs = DetectionCosts(f=float(f), d=config.costs.d)
        _, pol_q = value_iteration(
            kernel, config.change, costs,
            tol=config.vi_tol, max_iter=config.max_iter,
        )
        _, pol_c = classical_value_iteration(
            config.change, config.obs, costs, config.grid,
            tol=config.vi_tol, max_iter=config.max_iter,
        )
        thr_q = np.nan if pol_q.threshold is None else pol_q.threshold
        thr_c = np.nan if pol_c.threshold is None else pol_c.threshold
        rows.append((float(f), float(thr_q), float(thr_c)))
    table = partial(serialize.write_csv, columns=("f", "thr_quantum", "thr_classical"),
                    data=tuple(zip(*rows)))
    return {"thresholds.csv": table}, f"{len(rows)} rows", []


def cmd_simulate(config, args):
    n_episodes = args.episodes
    if n_episodes > MAX_EPISODES:
        raise ConfigError(f"--episodes must be at most {MAX_EPISODES} (2**32), got {n_episodes}")
    config.require("change", "obs", "costs", "seed")
    try:
        policy = serialize.read_policy(os.path.join(_cache_dir(config), "policy.csv"),
                                       config.hash)
        if policy.grid != config.grid:
            raise CacheMiss(f"policy.csv is on a {policy.grid.n_cells}-cell grid, "
                            f"the config's grid has {config.grid.n_cells} cells")
    except CacheMiss as exc:
        raise CacheMiss(f"{exc}; run the solve command first") from None
    amap, kernel = _kernel(config)                  # the same map for the kernel and the agent
    batch = simulate_episodes(amap, config.change, config.obs, policy, kernel,
                              episode_generators(config.seed, n_episodes), costs=config.costs)
    table = partial(serialize.write_csv,
                    columns=("episode", "tau0", "tau", "delay", "false_alarm", "cost"),
                    data=(np.arange(n_episodes), batch.change_time, batch.stop_time, batch.delay,
                          batch.false_alarm, batch.cost))
    mean, stderr = batch.cost_stats()
    p_fa = float(batch.false_alarm.mean())
    detected = batch.delay[~batch.false_alarm]
    mean_delay = float(detected.mean()) if detected.size else float("nan")
    return ({"episodes.csv": table}, f"{n_episodes} episodes",
            [f"mean cost {mean:.6g} +- {stderr:.3g}, "
             f"P(false alarm) {p_fa:.4g}, mean delay | detection {mean_delay:.4g}"])


def cmd_sensitivity(config, args):
    from .dominance import sensitivity_bound_check    # loaded only where it runs: ~3 ms

    config.require("change", "obs", "costs", "mixture")
    report = sensitivity_bound_check(
        config.frame, config.params, config.mixture, config.change,
        config.obs, config.costs, config.grid,
        tol=config.vi_tol, max_iter=config.max_iter,
    )
    table = partial(serialize.write_csv, columns=("pi1", "lhs", "rhs", "slack"),
                    data=(report.points, report.lhs, report.rhs, report.rhs - report.lhs),
                    meta={"K": report.K, "distance": report.distance})
    return ({"sensitivity.csv": table}, f"K {report.K:.6g}, distance {report.distance:.6g}, "
            f"worst slack {report.worst_slack:.6g}", [])


def _parse_box(text):
    try:
        parts = [seg.split(":") for seg in text.split(",")]
        if len(parts) != 3 or any(len(p) != 2 for p in parts):
            raise ValueError("expected lo:hi,lo:hi,lo:hi for alpha,lambda,phi")
        box = tuple((float(lo), float(hi)) for lo, hi in parts)
        for axis, (lo, hi) in zip(("alpha", "lambda", "phi"), box):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{axis} needs finite ends, got {lo!r}:{hi!r}")
            if not lo <= hi:
                raise ValueError(f"{axis} needs lo <= hi, got {lo!r}:{hi!r}")
        return box
    except ValueError as exc:
        raise ConfigError(f"bad box {text!r}: {exc}") from None


def cmd_region_scan(config, args):
    from .dominance import box_grid, region_scan

    ref_box, test_box = _parse_box(args.ref_box), _parse_box(args.test_box)
    config.require("change", "obs", "costs")
    ref_points = box_grid(*ref_box, args.points_per_axis)
    test_points = box_grid(*test_box, args.points_per_axis)
    tags, rows = region_scan(
        config.frame, ref_points, test_points, config.change, config.obs,
        config.costs, config.grid, pi_samples=args.pi_samples,
        tol=config.vi_tol, max_iter=config.max_iter,
    )
    csv_rows = [
        (r.ref.alpha, r.ref.lam, r.ref.phi,
         r.test.alpha, r.test.lam, r.test.phi,
         r.direction, r.certified, r.residual, r.worst_V_margin)
        for r in rows
    ]
    table = partial(serialize.write_csv, data=tuple(zip(*csv_rows)), columns=(
        "alpha_ref", "lambda_ref", "phi_ref", "alpha_test", "lambda_test", "phi_test",
        "direction", "certified", "residual", "worst_V_margin"))
    # the sampled points, not the box ends: one point per axis is the lo corner
    separated = (tags == ("dominating", "dominated")
                 and min(p.alpha for p in ref_points) > max(p.alpha for p in test_points))
    return ({"region_scan.csv": table}, f"{len(rows)} pair records",
            [f"ref box {tags[0]}, test box {tags[1]}; "
             f"alpha-separated dominating/dominated pair certified: "
             f"{'yes' if separated else 'no'}"])


# (global flag, help, the dotted config key it overrides). An override is
# passed on as typed, so it is hashed as the same text in the INI would be;
# load_config casts and checks it as it does that key.
_OVERRIDES = (
    ("out", "output directory (overrides config)", "output.dir"),
    ("seed", "seed override", "solver.seed"),
    ("grid", "belief grid cells override", "solver.grid_n"),
    ("tol", "value iteration tolerance override", "solver.vi_tol"),
)


@cache
def build_parser():
    """The CLI's argument parser, built once per process: every main call
    shares it, so it must not be changed."""
    parser = argparse.ArgumentParser(
        prog="qdetect",
        description="Quantum-decision change detection experiments",
    )
    parser.add_argument("--config", required=True, help="INI config path")
    for flag, text, _ in _OVERRIDES:
        parser.add_argument(f"--{flag}", help=text)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stp-sweep", help="coupling sweep with violation flags")
    p.add_argument("--phi-points", type=int, default=101)
    p.set_defaults(run=cmd_stp_sweep)

    p = sub.add_parser("solve", help="build kernel, solve stopping problem, cache")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("threshold-sweep", help="quantum vs classical thresholds")
    p.add_argument("--f-values", default="1:10", help="comma list and lo:hi ranges")
    p.set_defaults(run=cmd_threshold_sweep)

    p = sub.add_parser("simulate", help="episodes under the cached policy")
    p.add_argument("--episodes", type=int, default=1000)
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("sensitivity", help="mismatch robustness bound report")
    p.set_defaults(run=cmd_sensitivity)

    p = sub.add_parser("region-scan", help="pairwise dominance over two boxes")
    p.add_argument("--ref-box", default="0.8:1.0,10:100,0.1:0.5",
                   help="alpha lo:hi, lambda lo:hi, phi lo:hi")
    p.add_argument("--test-box", default="0.1:0.5,10:100,0.1:0.5")
    p.add_argument("--points-per-axis", type=int, default=3)
    p.add_argument("--pi-samples", type=int, default=11)
    p.set_defaults(run=cmd_region_scan)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, flag) for flag, _, key in _OVERRIDES
                 if getattr(args, flag) is not None}
    try:
        for name in ("phi_points", "episodes", "points_per_axis", "pi_samples"):
            if getattr(args, name, 1) < 1:
                raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, "
                                  f"got {getattr(args, name)}")
        config = load_config_file(args.config, overrides)
        artifacts, summary, lines = args.run(config, args)
        cache = _cache_dir(config)
        for name, write in artifacts.items():
            write(os.path.join(cache, name), config_hash=config.hash)
    except QDetectError as exc:
        print(f"error [{exc.tag}]: {exc}", file=sys.stderr)
        return exc.exit_code
    target = os.path.join(cache, *artifacts) if len(artifacts) == 1 else cache
    for line in (f"{summary} -> {target}", *lines):
        print(f"{args.command}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
