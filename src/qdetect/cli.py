"""Reproducible experiment driver.

Subcommands: stp-sweep | solve | threshold-sweep | simulate | sensitivity |
region-scan. Every run is determined by one INI config (plus explicit
overrides); artifacts land in <out>/<config-hash>/ with the hash embedded in
every file header. Exit codes: 0 ok, 2 config error, 3 numerical failure,
4 cache miss.
"""

import argparse
import os
import sys

import numpy as np

from . import serialize
from .config import load_config_file
from .dominance import box_grid, region_scan, sensitivity_bound_check
from .errors import (
    CacheMiss,
    ConfigError,
    NonConvergence,
    NumericalFailure,
    QDetectError,
    RunawayEpisode,
)
from .protocol import DetectionCosts, build_action_kernel, simulate_episodes
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
    path = os.path.join(_cache_dir(config), "stp_sweep.csv")
    serialize.write_csv(
        path,
        ("phi", "p_defect_given_defect", "p_defect_given_coop",
         "p_defect_unknown", "violation"),
        tuple(zip(*rows)),
        config.hash,
    )
    onset = violation_onset(rows)
    print(f"stp-sweep: {len(rows)} rows -> {path}")
    print(f"stp-sweep: violation onset "
          f"{'none' if onset is None else f'{onset:.4g}'}")


def cmd_solve(config, args):
    config.require("change", "obs", "costs")
    kernel = build_action_kernel(
        config.frame, config.params, config.change, config.obs, config.grid
    )
    table, policy = value_iteration(
        kernel, config.change, config.costs,
        tol=config.vi_tol, max_iter=config.max_iter,
    )
    cache = _cache_dir(config)
    serialize.write_kernel(os.path.join(cache, "kernel.csv"), kernel, config.hash)
    serialize.write_value(os.path.join(cache, "value.csv"), table, config.hash)
    serialize.write_policy(os.path.join(cache, "policy.csv"), policy, config.hash)
    thr = "none" if policy.threshold is None else f"{policy.threshold:.6g}"
    print(f"solve: threshold {thr} ({policy.crossings} crossings), "
          f"{table.sweeps} sweeps -> {cache}")


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
    config.require("change", "obs", "costs")
    kernel = build_action_kernel(
        config.frame, config.params, config.change, config.obs, config.grid
    )
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
    path = os.path.join(_cache_dir(config), "thresholds.csv")
    serialize.write_csv(
        path, ("f", "thr_quantum", "thr_classical"), tuple(zip(*rows)), config.hash
    )
    print(f"threshold-sweep: {len(rows)} rows -> {path}")


def cmd_simulate(config, args):
    n_episodes = args.episodes
    config.require("change", "obs", "costs", "seed")
    cache = _cache_dir(config)
    try:
        kernel = serialize.read_kernel(os.path.join(cache, "kernel.csv"), config.hash)
        policy = serialize.read_policy(os.path.join(cache, "policy.csv"), config.hash)
        if policy.grid != kernel.grid:
            raise CacheMiss(f"policy.csv is on a {policy.grid.n_cells}-cell grid, "
                            f"kernel.csv on a {kernel.grid.n_cells}-cell grid")
    except CacheMiss as exc:
        raise CacheMiss(f"{exc}; run the solve command first") from None
    batch = simulate_episodes(config.frame, config.params, config.change, config.obs, policy,
                              kernel, np.random.SeedSequence(config.seed).spawn(n_episodes),
                              costs=config.costs)
    tau0, tau, costs = (v.tolist() for v in (batch.change_time, batch.stop_time, batch.cost))
    delays = [t - t0 for t0, t in zip(tau0, tau) if t >= t0]
    costs_sum = costs_sq = 0.0
    for c in costs:                      # in order: the printed statistics depend on it
        costs_sum += c
        costs_sq += c**2
    path = os.path.join(cache, "episodes.csv")
    serialize.write_csv(path, ("episode", "tau0", "tau", "delay", "false_alarm", "cost"),
                        (np.arange(n_episodes), batch.change_time, batch.stop_time,
                         np.maximum(batch.stop_time - batch.change_time, 0),
                         batch.stop_time < batch.change_time, batch.cost),
                        config.hash)
    mean = costs_sum / n_episodes
    var = max(costs_sq / n_episodes - mean**2, 0.0)
    stderr = (var * n_episodes / max(n_episodes - 1, 1)) ** 0.5 / n_episodes**0.5
    p_fa = (n_episodes - len(delays)) / n_episodes
    mean_delay = float(np.mean(delays)) if delays else float("nan")
    print(f"simulate: {n_episodes} episodes -> {path}")
    print(f"simulate: mean cost {mean:.6g} +- {stderr:.3g}, "
          f"P(false alarm) {p_fa:.4g}, mean delay | detection {mean_delay:.4g}")


def cmd_sensitivity(config, args):
    config.require("change", "obs", "costs", "mixture")
    report = sensitivity_bound_check(
        config.frame, config.params, config.mixture, config.change,
        config.obs, config.costs, config.grid,
        tol=config.vi_tol, max_iter=config.max_iter,
    )
    path = os.path.join(_cache_dir(config), "sensitivity.csv")
    serialize.write_csv(
        path, ("pi1", "lhs", "rhs", "slack"),
        (report.points, report.lhs, report.rhs, report.rhs - report.lhs), config.hash,
        meta={"K": report.K, "distance": report.distance},
    )
    print(f"sensitivity: K {report.K:.6g}, distance {report.distance:.6g}, "
          f"worst slack {report.worst_slack:.6g} -> {path}")


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
    path = os.path.join(_cache_dir(config), "region_scan.csv")
    serialize.write_csv(
        path,
        ("alpha_ref", "lambda_ref", "phi_ref",
         "alpha_test", "lambda_test", "phi_test",
         "direction", "certified", "residual", "worst_V_margin"),
        tuple(zip(*csv_rows)),
        config.hash,
    )
    # the sampled points, not the box ends: one point per axis is the lo corner
    separated = (tags == ("dominating", "dominated")
                 and min(p.alpha for p in ref_points) > max(p.alpha for p in test_points))
    print(f"region-scan: {len(rows)} pair records -> {path}")
    print(f"region-scan: ref box {tags[0]}, test box {tags[1]}; "
          f"alpha-separated dominating/dominated pair certified: "
          f"{'yes' if separated else 'no'}")


# (global flag, type, help, the dotted config key it overrides)
_OVERRIDES = (
    ("out", str, "output directory (overrides config)", "output.dir"),
    ("seed", int, "seed override", "solver.seed"),
    ("grid", int, "belief grid cells override", "solver.grid_n"),
    ("tol", float, "value iteration tolerance override", "solver.vi_tol"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdetect",
        description="Quantum-decision change detection experiments",
    )
    parser.add_argument("--config", required=True, help="INI config path")
    for flag, cast, text, _ in _OVERRIDES:
        parser.add_argument(f"--{flag}", type=cast, help=text)
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
    p.add_argument("--points-per-axis", type=int, default=5)
    p.add_argument("--pi-samples", type=int, default=11)
    p.set_defaults(run=cmd_region_scan)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, flag) for flag, _, _, key in _OVERRIDES
                 if getattr(args, flag) is not None}
    try:
        for name in ("phi_points", "episodes", "points_per_axis", "pi_samples"):
            if getattr(args, name, 1) < 1:
                raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, "
                                  f"got {getattr(args, name)}")
        args.run(load_config_file(args.config, overrides), args)
    except (NumericalFailure, NonConvergence, RunawayEpisode) as exc:
        print(f"error [numerical]: {exc}", file=sys.stderr)
        return 3
    except CacheMiss as exc:
        print(f"error [cache-miss]: {exc}", file=sys.stderr)
        return 4
    except QDetectError as exc:                 # ConfigError and the model errors
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
