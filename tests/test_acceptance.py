"""Acceptance gate: nine numbered criteria with pinned targets.

Each criterion prints one line, "CRITERION k: PASS - detail" or
"CRITERION k: FAIL - detail", and the session summary replays all lines.
Targets and tolerances are frozen in the assertions. Two criteria are known
to fail for the model as faithfully implemented (1: the unknown-opponent
defection rate never leaves the hull of the certain-opponent rates, so the
quoted violation onset cannot be reproduced; 8: the betweenness suite finds
rare genuine hull violations around 1e-4). They are left failing on purpose;
see the repository notes rather than this file for the full analysis.
"""

import time

import numpy as np

from qdetect import (
    ActionMap,
    BeliefGrid,
    ChangeModel,
    DecisionFrame,
    DetectionCosts,
    ObservationModel,
    ParameterMixture,
    PsychParams,
    build_action_kernel,
    build_mismatched_kernel,
    box_grid,
    classical_value_iteration,
    estimate_cost,
    evolve,
    interpolation_betweenness_check,
    region_scan,
    sensitivity_bound_check,
    value_iteration,
)
from qdetect.cli import sweep_stp, violation_onset
from qdetect.quantum import assemble_lindbladian

CRITERION_LINES = []


def report(k, ok, detail):
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return ok


def random_density(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_criterion_1_certain_rates_and_violation_onset(pd_frame, pd_params):
    t0 = time.monotonic()
    rows = sweep_stp(pd_frame, pd_params, n_phi=101)
    runtime = time.monotonic() - t0

    anchor_phis = [
        r[0] for r in rows
        if abs(r[1] - 0.91) <= 0.02 and abs(r[2] - 0.84) <= 0.02
    ]
    onset = violation_onset(rows)
    fixed_onset = next((r[0] for r in rows if r[3] < min(0.84, 0.91)), None)

    anchors_ok = bool(anchor_phis)
    onset_ok = onset is not None and abs(onset - 0.49) <= 0.05
    ok = anchors_ok and onset_ok and runtime < 60.0
    detail = (
        f"certain-opponent defection rates hit 0.91/0.84 +-0.02 for phi in "
        f"[{anchor_phis[0]:.2f}, {anchor_phis[-1]:.2f}]; "
        f"hull-violation onset {'none' if onset is None else f'{onset:.2f}'} "
        f"(target 0.49 +-0.05; the unknown-opponent rate stays the exact "
        f"mean of the certain rates, and the fixed-anchor reading gives "
        f"{fixed_onset}); sweep took {runtime:.1f}s"
    )
    assert report(1, ok, detail)


def test_criterion_2_threshold_location_and_grid_stability(
    pd_frame, pd_params, pd_change, pd_obs, pd_costs, pd_kernel_full
):
    _, pol_1000 = value_iteration(pd_kernel_full, pd_change, pd_costs)
    kernel_2000 = build_action_kernel(
        ActionMap(pd_frame, pd_params), pd_change, pd_obs, BeliefGrid(2000)
    )
    _, pol_2000 = value_iteration(kernel_2000, pd_change, pd_costs)

    thr = pol_1000.threshold
    shift = abs(pol_2000.threshold - thr)
    ok = (
        thr is not None
        and abs(thr - 0.834) <= 0.02
        and shift <= 0.005
    )
    assert report(
        2, ok,
        f"threshold {thr:.4f} on the 1000-cell grid (target 0.834 +-0.02); "
        f"2000-cell refinement shifts it by {shift:.4f} (cap 0.005)",
    )


def test_criterion_3_threshold_ordering_across_costs(
    pd_change, pd_obs, pd_kernel_full
):
    t0 = time.monotonic()
    thr_q = []
    thr_c = []
    ordered = True
    for f in range(1, 11):
        costs = DetectionCosts(f=float(f), d=1.0)
        _, pq = value_iteration(pd_kernel_full, pd_change, costs)
        _, pc = classical_value_iteration(
            pd_change, pd_obs, costs, pd_kernel_full.grid
        )
        thr_q.append(pq.threshold)
        thr_c.append(pc.threshold)
        ordered &= (
            pq.threshold is not None
            and pc.threshold is not None
            and pq.threshold >= pc.threshold - 1e-12
        )
    runtime = time.monotonic() - t0
    ok = ordered and runtime < 1800.0
    assert report(
        3, ok,
        f"quantum threshold >= classical threshold for every f in 1..10 "
        f"(quantum range {thr_q[0]:.3f}..{thr_q[-1]:.3f}), one shared kernel, "
        f"{runtime:.1f}s",
    )


def test_criterion_4_classical_lower_bound(
    pd_change, pd_obs, pd_costs, pd_kernel_full
):
    vq, _ = value_iteration(pd_kernel_full, pd_change, pd_costs)
    vc, _ = classical_value_iteration(
        pd_change, pd_obs, pd_costs, pd_kernel_full.grid
    )
    gap = float(np.max(vc.values - vq.values))
    ok = gap <= 1e-6
    assert report(
        4, ok,
        f"observation-level detector never costs more: "
        f"max(V_classical - V_quantum) = {gap:.2e} (cap 1e-6) "
        f"at all 1001 grid points",
    )


def test_criterion_5_value_structure_random_draws(
    pd_frame, pd_change, pd_obs, pd_costs
):
    rng = np.random.default_rng(20250501)
    bad = 0
    worst_d2 = -np.inf
    for _ in range(20):
        p = PsychParams(
            alpha=float(rng.uniform(0.1, 1.0)),
            lam=float(rng.uniform(0.0, 100.0)),
            phi=float(rng.uniform(0.0, 1.0)),
        )
        kernel = build_action_kernel(
            ActionMap(pd_frame, p), pd_change, pd_obs, BeliefGrid(1000)
        )
        table, policy = value_iteration(kernel, pd_change, pd_costs)
        V = table.values
        d2 = float((V[2:] - 2.0 * V[1:-1] + V[:-2]).max())
        worst_d2 = max(worst_d2, d2)
        if d2 > 1e-7 or policy.crossings != 1:
            bad += 1
    ok = bad == 0
    assert report(
        5, ok,
        f"20 random parameter draws: concave value (max second difference "
        f"{worst_d2:.1e}, cap +1e-7) and exactly one policy crossing; "
        f"{bad} draws failed",
    )


def test_criterion_6_mismatch_bound_with_monte_carlo(
    pd_frame, pd_change, pd_obs, pd_costs
):
    rng = np.random.default_rng(20250606)
    grid = BeliefGrid(400)
    worst_slack = np.inf
    worst_z = 0.0
    for _ in range(20):
        true = PsychParams(
            alpha=float(rng.uniform(0.2, 0.9)),
            lam=float(rng.uniform(5.0, 50.0)),
            phi=float(rng.uniform(0.1, 0.9)),
        )
        w = float(rng.uniform(0.3, 0.7))
        atoms = []
        for weight in (w, 1.0 - w):
            atoms.append((
                PsychParams(
                    alpha=float(np.clip(
                        true.alpha + rng.uniform(-0.15, 0.15), 0.05, 1.0)),
                    lam=float(np.clip(
                        true.lam + rng.uniform(-5.0, 5.0), 0.0, 100.0)),
                    phi=float(np.clip(
                        true.phi + rng.uniform(-0.1, 0.1), 0.0, 1.0)),
                ),
                weight,
            ))
        mixture = ParameterMixture(tuple(atoms))
        bound = sensitivity_bound_check(
            pd_frame, true, mixture, pd_change, pd_obs, pd_costs, grid
        )
        worst_slack = min(worst_slack, bound.worst_slack)

        amap = ActionMap(pd_frame, true)
        kernel = build_action_kernel(amap, pd_change, pd_obs, grid)
        khat = build_mismatched_kernel(
            pd_frame, mixture, pd_change, pd_obs, grid
        )
        _, pol_hat = value_iteration(khat, pd_change, pd_costs)
        mean, se = estimate_cost(
            amap, pd_change, pd_obs, pol_hat, kernel, pd_costs,
            n_episodes=600, seed=int(rng.integers(2**31)),
        )
        z = (mean - bound.lhs[0]) / se
        if abs(z) > abs(worst_z):
            worst_z = z
    ok = worst_slack >= 0.0 and abs(worst_z) <= 3.0
    assert report(
        6, ok,
        f"20 mismatch cases: mismatched-policy cost within the 2K-distance "
        f"bound at every grid point (worst slack {worst_slack:.4f}); "
        f"Monte Carlo cross-check worst |z| = {abs(worst_z):.2f} (cap 3)",
    )


def test_criterion_7_region_ordering(
    pd_frame, pd_change, pd_obs, pd_costs, small_grid
):
    ref = box_grid((0.8, 1.0), (10.0, 100.0), (0.1, 0.5), points_per_axis=2)
    test = box_grid((0.1, 0.5), (10.0, 100.0), (0.1, 0.5), points_per_axis=2)
    tags, rows = region_scan(
        pd_frame, ref, test, pd_change, pd_obs, pd_costs, small_grid
    )
    fwd = {(r.ref, r.test): r for r in rows if r.direction == "ref_to_test"}
    bwd = {(r.ref, r.test): r for r in rows if r.direction == "test_to_ref"}
    strict = [
        fwd[k] for k in fwd
        if fwd[k].certified
        and not bwd[k].certified
        and fwd[k].worst_V_margin >= -1e-6
    ]
    ok = len(strict) >= 1
    worst_margin = min((r.worst_V_margin for r in strict), default=np.nan)
    assert report(
        7, ok,
        f"{len(strict)} of {len(fwd)} high-alpha/low-alpha pairs certify "
        f"one-way dominance with value margins >= -1e-6 (worst witness "
        f"margin {worst_margin:.1e}; values coincide to machine precision "
        f"in this cost regime); full-box tags "
        f"{tags[0]}/{tags[1]}",
    )


def test_criterion_8_quantum_invariants(pd_frame, pd_params, pd_change, pd_obs):
    # evolution preserves trace, Hermiticity, positivity
    rng = np.random.default_rng(7)
    dev = 0.0
    for _ in range(10):
        p = PsychParams(
            alpha=float(rng.uniform(0.1, 1.0)),
            lam=float(rng.uniform(0.0, 100.0)),
            phi=float(rng.uniform(0.0, 1.0)),
        )
        e1 = float(rng.uniform(0.0, 1.0))
        L = assemble_lindbladian(pd_frame, p, np.array([e1, 1.0 - e1]))
        rho0 = random_density(rng, 4)
        for t in (0.1, 1.0, 10.0):
            rho = evolve(L, rho0, t)
            dev = max(dev, abs(np.trace(rho).real - 1.0))
            dev = max(dev, float(np.abs(rho - rho.conj().T).max()))
            dev = max(dev, max(0.0, -float(
                np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())))
    evolution_ok = dev <= 1e-9

    # the long-time state forgets its start
    start_dev = 0.0
    for p in (pd_params, PsychParams(1.0, 10.495, 0.9)):
        L = assemble_lindbladian(pd_frame, p, np.array([0.3, 0.7]))
        r1 = evolve(L, random_density(rng, 4), 200.0)
        r2 = evolve(L, random_density(rng, 4), 200.0)
        start_dev = max(start_dev, float(np.abs(r1 - r2).max()))
    steady_ok = start_dev <= 1e-6

    # betweenness suite: 100 random pairs in the interpolation box
    rng_b = np.random.default_rng(20250808)
    violating_pairs = 0
    worst_margin = np.inf
    for _ in range(100):
        draws = [
            PsychParams(
                alpha=float(rng_b.uniform(0.1, 0.5)),
                lam=float(rng_b.uniform(10.0, 100.0)),
                phi=float(rng_b.uniform(0.1, 0.5)),
            )
            for _ in range(2)
        ]
        rep = interpolation_betweenness_check(
            pd_frame, draws[0], draws[1], pd_change, pd_obs
        )
        violating_pairs += int(rep.violations > 0)
        worst_margin = min(worst_margin, rep.worst_margin)
    betweenness_ok = violating_pairs == 0

    ok = evolution_ok and steady_ok and betweenness_ok
    assert report(
        8, ok,
        f"evolution invariants hold to {dev:.1e} (cap 1e-9); steady state "
        f"start-independent to {start_dev:.1e} (cap 1e-6); betweenness suite "
        f"expected zero violating pairs but found {violating_pairs}/100 "
        f"(worst margin {worst_margin:.1e} at tolerance 1e-6, confirmed "
        f"against long-time evolution)",
    )


def test_criterion_9_acceptance_basis_acknowledged():
    scalar_targets = {
        "defect_rate_vs_defector": 0.91,
        "defect_rate_vs_cooperator": 0.84,
        "violation_onset": 0.49,
        "stop_threshold": 0.834,
    }
    property_criteria = (3, 4, 5, 6, 7, 8)
    ok = bool(scalar_targets) and len(property_criteria) == 6
    assert report(
        9, ok,
        "no curve-level reference data exists for the plotted results, so "
        f"acceptance combines the {len(scalar_targets)} quoted scalar "
        f"targets with property suites (criteria {property_criteria}); "
        "bit-exact curve reproduction is not claimed",
    )
