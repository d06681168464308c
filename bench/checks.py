"""Output checks for the benchmark workloads.

Every check reads the artifacts a command wrote with its own CSV reader and
returns a list of problems; an empty list is a pass. Three kinds of check:

* invariants, for any seed: kernel rows are stochastic, V <= f (1 - pi),
  certified rows have residual <= eps, and each episode's cost is d * delay
  or f;
* an independent oracle: a sample of kernel rows is re-derived through
  ``steady_state_distribution`` (a full-generator eigensolve, not the
  batched ``ActionMap`` path the kernel build uses);
* for the default seed, references pinned from the baseline commit
  (``refs.json``): discrete outputs must match exactly, kernel and value
  entries within ``FLOAT_TOL``.

CSV bytes are never compared: the program writes ``repr`` floats, so a
one-ulp change flips bytes without being a wrong answer.
"""

import math
import os
import re

import numpy as np

FLOAT_TOL = 1e-9
STOCHASTIC_TOL = 1e-9
CERTIFY_EPS = 1e-6
SAMPLE_STRIDE = 100          # kernel/value rows sampled every 100 grid cells


def read_table(path):
    """(meta, columns, rows of strings) of one artifact; raises OSError or
    ValueError when the file is missing or has no table."""
    meta = {}
    body = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif line:
                body.append(line.split(","))
    if not body:
        raise ValueError(f"{os.path.basename(path)} has no table")
    return meta, body[0], body[1:]


def _same_float(a, b):
    a, b = float(a), float(b)
    return a == b or (math.isnan(a) and math.isnan(b))


def _threshold_and_crossings(u):
    """Independent re-derivation of the policy threshold rule: the stop set
    must be one upper interval of the grid."""
    crossings = int(np.count_nonzero(u[1:] != u[:-1]))
    stops = np.flatnonzero(u == 1)
    if stops.size and (crossings == 0 or (crossings == 1 and u[-1] == 1)):
        return int(stops[0]), crossings
    return None, crossings


# --- solve-sweep ---------------------------------------------------------

_SOLVE_LINE = re.compile(
    r"solve: threshold (\S+) \((\d+) crossings\), (\d+) sweeps -> (.+)"
)


def oracle_kernel_rows(model, indices):
    """Kernel rows R[x, i, a] at the given grid indices, re-derived through
    the full-generator steady-state solver."""
    from qdetect.quantum import DecisionFrame, PsychParams, steady_state_distribution

    frame = DecisionFrame(n_states=2, n_actions=2, utility=np.array(model["utility"]))
    params = PsychParams(alpha=model["alpha"], lam=model["lambda"], phi=model["phi"])
    B = np.array(model["B"])
    p = model["p"]
    out = np.empty((2, len(indices), 2))
    for k, i in enumerate(indices):
        pi1 = i / model["grid_n"]
        pred1 = pi1 + p * (1.0 - pi1)
        pred2 = (1.0 - p) * (1.0 - pi1)
        gammas = []
        for y in range(B.shape[1]):
            eta1 = B[0, y] * pred1 / (B[0, y] * pred1 + B[1, y] * pred2)
            gammas.append(steady_state_distribution(
                frame, params, np.array([eta1, 1.0 - eta1])))
        out[:, k, :] = B @ np.array(gammas)
    return out


def summarize_solve(model, solve_stdout, sweep_path=None):
    """Facts of one solved model: threshold, crossings, sweeps, threshold
    sweep rows and sampled kernel/value entries. Raises ValueError or
    OSError on unreadable output."""
    match = _SOLVE_LINE.search(solve_stdout)
    if not match:
        raise ValueError(f"no solve summary line in stdout {solve_stdout!r}")
    cache = match.group(4).strip()
    n = model["grid_n"]
    _, _, krows = read_table(os.path.join(cache, "kernel.csv"))
    if len(krows) != 2 * (n + 1) * 2:
        raise ValueError(f"kernel.csv has {len(krows)} rows, expected {4 * (n + 1)}")
    R = np.full((2, n + 1, 2), np.nan)
    for pi1, x, a, r in krows:
        R[int(x) - 1, round(float(pi1) * n), int(a) - 1] = float(r)
    _, _, vrows = read_table(os.path.join(cache, "value.csv"))
    V = np.array([float(v) for _, v in vrows])
    pmeta, _, prows = read_table(os.path.join(cache, "policy.csv"))
    u = np.array([int(x) for _, x in prows])
    idx = list(range(0, n + 1, SAMPLE_STRIDE))
    facts = {
        "stdout_threshold": match.group(1),
        "threshold": pmeta.get("threshold"),
        "crossings": int(match.group(2)),
        "meta_crossings": int(pmeta.get("crossings", -1)),
        "sweeps": int(match.group(3)),
        "kernel_sample": R[:, idx, :].tolist(),
        "value_sample": V[idx].tolist(),
        "_R": R,
        "_V": V,
        "_u": u,
    }
    if sweep_path is not None:
        _, _, srows = read_table(sweep_path)
        facts["thresholds"] = srows
    return facts


def check_solve(model, facts, pinned=None):
    """Problems with one solved model (an empty list is a pass)."""
    problems = []
    n = model["grid_n"]
    R, V, u = facts["_R"], facts["_V"], facts["_u"]
    if not np.all(np.isfinite(R)) or np.any(R < 0):
        problems.append("kernel has missing, negative or non-finite entries")
    dev = float(np.nanmax(np.abs(R.sum(axis=2) - 1.0)))
    if not dev <= STOCHASTIC_TOL:
        problems.append(f"kernel rows not stochastic: max |sum - 1| = {dev:.3g}")
    idx = list(range(0, n + 1, SAMPLE_STRIDE))
    oracle = oracle_kernel_rows(model, idx)
    odev = float(np.max(np.abs(R[:, idx, :] - oracle)))
    if not odev <= FLOAT_TOL:
        problems.append(f"kernel differs from steady-state oracle by {odev:.3g}")
    pts = np.arange(n + 1) / n
    if V.shape != (n + 1,) or np.any(V > model["f"] * (1.0 - pts) + 1e-12):
        problems.append("value table breaks V <= f (1 - pi)")
    i_thr, crossings = _threshold_and_crossings(u)
    thr = "none" if i_thr is None else repr(float(np.linspace(0.0, 1.0, n + 1)[i_thr]))
    if facts["threshold"] != thr:
        problems.append(f"policy threshold {facts['threshold']} != {thr} from u")
    stdout_thr = "none" if thr == "none" else f"{float(thr):.6g}"
    if facts["stdout_threshold"] != stdout_thr:
        problems.append(f"printed threshold {facts['stdout_threshold']} != {stdout_thr}")
    if not facts["crossings"] == facts["meta_crossings"] == crossings:
        problems.append(f"crossings {facts['crossings']}/{facts['meta_crossings']} "
                        f"!= {crossings} from u")
    if facts["sweeps"] < 1:
        problems.append("no value-iteration sweeps reported")
    rows = facts.get("thresholds")
    if rows is not None:
        fs = [float(r[0]) for r in rows]
        if fs != [float(f) for f in model["f_values"]]:
            problems.append(f"threshold sweep f values {fs}")
        for row in rows:
            for value in map(float, row[1:]):
                if not (math.isnan(value) or 0.0 <= value <= 1.0):
                    problems.append(f"threshold {value} outside [0, 1]")
    if pinned is not None:
        problems += compare_solve(facts, pinned)
    return problems


def compare_solve(facts, pinned):
    problems = []
    for key in ("threshold", "crossings", "sweeps"):
        if facts[key] != pinned[key]:
            problems.append(f"{key} {facts[key]} != pinned {pinned[key]}")
    for key in ("kernel_sample", "value_sample"):
        got, want = np.array(facts[key]), np.array(pinned[key])
        if got.shape != want.shape or not np.all(np.abs(got - want) <= FLOAT_TOL):
            problems.append(f"{key} differs from pinned values")
    if "thresholds" in pinned:
        got, want = facts.get("thresholds") or [], pinned["thresholds"]
        if len(got) != len(want) or not all(
            _same_float(a, b) for g, w in zip(got, want) for a, b in zip(g, w)
        ):
            problems.append("threshold sweep differs from pinned rows")
    return problems


def pinnable(facts):
    return {k: v for k, v in facts.items()
            if not k.startswith("_") and k not in ("stdout_threshold", "meta_crossings")}


# --- simulate ------------------------------------------------------------

_SIM_LINE = re.compile(r"simulate: (\d+) episodes -> (.+)")


def check_episodes(stdout, n_episodes, costs, pinned=None):
    """(failed episode count, problems). Each episode row is one operation;
    a missing or unreadable file fails them all."""
    match = _SIM_LINE.search(stdout)
    try:
        if not match:
            raise ValueError(f"no simulate summary line in stdout {stdout!r}")
        _, columns, rows = read_table(match.group(2).strip())
    except (OSError, ValueError) as exc:
        return n_episodes, [f"episodes unreadable: {exc}"]
    if columns != ["episode", "tau0", "tau", "delay", "false_alarm", "cost"]:
        return n_episodes, [f"episodes columns {columns}"]
    f, d = costs
    failed = max(n_episodes - len(rows), 0)
    problems = [f"{failed} episode rows missing"] if failed else []
    for i, row in enumerate(rows[:n_episodes]):
        try:
            ep, tau0, tau, delay, fa = (int(v) for v in row[:5])
            cost = float(row[5])
        except ValueError:
            bad = f"malformed row {row}"
        else:
            want = f if tau < tau0 else d * max(tau - tau0, 0)
            bad = None
            if ep != i or tau0 < 1 or tau < 1:
                bad = "bad episode index or times"
            elif delay != max(tau - tau0, 0) or fa != int(tau < tau0):
                bad = "delay or false alarm inconsistent with tau0/tau"
            elif abs(cost - want) > 1e-9 * max(1.0, abs(want)):
                bad = f"cost {cost} is neither d*delay nor f ({want})"
            elif pinned is not None and [tau0, tau, fa] != pinned[i]:
                bad = f"(tau0, tau, false_alarm) {[tau0, tau, fa]} != pinned {pinned[i]}"
        if bad:
            failed += 1
            if len(problems) < 5:
                problems.append(f"episode {i}: {bad}")
    return failed, problems


def episode_facts(stdout):
    _, _, rows = read_table(_SIM_LINE.search(stdout).group(2).strip())
    return [[int(r[1]), int(r[2]), int(r[4])] for r in rows]


# --- region-scan ---------------------------------------------------------

_SCAN_LINE = re.compile(r"region-scan: (\d+) pair records -> (.+)")
_TAG_LINE = re.compile(r"ref box (\w+), test box (\w+);")
_DIRECTIONS = ("ref_to_test", "test_to_ref")


def _tag(dominates, dominated_by):
    return "dominating" if dominates else "dominated" if dominated_by else "unresolved"


def _inside(values, box):
    return all(lo - 1e-12 <= v <= hi + 1e-12 for v, (lo, hi) in zip(values, box))


def check_region(stdout, n_rows, ref_box, test_box, pinned=None):
    """(failed row count, problems, facts). Each pair-direction row is one
    operation; wrong box tags or an unreadable file fail them all."""
    match = _SCAN_LINE.search(stdout)
    tags = _TAG_LINE.search(stdout)
    try:
        if not (match and tags):
            raise ValueError(f"no region-scan summary lines in stdout {stdout!r}")
        _, columns, rows = read_table(match.group(2).strip())
    except (OSError, ValueError) as exc:
        return n_rows, [f"region scan unreadable: {exc}"], None
    failed = max(n_rows - len(rows), 0)
    problems = [f"{failed} scan rows missing"] if failed else []
    certified = []
    seen = {}
    for i, row in enumerate(rows[:n_rows]):
        bad = None
        try:
            ref = [float(v) for v in row[0:3]]
            test = [float(v) for v in row[3:6]]
            direction, flag = row[6], int(row[7])
            residual, margin = float(row[8]), float(row[9])
        except (ValueError, IndexError):
            bad = f"malformed row {row}"
        else:
            certified.append(flag)
            seen.setdefault((tuple(ref), tuple(test)), []).append(direction)
            if direction not in _DIRECTIONS:
                bad = f"direction {direction!r}"
            elif not (_inside(ref, ref_box) and _inside(test, test_box)):
                bad = "parameters outside their boxes"
            elif not (residual >= 0.0 and math.isfinite(margin)):
                bad = "negative residual or non-finite value margin"
            elif flag not in (0, 1) or bool(flag) != (residual <= CERTIFY_EPS):
                bad = f"certified={flag} but residual {residual:.3g} (eps {CERTIFY_EPS})"
            elif pinned is not None and str(flag) != pinned["certified"][i]:
                bad = f"certified={flag} != pinned"
        if bad:
            failed += 1
            if len(problems) < 5:
                problems.append(f"row {i}: {bad}")
    if any(sorted(v) != sorted(_DIRECTIONS) for v in seen.values()):
        problems.append("a (ref, test) pair lacks one of the two directions")
        failed = n_rows
    fwd = [c for c, r in zip(certified, rows) if r[6] == "ref_to_test"]
    bwd = [c for c, r in zip(certified, rows) if r[6] == "test_to_ref"]
    want_tags = [_tag(all(fwd), all(bwd)), _tag(all(bwd), all(fwd))]
    got_tags = [tags.group(1), tags.group(2)]
    if got_tags != want_tags:
        problems.append(f"box tags {got_tags} disagree with rows ({want_tags})")
        failed = n_rows
    if pinned is not None and got_tags != pinned["tags"]:
        problems.append(f"box tags {got_tags} != pinned {pinned['tags']}")
        failed = n_rows
    facts = {"tags": got_tags, "certified": "".join(map(str, certified))}
    return failed, problems, facts
