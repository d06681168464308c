"""One benchmark workload in one process.

Run by ``run.py`` with the thread variables already set in this process's
environment. It generates the workload's INI configs from the seed, calls
``qdetect.cli.main`` in-process with stdout captured and artifacts under the
run's work directory, times each body with tracing off (rescaled to a
reference speed, see ``SpeedProbe``), checks every output, and writes its
result as JSON to ``<work>/result.json``.

With ``--trace 1`` it first times untraced bodies for half the run, then
installs the layer tracer and times traced bodies for the other half; the
per-layer metrics come from the traced bodies and the ratio of the two
medians is the tracing overhead.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

from checks import check_episodes, check_region, check_solve, summarize_solve

DEFAULT_SEED = 0
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)

# The README model: its frame, observation table and psychological
# parameters, with d = 1.
UTILITY = [[20.0, 5.0], [25.0, 10.0]]
OBS_B = [[0.6, 0.25, 0.15], [0.15, 0.25, 0.6]]
README_PARAMS = {"alpha": 0.812, "lambda": 10.495, "phi": 0.9}

SOLVE_MODELS = 4                 # models per solve-sweep body
SOLVE_GRID = 1000
F_VALUES = "1:10"
SIM_MODEL = {"p": 0.02, "f": 50.0, **README_PARAMS}
SIM_GRID = 1000
SIM_EPISODES = 200
SCAN_GRID = 100
SCAN_POINTS = 2
SCAN_PI_SAMPLES = 11
REF_BOX = ((0.8, 1.0), (10.0, 100.0), (0.1, 0.5))
TEST_BOX = ((0.1, 0.5), (10.0, 100.0), (0.1, 0.5))
BOX_JITTER = 0.1                 # each bound moves inward by up to 10% of the width


def _fmt(x):
    return f"{x:.6g}"


def _matrix(rows):
    return " ; ".join(" ".join(_fmt(v) for v in row) for row in rows)


def ini_text(model, grid_n, seed):
    return (
        "[frame]\nn_states = 2\nn_actions = 2\n"
        f"utility = {_matrix(UTILITY)}\n\n"
        f"[params]\nalpha = {_fmt(model['alpha'])}\n"
        f"lambda = {_fmt(model['lambda'])}\nphi = {_fmt(model['phi'])}\n\n"
        f"[change]\np = {_fmt(model['p'])}\n\n"
        f"[observation]\nb = {_matrix(OBS_B)}\n\n"
        f"[costs]\nf = {_fmt(model['f'])}\nd = 1\n\n"
        f"[solver]\ngrid_n = {grid_n}\nseed = {seed}\n"
    )


def _rounded(model):
    """Model values as the INI states them, so checks use the same numbers."""
    return {k: float(_fmt(v)) for k, v in model.items()}


def draw_models(seed, count=SOLVE_MODELS):
    """p log-uniform in [0.02, 0.95], f in [2, 50], alpha in [0.3, 1],
    lambda in [1, 20], phi in [0.1, 0.9]."""
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        models.append(_rounded({
            "p": math.exp(rng.uniform(math.log(0.02), math.log(0.95))),
            "f": rng.uniform(2.0, 50.0),
            "alpha": rng.uniform(0.3, 1.0),
            "lambda": rng.uniform(1.0, 20.0),
            "phi": rng.uniform(0.1, 0.9),
        }))
    return models


def draw_boxes(seed):
    """The CLI's default boxes for the default seed; otherwise each bound
    moves inward by a seeded share of the box width."""
    if seed == DEFAULT_SEED:
        return REF_BOX, TEST_BOX
    rng = random.Random(seed)

    def jitter(box):
        return tuple(
            (float(_fmt(lo + rng.random() * BOX_JITTER * (hi - lo))),
             float(_fmt(hi - rng.random() * BOX_JITTER * (hi - lo))))
            for lo, hi in box
        )

    return jitter(REF_BOX), jitter(TEST_BOX)


def _box_arg(box):
    return ",".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in box)


def _f_values():
    lo, hi = F_VALUES.split(":")
    return [float(f) for f in range(int(lo), int(hi) + 1)]


class Invocation:
    """One in-process CLI call: argv, exit code, captured output, seconds."""

    def __init__(self, cli, base, command, *extra):
        self.command = command
        self.argv = [*base, command, *extra]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.rc = cli.main(self.argv)
        except SystemExit as exc:           # argparse rejects its input
            self.rc = exc.code
        except Exception:                   # counted as a failed operation
            self.rc = None
            err.write(traceback.format_exc())
        self.seconds = time.perf_counter() - start
        self.stdout = out.getvalue()
        self.stderr = err.getvalue()

    def problem(self):
        if self.rc == 0:
            return None
        return f"{' '.join(self.argv)} exited {self.rc}: {self.stderr.strip()[-300:]}"


def _write_config(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def load_refs(seed, workload):
    """Pinned references of the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH_DIR, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


class SolveSweep:
    """Body: for each seeded model, `solve` then `threshold-sweep`."""

    name = "solve-sweep"

    def __init__(self, cli, work, seed, refs=None):
        self.cli = cli
        self.out = os.path.join(work, "out")
        self.models = draw_models(seed)
        self.refs = refs
        self.configs = [
            _write_config(os.path.join(work, f"model{k}.ini"),
                          ini_text(model, SOLVE_GRID, seed))
            for k, model in enumerate(self.models)
        ]
        for model in self.models:
            model.update(utility=UTILITY, B=OBS_B, grid_n=SOLVE_GRID,
                         f_values=_f_values())
        self.ops_per_body = len(self.models)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def body(self):
        calls = []
        for path in self.configs:
            base = ["--config", path, "--out", self.out]
            calls.append((Invocation(self.cli, base, "solve"),
                          Invocation(self.cli, base, "threshold-sweep",
                                     "--f-values", F_VALUES)))
        return calls

    def facts(self, k, solve, sweep):
        return summarize_solve(self.models[k], solve.stdout,
                               sweep_path=_sweep_path(sweep.stdout))

    def check(self, calls):
        failed, problems = 0, []
        for k, (solve, sweep) in enumerate(calls):
            found = [p for p in (solve.problem(), sweep.problem()) if p]
            if not found:
                try:
                    found = check_solve(
                        self.models[k], self.facts(k, solve, sweep),
                        self.refs[k] if self.refs else None)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    found = [f"unreadable output: {exc!r}"]
            if found:
                failed += 1
                problems += [f"model {k}: {p}" for p in found]
        return failed, problems

    def invocations(self, calls):
        return [inv for pair in calls for inv in pair]


def _sweep_path(stdout):
    marker = " rows -> "
    for line in stdout.splitlines():
        if line.startswith("threshold-sweep:") and marker in line:
            return line.split(marker, 1)[1].strip()
    raise ValueError(f"no threshold-sweep summary line in stdout {stdout!r}")


class Simulate:
    """Set-up: `solve` the long-episode model. Body: `simulate`."""

    name = "simulate"

    def __init__(self, cli, work, seed, refs=None):
        self.cli = cli
        self.refs = refs
        self.model = dict(SIM_MODEL, utility=UTILITY, B=OBS_B, grid_n=SIM_GRID)
        self.config = _write_config(os.path.join(work, "simulate.ini"),
                                    ini_text(SIM_MODEL, SIM_GRID, seed))
        self.base = ["--config", self.config, "--out", os.path.join(work, "out")]
        solve = Invocation(cli, self.base, "solve")
        self.setup_problems = [solve.problem()] if solve.problem() else []
        self.episodes_path = None
        if not self.setup_problems:
            try:
                self.solve_facts = summarize_solve(self.model, solve.stdout)
                self.setup_problems = check_solve(
                    self.model, self.solve_facts,
                    self.refs["solve"] if self.refs else None)
            except (OSError, ValueError) as exc:
                self.setup_problems = [f"unreadable solve output: {exc!r}"]
            cache = solve.stdout.rsplit(" -> ", 1)[-1].strip()
            self.episodes_path = os.path.join(cache, "episodes.csv")
        self.ops_per_body = SIM_EPISODES

    def prepare(self):
        if self.episodes_path and os.path.exists(self.episodes_path):
            os.unlink(self.episodes_path)

    def body(self):
        return [Invocation(self.cli, self.base, "simulate",
                           "--episodes", str(SIM_EPISODES))]

    def check(self, calls):
        (sim,) = calls
        if self.setup_problems:
            return SIM_EPISODES, [f"set-up solve: {p}" for p in self.setup_problems]
        if sim.problem():
            return SIM_EPISODES, [sim.problem()]
        return check_episodes(
            sim.stdout, SIM_EPISODES, (SIM_MODEL["f"], 1.0),
            self.refs["episodes"] if self.refs else None)

    def invocations(self, calls):
        return calls


class RegionScan:
    """Body: `region-scan` over two (seed-jittered) parameter boxes."""

    name = "region-scan"

    def __init__(self, cli, work, seed, refs=None):
        self.cli = cli
        self.refs = refs
        self.out = os.path.join(work, "out")
        self.ref_box, self.test_box = draw_boxes(seed)
        model = {"p": 0.95, "f": 5.0, **README_PARAMS}
        self.config = _write_config(os.path.join(work, "scan.ini"),
                                    ini_text(model, SCAN_GRID, seed))
        self.ops_per_body = 2 * SCAN_POINTS ** 6

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def body(self):
        return [Invocation(
            self.cli, ["--config", self.config, "--out", self.out], "region-scan",
            "--ref-box", _box_arg(self.ref_box),
            "--test-box", _box_arg(self.test_box),
            "--points-per-axis", str(SCAN_POINTS),
            "--pi-samples", str(SCAN_PI_SAMPLES),
        )]

    def check(self, calls):
        (scan,) = calls
        if scan.problem():
            return self.ops_per_body, [scan.problem()]
        failed, problems, _ = check_region(
            scan.stdout, self.ops_per_body, self.ref_box, self.test_box, self.refs)
        return failed, problems

    def invocations(self, calls):
        return calls


WORKLOADS = {w.name: w for w in (SolveSweep, Simulate, RegionScan)}


def import_program(root):
    """Import qdetect from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import qdetect
    import qdetect.cli

    where = os.path.realpath(os.path.dirname(qdetect.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"qdetect imported from outside {src}")
    return qdetect.cli


def versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):           # older numpy: no dict mode
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _median(values):
    return statistics.median(values) if values else 0.0


# The host is shared: its speed for this process drifts by tens of percent
# within a minute. Times are therefore rescaled to a reference speed, at
# which fixed work that never touches the program takes REFERENCE_S. The
# work mimics the program's mix - interpreter-bound calls into small numpy
# operations and a 16x16 eigensolve - because a tight arithmetic loop
# tracked the program's speed poorly from one process to the next. It is
# timed before and after every body, outside the timed region.
REFERENCE_S = 0.015


class SpeedProbe:
    """Times the fixed reference work."""

    def __init__(self):
        import numpy

        self._np = numpy
        self._rng = numpy.random.default_rng(0)
        self._xs = numpy.linspace(0.0, 1.0, 200)
        self._ys = numpy.cos(self._xs)
        self._matrix = self._rng.standard_normal((1, 16, 16))

    def _once(self):
        np = self._np
        start = time.perf_counter()
        for _ in range(200):
            np.interp(0.37, self._xs, self._ys)
            (np.array([0.3, 0.7]) * self._rng.random()).sum()
            np.linalg.eig(self._matrix)
        return time.perf_counter() - start

    def seconds(self):
        """Median of three timings of the reference work."""
        return statistics.median(self._once() for _ in range(3))


def _rescaled(times, probes):
    """Body times at the reference speed; probes[k] and probes[k + 1] were
    taken just before and just after body k."""
    return [t * 2 * REFERENCE_S / (probes[k] + probes[k + 1])
            for k, t in enumerate(times)]


def _run_bodies(workload, seconds, tally, probe, before=None, after=None):
    """Run prepare, the timed body and its check until `seconds` have passed,
    at least once. Returns (body times, reference timings around them)."""
    times, probes = [], [probe.seconds()]
    start = time.monotonic()
    while not times or time.monotonic() - start < seconds:
        workload.prepare()
        if before:
            before()
        t0 = time.perf_counter()
        calls = workload.body()
        times.append(time.perf_counter() - t0)
        if after:
            after(calls)
        probes.append(probe.seconds())
        failed, problems = workload.check(calls)
        tally["attempted"] += workload.ops_per_body
        tally["failed"] += failed
        tally["problems"] += problems[: max(0, 10 - len(tally["problems"]))]
    return times, probes


CLI_COMMANDS = ("solve", "threshold-sweep", "simulate", "region-scan")


def _traced_run(workload, seconds, tally, probe):
    """Untraced bodies for half the time, traced bodies for the other half;
    per-layer metrics are medians over the traced bodies."""
    from tracer import Tracer

    untraced = _rescaled(*_run_bodies(workload, seconds / 2, tally, probe))
    tracer = Tracer().install()
    layers = []

    def record(calls):
        metrics = tracer.layer_metrics()
        for cmd in CLI_COMMANDS:
            metrics[f"cli.{cmd}.s"] = sum(
                inv.seconds for inv in workload.invocations(calls) if inv.command == cmd)
        layers.append(metrics)

    try:
        traced = _rescaled(*_run_bodies(workload, seconds / 2, tally, probe,
                                        before=tracer.reset, after=record))
    finally:
        tracer.uninstall()
    per_layer = {k: (statistics.median_low if isinstance(v, int) else _median)(
                     [m[k] for m in layers]) for k, v in layers[0].items()}
    per_layer["trace.overhead_frac"] = _median(traced) / _median(untraced) - 1.0
    per_layer["trace.absent_names"] = len(tracer.absent)
    counts = [k for k, v in layers[0].items() if isinstance(v, int)]
    return {
        "per_layer": per_layer,
        "absent_names": tracer.absent,
        "counts_repeat": all(m[k] == layers[0][k] for m in layers for k in counts),
        "traced_bodies": len(traced),
        "untraced_bodies": len(untraced),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_program(args.root)
    workload = WORKLOADS[args.workload](
        cli, args.work, args.seed, load_refs(args.seed, args.workload))
    setup_raw = time.monotonic() - args.spawned
    probe = SpeedProbe()
    reference = probe.seconds()
    result = {"setup_s": setup_raw * REFERENCE_S / reference,
              "setup_raw_s": setup_raw, "versions": versions()}
    if not args.setup_only:
        tally = {"attempted": 0, "failed": 0, "problems": []}
        if args.trace:
            result.update(_traced_run(workload, args.seconds, tally, probe))
        else:
            times, probes = _run_bodies(workload, args.seconds, tally, probe)
            result.update(
                wall_s=_median(_rescaled(times, probes)),
                raw_wall_s=_median(times),
                body_times=times,
                reference_times=probes,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        result.update(tally)
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
