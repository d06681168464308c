"""qdetect benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {solve-sweep,simulate,region-scan} \\
        --seed N --seconds S --trace {0,1}

Runs the workload in a child process whose environment pins
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS to 1, from the program sources in
``<root>/src`` (``--root`` defaults to the checkout holding this file).
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; the
set-up is repeated in four extra set-up-only children and ``setup_s`` is
the median of the five. With ``--trace 1`` it reports the per-layer metrics.

Prints an environment record, one line per metric with its unit, and as the
last line a JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero without that line when the program cannot be run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
TIME_LIMIT_S = 170
SETUP_PROBES = 4
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNCONTROLLED = {
    "cpu_frequency": "not pinned; scaling and turbo are left to the host",
    "other_tenants": "the machine is shared; load average is recorded at "
                     "start and end",
    "page_cache": "not dropped; the first run in a checkout reads cold files",
}


def _read_first(path, prefix=""):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unavailable"


def _git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _spec():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child(args, work, setup_only, deadline):
    """Run one workload process; returns its result dict or raises
    RuntimeError."""
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", args.root, "--work", work,
           "--spawned", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr.fileno(),
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload process timed out") from None
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}")
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description="qdetect benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=CHECKOUT,
                        help="tree whose src/ is measured (default: this checkout)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    args.root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(args.root, "src", "qdetect", "cli.py")):
        print(f"error: no program sources under {args.root}/src", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    load_start = _read_first("/proc/loadavg")
    scratch = os.path.join(CHECKOUT, ".bench-work",
                           f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        probes = []
        if not args.trace:
            probes = [_child(args, os.path.join(scratch, f"setup{k}"), True, deadline)
                      for k in range(SETUP_PROBES)]
        result = _child(args, os.path.join(scratch, "run"), False, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:                     # another run still uses it
            pass
    setups = [p["setup_s"] for p in probes + [result]]

    if args.trace:
        wanted = spec["per_layer"]
        values = result["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workload reported no {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    env = {
        "git_sha": _git_sha(args.root),
        "nproc": os.cpu_count(),
        **result["versions"],
        "thread_env": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "uncontrolled": dict(UNCONTROLLED, loadavg_start=load_start,
                             loadavg_end=_read_first("/proc/loadavg"),
                             cpu_mhz=_read_first("/proc/cpuinfo", "cpu MHz")),
    }
    if args.trace:
        env.update(absent_trace_names=result["absent_names"],
                   counts_repeat=result["counts_repeat"],
                   traced_bodies=result["traced_bodies"],
                   untraced_bodies=result["untraced_bodies"])
    else:
        env.update(raw_wall_s=result["raw_wall_s"], body_times=result["body_times"],
                   reference_times=result["reference_times"], setup_times=setups,
                   setup_raw_times=[p["setup_raw_s"] for p in probes + [result]])
    print("env " + json.dumps(env, sort_keys=True))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed']}/{result['attempted']} operations")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
