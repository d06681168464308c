"""Run the benchmark over workloads and seeds and save one result set.

    python3 bench/suite.py --out results.json [--seeds 1-10]
        [--workloads solve-sweep,simulate,region-scan] [--trace 0|1|both]
        [--root PATH] [--seconds S]

Each run is one ``run.py`` process, run one after another. The result set
holds every run's final JSON line and environment record. The summary
gives, per workload and metric, the median, quartiles and spread (quartile
distance over median) with the metric's bound, and failed over attempted
operations. Compare two result sets with ``compare.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_one(workload, seed, seconds, trace, root):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", root]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit": done.returncode}
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        record["env"] = json.loads(next(l[4:] for l in lines if l.startswith("env ")))
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def summarize(runs, spec, trace):
    """Rows of (workload, metric, unit, n, q1, median, q3, spread, bound)."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload
                and r["trace"] == trace and "result" in r]
        if not mine:
            continue
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            rows.append((workload, m["name"], m["unit"], len(values), q1, med, q3,
                         spread, m.get("bound")))
    return rows


def print_summary(runs, spec):
    for trace in (0, 1):
        rows = summarize(runs, spec, trace)
        if not rows:
            continue
        print(f"\n{'traced per-layer' if trace else 'untraced end-to-end'} metrics")
        print(f"{'workload':12} {'metric':32} {'unit':>12} {'n':>3} {'q1':>12} "
              f"{'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for w, name, unit, n, q1, med, q3, spread, bound in rows:
            b = "" if bound is None else f"{bound:.2f}"
            print(f"{w:12} {name:32} {unit:>12} {n:>3} {q1:12.6g} {med:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} {b:>6}")
    print("\nfailed_frac (failed / attempted operations)")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        ok = [r["result"] for r in mine if "result" in r]
        failed = sum(r["failed"] for r in ok)
        attempted = sum(r["attempted"] for r in ok)
        crashed = len(mine) - len(ok)
        print(f"{workload:12} {failed}/{attempted}"
              + (f", {crashed} runs gave no result" if crashed else ""))


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description="run the benchmark suite")
    parser.add_argument("--out", required=True, help="result set JSON to write")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--root", default=CHECKOUT)
    args = parser.parse_args(argv)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            for trace in traces:
                record = run_one(workload, seed, args.seconds, trace,
                                 os.path.abspath(args.root))
                runs.append(record)
                print(f"{workload} seed {seed} trace {trace}: "
                      + (json.dumps({k: v["value"] for k, v in
                                     record["result"]["metrics"].items()})[:200]
                         if "result" in record else f"exit {record['exit']}"),
                      flush=True)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump({"seconds": args.seconds, "runs": runs}, fh, indent=1)
    print_summary(runs, spec)
    return 0 if all("result" in r for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
