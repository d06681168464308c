"""Compare two result sets of ``suite.py``: parent against change.

    python3 bench/compare.py PARENT.json CHANGE.json

For each workload and end-to-end metric: each side's median and quartiles,
the change's win fraction over the runs paired by seed, and a verdict under
the metric's bound from BENCHMARK.json:

* improved   - the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               quartile distance, or every change run beats every parent run;
* worse      - the change's median is worse than the parent's by more than
               the bound;
* unresolved - either side's spread (quartile distance over median) is wider
               than the bound, so "unchanged" cannot be told apart;
* unchanged  - otherwise.

Traced per-layer medians and their relative change follow the table.
Operations failed over attempted are printed for each side; a gain does not
count when the change fails more operations than the parent.
"""

import argparse
import json
import sys

from suite import load_spec, quartiles


def _runs(path, trace):
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    return [r for r in runs if r["trace"] == trace and "result" in r]


def _values(runs, workload, metric):
    """Values keyed by (seed, occurrence), so repeated seeds pair in order."""
    out, seen = {}, {}
    for r in runs:
        if r["workload"] != workload:
            continue
        k = seen[r["seed"]] = seen.get(r["seed"], -1) + 1
        out[(r["seed"], k)] = r["result"]["metrics"][metric]["value"]
    return out


def verdict(parent, change, better, bound):
    """(verdict, wins, pairs) for two {key: value} maps of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    keys = sorted(parent.keys() & change.keys())
    wins = sum(1 for k in keys if sign * (change[k] - parent[k]) < 0)
    pq1, pmed, pq3 = quartiles(list(parent.values()))
    cq1, cmed, cq3 = quartiles(list(change.values()))
    gain = sign * (pmed - cmed)
    if all(sign * (c - p) < 0 for c in change.values() for p in parent.values()):
        return "improved", wins, len(keys)
    if keys and wins >= 0.9 * len(keys) and gain > pq3 - pq1:
        return "improved", wins, len(keys)
    if -gain > bound * abs(pmed):
        return "worse", wins, len(keys)
    if (pq3 - pq1) > bound * abs(pmed) or (cq3 - cq1) > bound * abs(cmed):
        return "unresolved", wins, len(keys)
    return "unchanged", wins, len(keys)


def _failed(runs, workload):
    mine = [r["result"] for r in runs if r["workload"] == workload]
    return sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)


def main(argv=None):
    parser = argparse.ArgumentParser(description="compare two result sets")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]

    p_runs, c_runs = _runs(args.parent, 0), _runs(args.change, 0)
    print(f"{'workload':12} {'metric':12} {'unit':5} {'parent median [q1, q3]':30} "
          f"{'change median [q1, q3]':30} {'wins':>7} {'delta':>8}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            parent = _values(p_runs, w, m["name"])
            change = _values(c_runs, w, m["name"])
            if not parent or not change:
                continue
            v, wins, pairs = verdict(parent, change, m["better"], m["bound"])
            pq, cq = quartiles(list(parent.values())), quartiles(list(change.values()))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            sides = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (pq, cq)]
            print(f"{w:12} {m['name']:12} {m['unit']:5} {sides[0]:30} {sides[1]:30} "
                  f"{wins:>3}/{pairs:<3} {delta:+8.1%}  {v}")
        pf, pa = _failed(p_runs, w)
        cf, ca = _failed(c_runs, w)
        if pa or ca:
            print(f"{w:12} failed_frac  parent {pf}/{pa}, change {cf}/{ca}"
                  + ("  (more failures: no gain counts)" if ca and cf / ca > (pf / pa if pa else 0) else ""))

    p_traced, c_traced = _runs(args.parent, 1), _runs(args.change, 1)
    if p_traced and c_traced:
        print(f"\n{'workload':12} {'per-layer metric':32} {'parent':>12} "
              f"{'change':>12} {'delta':>8}")
        for w in workloads:
            for m in spec["per_layer"]:
                p = _values(p_traced, w, m["name"])
                c = _values(c_traced, w, m["name"])
                if not p or not c:
                    continue
                pm, cm = quartiles(list(p.values()))[1], quartiles(list(c.values()))[1]
                if pm == cm == 0:
                    continue
                delta = f"{(cm - pm) / pm:+8.1%}" if pm else "     new"
                print(f"{w:12} {m['name']:32} {pm:12.6g} {cm:12.6g} {delta:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
