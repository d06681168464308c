"""Write bench/refs.json: the default seed's outputs, pinned as references.

    python3 bench/pin.py

The references record what the program computed at the commit that defined
the benchmark. Regenerate them only when a change is meant to alter these
outputs, and say so in that change; never to make a failing check pass.
"""

import os
import sys
import tempfile

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import json  # noqa: E402

import workloads  # noqa: E402
from checks import (  # noqa: E402
    check_episodes, check_region, check_solve, episode_facts, pinnable,
)


def _require(problems, what):
    """Pin nothing from an output that fails its own invariants."""
    if problems:
        sys.exit(f"{what} failed its checks: {problems}")


def main():
    cli = workloads.import_program(workloads.CHECKOUT)
    seed = workloads.DEFAULT_SEED
    refs = {}
    with tempfile.TemporaryDirectory(dir=workloads.CHECKOUT) as work:
        sweep = workloads.SolveSweep(cli, os.path.join(work, "sweep"), seed)
        refs["solve-sweep"] = []
        for k, pair in enumerate(sweep.body()):
            facts = sweep.facts(k, *pair)
            _require(check_solve(sweep.models[k], facts), f"model {k}")
            refs["solve-sweep"].append(pinnable(facts))

        sim = workloads.Simulate(cli, os.path.join(work, "sim"), seed)
        _require(sim.setup_problems, "simulate set-up")
        (run,) = sim.body()
        _require(check_episodes(run.stdout, workloads.SIM_EPISODES,
                                (workloads.SIM_MODEL["f"], 1.0))[1], "simulate")
        refs["simulate"] = {"solve": pinnable(sim.solve_facts),
                            "episodes": episode_facts(run.stdout)}

        scan = workloads.RegionScan(cli, os.path.join(work, "scan"), seed)
        (run,) = scan.body()
        _, problems, facts = check_region(run.stdout, scan.ops_per_body,
                                          scan.ref_box, scan.test_box)
        _require(problems, "region-scan")
        refs["region-scan"] = facts
    with open(os.path.join(workloads.BENCH_DIR, "refs.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
