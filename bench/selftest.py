"""Self-test of the benchmark's checks and tracer.

    python3 bench/selftest.py

Runs small versions of the workloads in-process and confirms that:

* untouched outputs pass their checks;
* a kernel entry perturbed by 1e-6, a flipped ``certified`` flag and a
  changed episode ``tau`` each count as a failed operation;
* a traced name that no longer exists is reported as absent, the traced run
  still completes, and uninstalling restores every replaced name;
* ``run.py`` exits non-zero without a result line in a directory that holds
  only BENCHMARK.json and the benchmark's files.

Exits 0 when every case passes.
"""

import os
import shutil
import subprocess
import sys

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import workloads  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402

RESULTS = []


def expect(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))


def rewrite_row(path, pick, edit):
    """Apply edit(fields) to the first data row for which pick(fields) holds."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    for i in range(header + 1, len(lines)):
        fields = lines[i].split(",")
        if pick(fields):
            lines[i] = ",".join(edit(fields))
            break
    else:
        raise LookupError(f"no row to corrupt in {path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def solve_sweep_case(cli, work):
    sweep = workloads.SolveSweep(cli, work, 1)
    sweep.configs, sweep.models, sweep.ops_per_body = sweep.configs[:1], sweep.models[:1], 1
    calls = sweep.body()
    failed, problems = sweep.check(calls)
    expect("solve-sweep outputs pass", failed == 0, "; ".join(problems))
    cache = calls[0][0].stdout.rsplit(" -> ", 1)[1].strip()
    rewrite_row(os.path.join(cache, "kernel.csv"), lambda f: f[0] == "0.5",
                lambda f: f[:3] + [repr(float(f[3]) + 1e-6)])
    failed, problems = sweep.check(calls)
    expect("kernel entry + 1e-6 fails one model", failed == 1, "; ".join(problems[:2]))
    return calls


def simulate_case(cli, work):
    workloads.SIM_EPISODES = 20
    sim = workloads.Simulate(cli, work, workloads.DEFAULT_SEED,
                             workloads.load_refs(workloads.DEFAULT_SEED, "simulate"))
    calls = sim.body()
    failed, problems = sim.check(calls)
    expect("simulate outputs pass (pinned seed)", failed == 0, "; ".join(problems))
    rewrite_row(sim.episodes_path, lambda f: int(f[2]) >= int(f[1]),
                lambda f: f[:2] + [str(int(f[2]) + 1)] + f[3:])
    failed, problems = sim.check(calls)
    expect("changed episode tau fails one episode", failed == 1, "; ".join(problems[:2]))


def region_scan_case(cli, work):
    scan = workloads.RegionScan(cli, work, 1)
    calls = scan.body()
    failed, problems = scan.check(calls)
    expect("region-scan outputs pass", failed == 0, "; ".join(problems))
    path = calls[0].stdout.split(" -> ", 1)[1].splitlines()[0].strip()
    rewrite_row(path, lambda f: True,
                lambda f: f[:7] + [str(1 - int(f[7]))] + f[8:])
    failed, problems = scan.check(calls)
    expect("flipped certified flag fails the scan", failed >= 1, "; ".join(problems[:2]))


def absent_name_case(cli, work):
    import qdetect.cli
    import qdetect.protocol

    original = qdetect.cli.build_action_kernel
    gone = ("qdetect.protocol:no_such_function", "qdetect.quantum:ActionMap.gone",
            "qdetect.no_such_module:f")
    tracer = Tracer(boundaries=BOUNDARIES + tuple((g, "gone", (), None) for g in gone))
    tracer.install()
    try:
        sweep = workloads.SolveSweep(cli, work, 2)
        sweep.configs, sweep.models, sweep.ops_per_body = sweep.configs[:1], sweep.models[:1], 1
        failed, _ = sweep.check(sweep.body())
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    expect("absent names are reported", sorted(tracer.absent) == sorted(gone),
           str(tracer.absent))
    expect("traced run completes with absent names",
           failed == 0 and metrics["protocol.kernel.calls"] == 2
           and metrics["stopping.classical.calls"] == 10, str(metrics)[:200])
    expect("uninstall restores replaced names",
           qdetect.cli.build_action_kernel is original
           and qdetect.protocol.build_action_kernel is original)


def bare_directory_case(work):
    os.makedirs(work)
    shutil.copy(os.path.join(workloads.CHECKOUT, "BENCHMARK.json"), work)
    shutil.copytree(workloads.BENCH_DIR, os.path.join(work, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=180)
    expect("run.py without program sources exits non-zero and prints no result",
           done.returncode != 0 and '"correct"' not in done.stdout,
           f"exit {done.returncode}")


def main():
    cli = workloads.import_program(workloads.CHECKOUT)
    root = os.path.join(workloads.CHECKOUT, ".bench-work", f"selftest-{os.getpid()}")
    try:
        solve_sweep_case(cli, os.path.join(root, "sweep"))
        simulate_case(cli, os.path.join(root, "sim"))
        region_scan_case(cli, os.path.join(root, "scan"))
        absent_name_case(cli, os.path.join(root, "absent"))
        bare_directory_case(os.path.join(root, "bare"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(root))
        except OSError:
            pass
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test cases passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
