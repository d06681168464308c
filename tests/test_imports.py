"""Start-up cost: scipy and the process-pool modules stay off the import path
and off the commands that do not need them.

`scipy.linalg` (about 0.3 s to import) serves only `evolve` and the
steady-state probe fallback, and `scipy.optimize` (about 0.25 s) and
`scipy.sparse` (about 0.18 s on its own, by `python -X importtime`) only the
garbling LP, so each is imported where it runs. Each check runs in a fresh
interpreter, because the rest of the suite has long since loaded scipy.
"""

import json
import os
import subprocess
import sys

import numpy as np

from qdetect import best_transform, dominance

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAZY = ("scipy.linalg", "scipy.optimize", "scipy.sparse")

README_INI = """
[frame]
n_states = 2
n_actions = 2
utility = 20 5 ; 25 10

[params]
alpha = 0.812
lambda = 10.495
phi = 0.9

[change]
p = 0.95

[observation]
b = 0.6 0.25 0.15 ; 0.15 0.25 0.6

[costs]
f = 5
d = 1

[solver]
grid_n = 200
seed = 11
"""


def run_fresh(code, *args):
    """Run code in a new interpreter that imports qdetect from this checkout;
    its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "{m: m in sys.modules for m in %r}" % (LAZY,)


def test_import_leaves_scipy_out():
    got = run_fresh(f"import json, sys\nimport qdetect, qdetect.cli\nprint(json.dumps({LOADED}))")
    assert got == {m: False for m in LAZY}


def test_solve_and_simulate_leave_scipy_out(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(README_INI, encoding="utf-8")
    code = f"""
import json, sys
from qdetect.cli import main
ini, out = sys.argv[1:]
codes = [main(["--config", ini, "--out", out, "solve"]),
         main(["--config", ini, "--out", out, "simulate", "--episodes", "20"])]
print(json.dumps({{"codes": codes, "loaded": {LOADED}}}))
"""
    got = run_fresh(code, str(ini), str(tmp_path / "out"))
    assert got == {"codes": [0, 0], "loaded": {m: False for m in LAZY}}


POOL = ("multiprocessing", "concurrent.futures")


def test_import_solve_and_simulate_start_no_pool_machinery(tmp_path):
    # only region-scan's garbling searches run on worker processes
    ini = tmp_path / "exp.ini"
    ini.write_text(README_INI, encoding="utf-8")
    code = f"""
import json, sys
import qdetect.cli
pool = {POOL!r}
after_import = [m for m in pool if m in sys.modules]
ini, out = sys.argv[1:]
codes = [qdetect.cli.main(["--config", ini, "--out", out, "solve"]),
         qdetect.cli.main(["--config", ini, "--out", out, "simulate", "--episodes", "20"])]
print(json.dumps({{"codes": codes, "after_import": after_import,
                  "after_commands": [m for m in pool if m in sys.modules]}}))
"""
    got = run_fresh(code, str(ini), str(tmp_path / "out"))
    assert got == {"codes": [0, 0], "after_import": [], "after_commands": []}


def test_stp_sweep_imports_expm_lazily_with_identical_output(tmp_path):
    # the phi = 0 and phi = 1 ends of the sweep always take the probe fallback
    ini = tmp_path / "exp.ini"
    ini.write_text(README_INI, encoding="utf-8")
    code = f"""
import glob, json, sys
from qdetect.cli import main
ini, root = sys.argv[1:]
before = "scipy.linalg" in sys.modules
csvs = []
for run in ("a", "b"):
    out = root + "/" + run
    assert main(["--config", ini, "--out", out, "stp-sweep", "--phi-points", "5"]) == 0
    [path] = glob.glob(out + "/*/stp_sweep.csv")
    csvs.append(open(path, "rb").read().decode("utf-8"))
print(json.dumps({{"before": before, "loaded": {LOADED}, "csvs": csvs}}))
"""
    got = run_fresh(code, str(ini), str(tmp_path))
    assert got["before"] is False
    assert got["loaded"]["scipy.linalg"] is True
    first, second = got["csvs"]
    assert first == second
    assert len(first.splitlines()) > 5


def test_linprog_is_a_patchable_module_function(monkeypatch):
    # the forwarder wraps scipy.optimize.milp but keeps the name linprog: the
    # benchmark's tracer counts LP calls by replacing this module attribute
    assert callable(vars(dominance)["linprog"])
    calls = []
    forward = dominance.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(dominance, "linprog", counting)
    rng = np.random.default_rng(3)
    ghat = rng.dirichlet(np.ones(3), size=4)
    M_true = rng.dirichlet(np.ones(3), size=3)
    M, resid = best_transform(ghat, ghat @ M_true, eps=1e-6)     # A = 3: always the LP
    assert len(calls) == 1
    assert resid <= 1e-6
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-9)
