"""Start-up cost: scipy, the process-pool modules, dataclasses and
qdetect.dominance stay off the import path and off the commands that do not
need them.

`scipy.linalg` (about 0.3 s to import) serves only `evolve` and the
steady-state probe fallback, and `scipy.optimize` (about 0.25 s) and
`scipy.sparse` (about 0.18 s on its own, by `python -X importtime`) only the
garbling LP, so each is imported where it runs. `numpy.random` serves only
the episodes, so import and `solve` leave it unloaded too. Each check runs in
a fresh interpreter, because the rest of the suite has long since loaded
scipy.
"""

import ast
import json
import os
import subprocess
import sys
import types

import numpy as np

import qdetect
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


def test_only_simulate_loads_numpy_random(tmp_path):
    # numpy loads numpy.random on first use; only the episodes draw from it
    ini = tmp_path / "exp.ini"
    ini.write_text(README_INI, encoding="utf-8")
    code = """
import json, sys
import qdetect.cli
ini, out = sys.argv[1:]
loaded = ["numpy.random" in sys.modules]
for argv in (["solve"], ["simulate", "--episodes", "20"]):
    assert qdetect.cli.main(["--config", ini, "--out", out, *argv]) == 0
    loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""
    assert run_fresh(code, str(ini), str(tmp_path / "out")) == [False, False, True]


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
    # the phi = 0 end of the sweep always takes the probe fallback (its vertex
    # generators are degenerate); the other rows come from the eigensolve
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
    M, resid = best_transform(ghat, ghat @ M_true)     # A = 3: always the LP
    assert len(calls) == 1
    assert resid <= 1e-6
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-9)


def test_star_import_binds_names_not_modules():
    # __all__ is built from the package namespace, which also holds the
    # submodules its own imports bound; those stay out of a star import
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    quickstart = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    imported = {alias.name for node in ast.walk(ast.parse(quickstart.split("```", 1)[0]))
                if isinstance(node, ast.ImportFrom) and node.module == "qdetect"
                for alias in node.names}
    assert len(imported) == 9 and imported <= set(qdetect.__all__)
    assert not [name for name in qdetect.__all__
                if isinstance(getattr(qdetect, name), types.ModuleType)]
    namespace = {}
    exec("from qdetect import *", namespace)
    assert "quantum" not in namespace and "ActionMap" in namespace


# dataclasses' per-class code generation (about 5 ms) is gone from the
# package, and qdetect.dominance (about 3 ms) loads only where it runs
HEAVY = ("dataclasses", "qdetect.dominance")
MIXTURE = """
[mixture]
atom1 = 0.712 10.495 0.9 0.5
atom2 = 0.912 10.495 0.9 0.5
"""
REGION_SCAN = ["region-scan", "--ref-box", "0.9:0.9,50:50,0.3:0.3",
               "--test-box", "0.2:0.2,50:50,0.3:0.3", "--points-per-axis", "1",
               "--pi-samples", "3"]


def test_dataclasses_and_dominance_stay_off_solve_sweep_and_simulate(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(README_INI + MIXTURE, encoding="utf-8")
    code = f"""
import json, sys
import qdetect.cli
def loaded():
    return [m for m in {HEAVY!r} if m in sys.modules]
ini, out = sys.argv[1:]
steps = [["import", loaded()]]
for argv in (["solve"], ["threshold-sweep", "--f-values", "1:3"],
             ["simulate", "--episodes", "20"], ["sensitivity"]):
    assert qdetect.cli.main(["--config", ini, "--out", out, *argv]) == 0
    steps.append([argv[0], loaded()])
print(json.dumps(steps))
"""
    steps = dict(run_fresh(code, str(ini), str(tmp_path / "out")))
    assert steps.pop("sensitivity")[-1] == "qdetect.dominance"
    assert steps == {"import": [], "solve": [], "threshold-sweep": [], "simulate": []}


def test_region_scan_and_the_package_names_load_dominance(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(README_INI, encoding="utf-8")
    code = f"""
import json, sys
import qdetect.cli
before = "qdetect.dominance" in sys.modules
assert qdetect.cli.main(["--config", sys.argv[1], "--out", sys.argv[2], *{REGION_SCAN!r}]) == 0
print(json.dumps([before, "qdetect.dominance" in sys.modules]))
"""
    assert run_fresh(code, str(ini), str(tmp_path / "out")) == [False, True]
    code = """
import json, sys
import qdetect
before = "qdetect.dominance" in sys.modules
from qdetect import region_scan
print(json.dumps([before, region_scan is sys.modules["qdetect.dominance"].region_scan,
                  "region_scan" in qdetect.__all__, "region_scan" in dir(qdetect)]))
"""
    assert run_fresh(code) == [False, True, True, True]
