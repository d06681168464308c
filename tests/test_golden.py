"""Byte identity of the command line's artifacts.

Two configs run every command in process, and the sha256 of every CSV they
write, and of their stdout with the output directory replaced by a
placeholder, must equal the digests pinned in golden.json. A refactor that
changes any byte fails here. Never re-pin to make a change pass: re-pin
(python tests/pin_golden.py) only when a change means to alter the
artifacts, and say so with the change.

Floating-point results depend on the BLAS build, so the digests hold for the
BLAS they were pinned on; on any other the test skips, naming both.
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest

from qdetect import ActionMap, build_action_kernel, estimate_cost, load_config_file
from qdetect.cli import main
from qdetect.serialize import read_policy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

README_INI = """
[frame]
n_states = 2
n_actions = 2
utility = 20 5 ; 25 10

[params]
alpha = 0.812
lambda = 10.495
phi = 0.9

[mixture]
atom1 = 0.812 10.495 0.9 0.5
atom2 = 0.7 10.495 0.9 0.5

[change]
p = {p}

[observation]
b = 0.6 0.25 0.15 ; 0.15 0.25 0.6

[costs]
f = {f}
d = 1

[solver]
grid_n = 200
seed = 11
"""

CONFIGS = {
    "readme": README_INI.format(p=0.95, f=5),
    "slow": README_INI.format(p=0.02, f=50),
}

COMMANDS = (
    ["solve"],
    ["simulate", "--episodes", "200"],
    ["threshold-sweep", "--f-values", "1:10"],
    ["stp-sweep", "--phi-points", "21"],
    ["sensitivity"],
    ["region-scan", "--points-per-axis", "2"],
)


def blas_build():
    """Name and version of the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_digests(root):
    """Run COMMANDS on each config under root; the sha256 of every CSV,
    keyed config/hash-dir/file, and of each config's stdout, keyed
    config/stdout."""
    digests = {}
    for name, text in CONFIGS.items():
        ini, out = os.path.join(root, f"{name}.ini"), os.path.join(root, name)
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            for command in COMMANDS:
                code = main(["--config", ini, "--out", out, *command])
                if code != 0:
                    raise RuntimeError(f"{name}: {' '.join(command)} exited {code}")
        digests[f"{name}/stdout"] = _sha256(stdout.getvalue().replace(out, "<out>").encode())
        for folder, _, files in os.walk(out):
            for file in files:
                path = os.path.join(folder, file)
                with open(path, "rb") as fh:
                    digests[f"{name}/{os.path.relpath(path, out)}"] = _sha256(fh.read())
    return dict(sorted(digests.items()))


def test_artifacts_match_pinned_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if blas_build() != golden["blas"]:
        pytest.skip(f"digests pinned on BLAS {golden['blas']}, this numpy uses {blas_build()}")
    got = run_digests(str(tmp_path))
    assert sorted(got) == sorted(golden["digests"])
    changed = [key for key, digest in golden["digests"].items() if got[key] != digest]
    assert changed == [], f"artifacts differ from the pinned bytes: {changed}"


def test_simulate_line_is_estimate_cost(tmp_path, capsys):
    # the command and the library summarize the same episodes by one rule
    ini, out = tmp_path / "slow.ini", str(tmp_path / "out")
    ini.write_text(CONFIGS["slow"], encoding="utf-8")
    for command in (["solve"], ["simulate", "--episodes", "200"]):
        assert main(["--config", str(ini), "--out", out, *command]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    config = load_config_file(str(ini))
    amap = ActionMap(config.frame, config.params)
    kernel = build_action_kernel(amap, config.change, config.obs, config.grid)
    policy = read_policy(os.path.join(out, config.hash, "policy.csv"), config.hash)
    mean, stderr = estimate_cost(amap, config.change, config.obs, policy, kernel, config.costs,
                                 n_episodes=200, seed=config.seed)
    assert printed.startswith(f"simulate: mean cost {mean:.6g} +- {stderr:.3g}, ")
