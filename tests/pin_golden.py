"""Pin the digests that test_golden checks: run its configs and commands
in a temporary directory and write tests/golden.json, with the numpy
version and the BLAS build they were taken on. Before writing, print every
key whose digest changed, appeared or disappeared against the current file,
or "no digest moved"; a re-pin names those keys in CHANGES.md.

    PYTHONPATH=src python tests/pin_golden.py
"""

import json
import os
import tempfile

import numpy as np

from test_golden import GOLDEN, blas_build, run_digests


def moved_keys(old, new):
    """(label, key) for every digest of new that differs from old, in key
    order: "changed", "appeared" or "disappeared"."""
    return [("changed" if key in old and key in new else
             "appeared" if key in new else "disappeared", key)
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def main():
    old = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            old = json.load(fh)["digests"]
    with tempfile.TemporaryDirectory() as root:
        digests = run_digests(root)
    moved = moved_keys(old, digests)
    for label, key in moved:
        print(f"{label}: {key}")
    if not moved:
        print("no digest moved")
    pinned = {"numpy": np.__version__, "blas": blas_build(), "digests": digests}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2)
        fh.write("\n")
    print(f"pinned {len(digests)} digests -> {GOLDEN}")


if __name__ == "__main__":
    main()
