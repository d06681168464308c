"""Pin the digests that test_golden checks: run its configs and commands
in a temporary directory and write tests/golden.json, with the numpy
version and the BLAS build they were taken on.

    PYTHONPATH=src python tests/pin_golden.py
"""

import json
import tempfile

import numpy as np

from test_golden import GOLDEN, blas_build, run_digests


def main():
    with tempfile.TemporaryDirectory() as root:
        digests = run_digests(root)
    pinned = {"numpy": np.__version__, "blas": blas_build(), "digests": digests}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2)
        fh.write("\n")
    print(f"pinned {len(digests)} digests -> {GOLDEN}")


if __name__ == "__main__":
    main()
