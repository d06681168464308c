"""CSV persistence for kernels, value tables, policies, and episode logs.

Dialect: comma separator, dot decimal, LF line endings, one header row.
Every file starts with comment lines carrying the config hash (and any
artifact-specific metadata), so a cache can be validated before reuse.
Writes are atomic: content goes to a temp file in the target directory,
then a rename.
"""

import os
import tempfile

import numpy as np

from .errors import CacheMiss, InvalidModel
from .protocol import RECORD_FIELDS, ActionKernel, BeliefGrid
from .stopping import Policy, ValueTable


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows, config_hash, meta=None):
    lines = [f"# config={config_hash}"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Returns (meta, columns, rows-of-strings). Raises CacheMiss when the
    file is absent or malformed."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise CacheMiss(f"missing artifact {path}: {exc}") from None
    meta = {}
    body = []
    for line in raw:
        if line.startswith("#"):
            stripped = line[1:].strip()
            if "=" in stripped:
                key, value = stripped.split("=", 1)
                meta[key.strip()] = value.strip()
        elif line:
            body.append(line)
    if not body:
        raise CacheMiss(f"artifact {path} has no table")
    columns = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return meta, columns, rows


def _require_hash(meta, config_hash, path):
    if meta.get("config") != config_hash:
        raise CacheMiss(
            f"artifact {path} was built for config {meta.get('config')}, "
            f"current config is {config_hash}"
        )


def write_kernel(path, kernel, config_hash):
    rows = []
    pts = kernel.grid.points
    for x in range(2):
        for i, pi1 in enumerate(pts):
            for a in range(kernel.n_actions):
                rows.append((pi1, x + 1, a + 1, kernel.table[x, i, a]))
    write_csv(
        path, ("pi1", "x", "a", "R"), rows, config_hash,
        meta={"grid_n": kernel.grid.n_cells, "n_actions": kernel.n_actions},
    )


def read_kernel(path, config_hash):
    """Kernel table from its CSV; every (x, pi1, a) cell must appear exactly
    once, otherwise CacheMiss names the first cell that does not."""
    meta, columns, rows = read_csv(path)
    _require_hash(meta, config_hash, path)
    try:
        grid = BeliefGrid(n_cells=int(meta["grid_n"]))
        shape = (2, grid.size, int(meta["n_actions"]))
        pi1, x, a, R = np.array(rows, dtype=float).T
        cells = np.stack([x - 1, np.rint(pi1 * grid.n_cells), a - 1])
        if not np.all(np.isfinite(cells) & (cells == np.round(cells))):
            raise ValueError("non-integer state, action or grid index")
        flat = np.ravel_multi_index(cells.astype(int), shape)
        counts = np.bincount(flat, minlength=np.prod(shape))
        if np.any(counts != 1):
            k = int(np.argmax(counts != 1))
            xk, ik, ak = np.unravel_index(k, shape)
            raise ValueError(f"kernel cell (x={xk + 1}, pi1={float(grid.points[ik])!r}, "
                             f"a={ak + 1}) appears {counts[k]} times")
        return ActionKernel(grid=grid, table=R[np.argsort(flat)].reshape(shape))
    except (KeyError, ValueError, IndexError, InvalidModel) as exc:
        raise CacheMiss(f"artifact {path} is corrupt: {exc}") from None


def write_value(path, table, config_hash):
    rows = list(zip(table.points, table.values))
    write_csv(path, ("pi1", "V"), rows, config_hash)


def read_value(path, config_hash):
    meta, columns, rows = read_csv(path)
    _require_hash(meta, config_hash, path)
    try:
        pts = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        return ValueTable(points=pts, values=vals)
    except (ValueError, IndexError) as exc:
        raise CacheMiss(f"artifact {path} is corrupt: {exc}") from None


def write_policy(path, policy, config_hash):
    meta = {
        "threshold": "none" if policy.threshold is None else repr(policy.threshold),
        "crossings": policy.crossings,
    }
    rows = list(zip(policy.points, policy.u))
    write_csv(path, ("pi1", "u"), rows, config_hash, meta=meta)


def read_policy(path, config_hash):
    meta, columns, rows = read_csv(path)
    _require_hash(meta, config_hash, path)
    try:
        pts = np.array([float(r[0]) for r in rows])
        u = np.array([int(r[1]) for r in rows])
        raw_thr = meta.get("threshold", "none")
        threshold = None if raw_thr == "none" else float(raw_thr)
        crossings = int(meta.get("crossings", "0"))
        return Policy(points=pts, u=u, threshold=threshold, crossings=crossings)
    except (ValueError, IndexError, InvalidModel) as exc:
        raise CacheMiss(f"artifact {path} is corrupt: {exc}") from None


def write_episode_trace(path, trace, config_hash):
    """Per-step log of one episode: n, x, y, eta1, a, pi1, u."""
    write_csv(
        path,
        RECORD_FIELDS,
        trace.records,
        config_hash,
        meta={"change_time": trace.change_time, "stop_time": trace.stop_time,
              "cost": trace.cost},
    )
