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


def _format_column(values):
    """The _fmt strings of one column; an int, float or bool ndarray is
    formatted from its .tolist() scalars by dtype kind, to the same strings."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        items = values.tolist()
        if values.dtype.kind == "b":
            return ["1" if v else "0" for v in items]
        return list(map(repr if values.dtype.kind == "f" else str, items))
    return [_fmt(v) for v in values]


class Columns(tuple):
    """Table data for write_csv given column by column, one sequence each."""


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
    """Header comments, the column names and one line per row. rows is a
    sequence of row tuples, or a Columns holding one sequence per column."""
    cols = rows
    if not isinstance(rows, Columns):
        cols = tuple(zip(*rows, strict=True)) or ((),) * len(columns)
    lines = [f"# config={config_hash}"]
    lines += [f"# {key}={_fmt(value)}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    lines += map(",".join, zip(*map(_format_column, cols), strict=True))
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
    """One row per (x, pi1, a) cell, in that order."""
    pts, A = kernel.grid.points, kernel.n_actions
    columns = Columns((np.tile(np.repeat(pts, A), 2), np.repeat([1, 2], pts.size * A),
                       np.tile(np.arange(1, A + 1), 2 * pts.size), kernel.table.reshape(-1)))
    write_csv(
        path, ("pi1", "x", "a", "R"), columns, config_hash,
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
    write_csv(path, ("pi1", "V"), Columns((table.points, table.values)), config_hash)


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
    write_csv(path, ("pi1", "u"), Columns((policy.points, policy.u)), config_hash, meta=meta)


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
