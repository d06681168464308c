"""CSV persistence for kernels, value tables, policies and command tables.

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
from .protocol import ActionKernel, BeliefGrid
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
    formatted from its .tolist() scalars by dtype kind, to the same strings,
    and a column of str passes through unchanged."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        items = values.tolist()
        if values.dtype.kind == "b":
            return ["1" if v else "0" for v in items]
        return list(map(repr if values.dtype.kind == "f" else str, items))
    if all(type(v) is str for v in values):
        return values
    return [_fmt(v) for v in values]


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


def write_csv(path, columns, data, config_hash, meta=None):
    """Header comments, the column names and one line per row. data holds
    one sequence per column, all of one length."""
    lines = [f"# config={config_hash}"]
    lines += [f"# {key}={_fmt(value)}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    lines += map(",".join, zip(*map(_format_column, data), strict=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_lines(path):
    """(meta, header, body lines) of an artifact: a line starting with "#",
    anywhere in the file, is a meta line, a blank line is skipped, and the
    first other line is the header. Raises CacheMiss when the file is absent
    or has no header."""
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
    return meta, body[0], body[1:]


def read_csv(path):
    """Returns (meta, columns, rows-of-strings). Raises CacheMiss when the
    file is absent or malformed."""
    meta, header, body = _read_lines(path)
    return meta, header.split(","), [line.split(",") for line in body]


def _read_table(path, config_hash, columns, build):
    """build(meta, *columns) over the float columns of a typed artifact whose
    config hash and header match; a table that fails to parse or to build is
    a CacheMiss naming the file as corrupt."""
    meta, header, body = _read_lines(path)
    if meta.get("config") != config_hash:
        raise CacheMiss(
            f"artifact {path} was built for config {meta.get('config')}, "
            f"current config is {config_hash}"
        )
    try:
        if header != ",".join(columns):
            raise ValueError(f"header {header!r}, expected {','.join(columns)!r}")
        if not body:
            raise ValueError("no rows")
        table = np.loadtxt(body, delimiter=",", dtype=float, ndmin=2, comments=None)
        return build(meta, *table.reshape(len(body), len(columns)).T)
    except (KeyError, ValueError, IndexError, InvalidModel) as exc:
        raise CacheMiss(f"artifact {path} is corrupt: {exc}") from None


_KERNEL_COLUMNS = ("pi1", "x", "a", "R")
_VALUE_COLUMNS = ("pi1", "V")
_POLICY_COLUMNS = ("pi1", "u")


def write_kernel(path, kernel, config_hash):
    """One row per (x, pi1, a) cell, in that order. Each grid point and
    action is formatted once; the columns repeat the same str objects."""
    pts, A = kernel.grid.points, kernel.n_actions
    cells = pts.size * A
    pi1 = np.repeat(np.array(_format_column(pts), dtype=object), A).tolist()
    columns = (pi1 * 2, ["1"] * cells + ["2"] * cells,
               _format_column(np.arange(1, A + 1)) * (2 * pts.size), kernel.table.reshape(-1))
    write_csv(
        path, _KERNEL_COLUMNS, columns, config_hash,
        meta={"grid_n": kernel.grid.n_cells, "n_actions": kernel.n_actions},
    )


def _kernel(meta, pi1, x, a, R):
    grid = BeliefGrid(n_cells=int(meta["grid_n"]))
    shape = (2, grid.size, int(meta["n_actions"]))
    cells = np.stack([x - 1, np.rint(pi1 * grid.n_cells), a - 1])
    if not np.all(np.isfinite(cells) & (cells == np.round(cells))):
        raise ValueError("non-integer state, action or grid index")
    flat = np.ravel_multi_index(cells.astype(int), shape)
    off = np.flatnonzero(grid.points[cells[1].astype(int)] != pi1)
    if off.size:
        raise ValueError(f"pi1={float(pi1[off[0]])!r} is not a point of the "
                         f"{grid.n_cells}-cell grid")
    counts = np.bincount(flat, minlength=np.prod(shape))
    if np.any(counts != 1):
        k = int(np.argmax(counts != 1))
        xk, ik, ak = np.unravel_index(k, shape)
        raise ValueError(f"kernel cell (x={xk + 1}, pi1={float(grid.points[ik])!r}, "
                         f"a={ak + 1}) appears {counts[k]} times")
    return ActionKernel(grid=grid, table=R[np.argsort(flat)].reshape(shape))


def read_kernel(path, config_hash):
    """Kernel table from its CSV; every (x, pi1, a) cell must appear exactly
    once and every pi1 must be its grid point, otherwise CacheMiss names the
    first cell or value that is not."""
    return _read_table(path, config_hash, _KERNEL_COLUMNS, _kernel)


def write_value(path, table, config_hash):
    write_csv(path, _VALUE_COLUMNS, (table.points, table.values), config_hash)


def read_value(path, config_hash):
    return _read_table(path, config_hash, _VALUE_COLUMNS,
                       lambda meta, pts, values: ValueTable(points=pts, values=values))


def _policy_meta(policy):
    """The threshold and crossings header lines of policy.csv, as spelled there."""
    return {"threshold": "none" if policy.threshold is None else repr(policy.threshold),
            "crossings": str(policy.crossings)}


def write_policy(path, policy, config_hash):
    write_csv(path, _POLICY_COLUMNS, (policy.points, policy.u), config_hash,
              meta=_policy_meta(policy))


def _policy(meta, pts, u):
    policy = Policy(points=pts, u=u)
    for key, derived in _policy_meta(policy).items():
        if meta.get(key) != derived:
            raise ValueError(f"header {key}={meta.get(key)} but the u column gives {derived}")
    return policy


def read_policy(path, config_hash):
    """Policy from its u column; CacheMiss names both values when a threshold
    or crossings header line differs from the one derived from u."""
    return _read_table(path, config_hash, _POLICY_COLUMNS, _policy)

