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


def _require_layout(names, got, want):
    """The cell columns got of a typed artifact must equal want, its writer's
    layout, row by row; ValueError names the row count when rows are missing
    or extra, otherwise the first row that differs, with both sets of cells."""
    if len(got[0]) != len(want[0]):
        raise ValueError(f"{len(got[0])} rows, expected {len(want[0])}")
    rows = np.flatnonzero(np.any(np.array(got) != np.array(want), axis=0))   # NaN differs
    if rows.size:
        i = rows[0]
        cells = [", ".join(f"{name}={float(col[i])!r}" for name, col in zip(names, cols))
                 for cols in (got, want)]
        raise ValueError(f"row {i + 1} has ({cells[0]}), expected ({cells[1]})")


def _kernel(meta, pi1, x, a, R):
    grid = BeliefGrid(n_cells=int(meta["grid_n"]))
    A = int(meta["n_actions"])
    _require_layout(("pi1", "x", "a"), (pi1, x, a),
                    (np.tile(np.repeat(grid.points, A), 2), np.repeat([1.0, 2.0], grid.size * A),
                     np.tile(np.arange(1.0, A + 1), 2 * grid.size)))
    return ActionKernel(grid=grid, table=R.reshape(2, grid.size, A))


def read_kernel(path, config_hash):
    """Kernel table from its CSV; the (pi1, x, a) cells must be write_kernel's,
    row by row, otherwise CacheMiss names the first row that is not."""
    return _read_table(path, config_hash, _KERNEL_COLUMNS, _kernel)


def _grid_of(pi1):
    """The grid of a value or policy table: one point per row, and each pi1
    must be its row's point. One row is no grid; the smallest has two."""
    grid = BeliefGrid(n_cells=max(pi1.size - 1, 1))
    _require_layout(("pi1",), (pi1,), (grid.points,))
    return grid


def write_value(path, table, config_hash):
    write_csv(path, _VALUE_COLUMNS, (table.grid.points, table.values), config_hash)


def read_value(path, config_hash):
    return _read_table(path, config_hash, _VALUE_COLUMNS,
                       lambda meta, pi1, values: ValueTable(grid=_grid_of(pi1), values=values))


def _policy_meta(policy):
    """The threshold and crossings header lines of policy.csv, as spelled there."""
    return {"threshold": "none" if policy.threshold is None else repr(policy.threshold),
            "crossings": str(policy.crossings)}


def write_policy(path, policy, config_hash):
    write_csv(path, _POLICY_COLUMNS, (policy.grid.points, policy.u), config_hash,
              meta=_policy_meta(policy))


def _policy(meta, pi1, u):
    policy = Policy(grid=_grid_of(pi1), u=u)
    for key, derived in _policy_meta(policy).items():
        if meta.get(key) != derived:
            raise ValueError(f"header {key}={meta.get(key)} but the u column gives {derived}")
    return policy


def read_policy(path, config_hash):
    """Policy from its u column; CacheMiss names both values when a threshold
    or crossings header line differs from the one derived from u."""
    return _read_table(path, config_hash, _POLICY_COLUMNS, _policy)

