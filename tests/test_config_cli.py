"""Config parsing, CSV cache, and end-to-end CLI runs (in process)."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qdetect import (
    ActionKernel,
    BeliefGrid,
    CacheMiss,
    ConfigError,
    InvalidModel,
    Policy,
    ValueTable,
    config_hash,
    load_config,
    value_iteration,
)
from qdetect.cli import _parse_box, _parse_f_values, main
from qdetect.serialize import (
    atomic_write_text,
    read_csv,
    read_kernel,
    read_policy,
    read_value,
    write_csv,
    write_kernel,
    write_policy,
    write_value,
)

BASE_INI = """
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
grid_n = 60
seed = 11
"""


def write_ini(tmp_path, text=BASE_INI, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_config_roundtrip():
    cfg = load_config(BASE_INI)
    assert cfg.frame.n_states == 2
    np.testing.assert_array_equal(
        cfg.frame.utility, [[20.0, 5.0], [25.0, 10.0]]
    )
    assert cfg.params.alpha == 0.812
    assert cfg.params.lam == 10.495
    assert cfg.change.p == 0.95
    assert cfg.obs.B.shape == (2, 3)
    assert cfg.costs.f == 5.0
    assert cfg.grid.n_cells == 60
    assert cfg.seed == 11
    assert cfg.vi_tol == 1e-8          # defaults kick in
    assert cfg.max_iter == 10000
    assert cfg.out_dir == "out"
    assert cfg.mixture is None
    assert len(cfg.hash) == 12


def test_load_config_mixture_and_comments():
    text = BASE_INI + """
[mixture]
atom1 = 0.712 10.495 0.9 0.5   # equal halves
atom2 = 0.912 10.495 0.9 0.5
"""
    cfg = load_config(text)
    assert cfg.mixture is not None
    atoms = cfg.mixture.atoms
    assert len(atoms) == 2
    assert atoms[0][0].alpha == 0.712
    assert atoms[0][1] == 0.5


def test_config_hash_canonicalization():
    reordered = """
[params]
phi = 0.9
lambda = 10.495
alpha = 0.812

[solver]
seed = 11
grid_n = 60

[costs]
d = 1
f = 5

[observation]
b = 0.6 0.25 0.15 ; 0.15 0.25 0.6

[change]
p = 0.95

[frame]
utility = 20 5 ; 25 10
n_actions = 2
n_states = 2
"""
    assert load_config(BASE_INI).hash == load_config(reordered).hash

    with_output = BASE_INI + "\n[output]\ndir = somewhere/else\n"
    assert load_config(with_output).hash == load_config(BASE_INI).hash
    assert load_config(with_output).out_dir == "somewhere/else"

    bumped = load_config(BASE_INI, overrides={"solver.grid_n": "80"})
    assert bumped.grid.n_cells == 80
    assert bumped.hash != load_config(BASE_INI).hash
    relocated = load_config(BASE_INI, overrides={"output.dir": "elsewhere"})
    assert relocated.hash == load_config(BASE_INI).hash


def test_config_hash_direct():
    sections = {"b": {"y": "2", "x": "1"}, "a": {"k": " 3  4 "}}
    assert config_hash(sections) == config_hash(
        {"a": {"k": "3 4"}, "b": {"x": "1", "y": "2"}}
    )
    assert config_hash(sections) != config_hash({"a": {"k": "3 5"}, "b": sections["b"]})


def test_require_names_sections():
    cfg = load_config(BASE_INI)
    cfg.require("change", "obs", "costs")    # present, no raise
    with pytest.raises(ConfigError, match=r"\[solver\] seed"):
        load_config(BASE_INI.replace("seed = 11", "")).require("seed")
    minimal = """
[frame]
n_states = 2
n_actions = 2
utility = 20 5 ; 25 10

[params]
alpha = 0.5
lambda = 10
phi = 0.5
"""
    with pytest.raises(ConfigError, match=r"\[costs\]"):
        load_config(minimal).require("costs")


def test_load_config_bad_values():
    with pytest.raises(ConfigError):
        load_config(BASE_INI.replace("utility = 20 5 ; 25 10",
                                     "utility = 20 5 ; 25"))
    with pytest.raises(ConfigError):
        load_config(BASE_INI.replace("lambda = 10.495", "lambda = brr"))
    with pytest.raises(ConfigError):
        load_config(BASE_INI.replace("p = 0.95", "p = -0.2"))
    # an infinite lambda would pass lam >= 0, then fail the steady state
    with pytest.raises(ConfigError, match="lam must be finite and >= 0, got inf"):
        load_config(BASE_INI.replace("lambda = 10.495", "lambda = inf"))
    with pytest.raises(ConfigError, match="lam must be finite and >= 0, got inf"):
        load_config(BASE_INI + "\n[mixture]\natom1 = 0.5 inf 0.3 1\n")
    with pytest.raises(ConfigError, match="both f and d"):
        load_config(BASE_INI.replace("d = 1\n", ""))
    with pytest.raises(ConfigError):
        load_config("[frame]\nn_states = 2\n")     # missing keys
    with pytest.raises(ConfigError):
        load_config("not ini at all [[[")
    # NaN compares false with everything, so each check must fail on it
    with pytest.raises(ConfigError, match="observation likelihoods"):
        load_config(BASE_INI.replace("b = 0.6 0.25 0.15 ; 0.15 0.25 0.6", "b = nan 0.5; 0.5 0.5"))
    with pytest.raises(ConfigError, match="mixture weights"):
        load_config(BASE_INI + "\n[mixture]\natom1 = 0.5 10 0.3 nan\n")
    # the change model and both filters are two-state
    with pytest.raises(ConfigError, match=r"\[frame\] n_states = 3 must be 2: the change model"):
        load_config(BASE_INI.replace("n_states = 2", "n_states = 3"))
    # [solver] values that no run can use: the error names the key and the value
    for line, match in (("seed = -1", r"seed = -1 must be >= 0"),
                        ("seed = 11\nvi_tol = -1", r"vi_tol = -1\.0 must be finite and > 0"),
                        ("seed = 11\nvi_tol = 0", r"vi_tol = 0\.0 must be"),
                        ("seed = 11\nvi_tol = nan", r"vi_tol = nan must be"),
                        ("seed = 11\nvi_tol = inf", r"vi_tol = inf must be"),
                        ("seed = 11\nmax_iter = 0", r"max_iter = 0 must be >= 1")):
        with pytest.raises(ConfigError, match=r"\[solver\] " + match):
            load_config(BASE_INI.replace("seed = 11", line))
    # a subnormal p lies in (0, 1], but the mean change time 1/p overflows
    with pytest.raises(ConfigError, match=r"\[change\] p = 1e-310 must have a finite 1/p"):
        load_config(BASE_INI.replace("p = 0.95", "p = 1e-310"))


def test_write_csv_layout(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(
        path, ("a", "b"), ((1, 0.5), (True, False)), "deadbeef0123",
        meta={"note": 7},
    )
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "# config=deadbeef0123"
    assert lines[1] == "# note=7"
    assert lines[2] == "a,b"
    assert lines[3] == "1,1"
    assert lines[4] == "0.5,0"

    meta, columns, rows = read_csv(path)
    assert meta == {"config": "deadbeef0123", "note": "7"}
    assert columns == ["a", "b"]
    assert rows == [["1", "1"], ["0.5", "0"]]


def oracle_fmt(value):
    # the per-value formatter every artifact used before column-wise writes
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def oracle_csv_text(columns, rows, config_hash, meta):
    lines = [f"# config={config_hash}"]
    lines += [f"# {key}={oracle_fmt(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(oracle_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-308,
                               1e-300, -1e300, 1.7976931348623157e308])
FLOAT_VALUES = EDGE_FLOATS | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def csv_tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["f8", "f4", "i8", "u1", "bool", "list"]),
                          min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "f8":
            columns.append(draw(hnp.arrays(np.float64, n, elements=FLOAT_VALUES)))
        elif kind == "f4":
            columns.append(draw(hnp.arrays(np.float32, n, elements=st.floats(width=32))))
        elif kind == "list":                # plain Python values take the _fmt path
            columns.append(draw(st.lists(st.integers(-10**20, 10**20) | FLOAT_VALUES
                                         | st.booleans() | st.text("ab", max_size=2),
                                         min_size=n, max_size=n)))
        else:
            columns.append(draw(hnp.arrays(np.dtype(kind), n)))
    meta = {"m_float": draw(FLOAT_VALUES), "m_int": draw(st.integers()),
            "m_np": np.int32(draw(st.integers(-5, 5))), "m_flag": draw(st.booleans())}
    return [f"c{i}" for i in range(len(columns))], columns, meta


@settings(max_examples=100)
@given(csv_tables())
def test_write_csv_columns_match_per_row_oracle(table):
    names, columns, meta = table
    expected = oracle_csv_text(names, zip(*columns), "feed01234567", meta)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv(path, names, columns, "feed01234567", meta=meta)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == expected


def test_write_csv_zero_rows_writes_header_only(tmp_path):
    for i, data in enumerate((((), ()), (np.zeros(0), np.zeros(0, dtype=int)))):
        path = tmp_path / f"empty{i}.csv"
        write_csv(str(path), ("a", "b"), data, "feed01234567")
        assert path.read_text(encoding="utf-8") == "# config=feed01234567\na,b\n"


def test_read_csv_misses(tmp_path):
    with pytest.raises(CacheMiss):
        read_csv(str(tmp_path / "absent.csv"))
    empty = tmp_path / "empty.csv"
    empty.write_text("# config=x\n", encoding="utf-8")
    with pytest.raises(CacheMiss):
        read_csv(str(empty))


def test_kernel_roundtrip_exact(tmp_path, pd_kernel_small):
    path = str(tmp_path / "kernel.csv")
    write_kernel(path, pd_kernel_small, "cafe01234567")
    back = read_kernel(path, "cafe01234567")
    assert back.grid == pd_kernel_small.grid
    np.testing.assert_array_equal(back.table, pd_kernel_small.table)
    with pytest.raises(CacheMiss):
        read_kernel(path, "000000000000")


def test_kernel_read_rejects_missing_or_repeated_cells(tmp_path, pd_kernel_small):
    path = str(tmp_path / "kernel.csv")
    write_kernel(path, pd_kernel_small, "cafe01234567")
    lines = open(path, encoding="utf-8").read().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("pi1,"))
    # a row repeated over another: the row count still matches, one row is not its cell
    dup = list(lines)
    dup[header + 2] = dup[header + 1]
    (tmp_path / "dup.csv").write_text("\n".join(dup) + "\n", encoding="utf-8")
    with pytest.raises(CacheMiss, match=r"is corrupt: row 2 has \(pi1=0\.0, x=1\.0, a=1\.0\), "
                                        r"expected \(pi1=0\.0, x=1\.0, a=2\.0\)"):
        read_kernel(str(tmp_path / "dup.csv"), "cafe01234567")
    # every cell present once, but two rows out of write_kernel's order
    swapped = list(lines)
    swapped[header + 1], swapped[header + 2] = lines[header + 2], lines[header + 1]
    (tmp_path / "swapped.csv").write_text("\n".join(swapped) + "\n", encoding="utf-8")
    with pytest.raises(CacheMiss, match=r"is corrupt: row 1 has \(pi1=0\.0, x=1\.0, a=2\.0\), "
                                        r"expected \(pi1=0\.0, x=1\.0, a=1\.0\)"):
        read_kernel(str(tmp_path / "swapped.csv"), "cafe01234567")
    rest = lines[header + 1][len("0.0,1,1"):]
    # a "#" line or a blank line in place of a row leaves that cell missing;
    # "0_0.0" and an Arabic-Indic digit one, which float() would read as
    # 0.0 and 1, are not decimal numbers of the CSV dialect
    for bad_row in ("0.0,3,1,0.5", "0.0,1,1.5,0.5", "0.0,1,1", "2.0,1,1,0.5", "nan,1,1,0.5",
                    "0.0,1,1,nan", "0_0.0,1,1" + rest, "0.0,\u0661,1" + rest, "# x=1", ""):
        bad = list(lines)
        bad[header + 1] = bad_row
        (tmp_path / "bad.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
        with pytest.raises(CacheMiss, match="is corrupt"):
            read_kernel(str(tmp_path / "bad.csv"), "cafe01234567")
    # among the rows, a "#" line and a blank line are skipped
    spaced = lines[:header + 2] + ["# note", ""] + lines[header + 2:]
    (tmp_path / "spaced.csv").write_text("\n".join(spaced) + "\n", encoding="utf-8")
    assert np.array_equal(read_kernel(str(tmp_path / "spaced.csv"), "cafe01234567").table,
                          pd_kernel_small.table)
    # a pi1 off its grid point (cells are 0.005 wide) would round onto it
    bad = list(lines)
    bad[header + 1] = "0.001,1,1" + lines[header + 1][len("0.0,1,1"):]
    (tmp_path / "bad.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
    with pytest.raises(CacheMiss, match=r"is corrupt: row 1 has \(pi1=0\.001, x=1\.0, a=1\.0\), "
                                        r"expected \(pi1=0\.0, x=1\.0, a=1\.0\)"):
        read_kernel(str(tmp_path / "bad.csv"), "cafe01234567")


def test_typed_readers_check_the_header(tmp_path, pd_kernel_small, pd_change, pd_costs):
    table, policy = value_iteration(pd_kernel_small, pd_change, pd_costs)
    for name, write, read, obj, header, wrong in (
            ("kernel", write_kernel, read_kernel, pd_kernel_small, "pi1,x,a,R", "a,b,c,d"),
            ("value", write_value, read_value, table, "pi1,V", "pi1,W"),
            ("policy", write_policy, read_policy, policy, "pi1,u", "u,pi1")):
        path = tmp_path / f"{name}.csv"
        write(str(path), obj, "cafe01234567")
        text = path.read_text(encoding="utf-8")
        assert f"\n{header}\n" in text
        path.write_text(text.replace(f"\n{header}\n", f"\n{wrong}\n"), encoding="utf-8")
        with pytest.raises(CacheMiss, match=f"is corrupt: header '{wrong}', expected '{header}'"):
            read(str(path), "cafe01234567")


def test_value_policy_roundtrip_exact(tmp_path, pd_kernel_small, pd_change, pd_costs):
    table, policy = value_iteration(pd_kernel_small, pd_change, pd_costs)
    vpath = str(tmp_path / "value.csv")
    ppath = str(tmp_path / "policy.csv")
    write_value(vpath, table, "cafe01234567")
    write_policy(ppath, policy, "cafe01234567")
    vback = read_value(vpath, "cafe01234567")
    pback = read_policy(ppath, "cafe01234567")
    np.testing.assert_array_equal(vback.values, table.values)
    np.testing.assert_array_equal(pback.u, policy.u)
    assert pback.threshold == policy.threshold
    assert pback.crossings == policy.crossings


def assert_rows_checked(path, read, rng):
    """Four corruptions of the rows of a typed artifact, each a CacheMiss that
    names a row: two rows swapped, one row copied over another, one pi1 moved
    one ulp off its grid point, and one row deleted. A deleted kernel row is
    named by the row count, which grid_n fixes."""
    lines = open(path, encoding="utf-8").read().splitlines()
    top = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    head, rows = lines[:top], lines[top:]
    i, j = sorted(rng.choice(len(rows), size=2, replace=False).tolist())
    pi1, rest = rows[i].split(",", 1)
    moved = repr(float(np.nextafter(float(pi1), 2.0)))
    swapped, copied = list(rows), list(rows)
    swapped[i], swapped[j] = rows[j], rows[i]
    copied[i] = rows[j]
    deleted = rows[:i] + rows[i + 1:]
    cases = [(swapped, rf"row {i + 1} has \("), (copied, rf"row {i + 1} has \("),
             (rows[:i] + [f"{moved},{rest}"] + rows[i + 1:],
              rf"row {i + 1} has \(pi1={re.escape(moved)}[,)]")]
    if read is read_kernel:
        cases.append((deleted, rf"{len(rows) - 1} rows, expected {len(rows)}"))
    elif len(rows) == 2:
        cases.append((deleted, "1 rows, expected 2"))
    elif (len(rows), i) != (3, 1):
        # not the middle row of 3: the 0.0 and 1.0 rows left are a whole
        # one-cell grid, and no grid_n line says that a row is gone
        cases.append((deleted, r"row \d+ has \(pi1="))
    for bad, message in cases:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(head + bad) + "\n")
        with pytest.raises(CacheMiss, match="is corrupt: " + message):
            read(path, "cafe01234567")


@settings(max_examples=30)
@given(st.integers(1, 30), st.integers(1, 4), st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
def test_kernel_roundtrip_exact_on_random_tables(n_cells, A, concentration, seed):
    # small concentrations give exact zeros and entries far below 1e-100
    grid = BeliefGrid(n_cells)
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.full(A, concentration), size=(2, grid.size))
    kernel = ActionKernel(grid=grid, table=table)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kernel.csv")
        write_kernel(path, kernel, "cafe01234567")
        back = read_kernel(path, "cafe01234567")
        assert_rows_checked(path, read_kernel, rng)
    assert back.grid == grid
    np.testing.assert_array_equal(back.table, table)


@settings(max_examples=30)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_policy_roundtrip_exact_on_random_policies(n_cells, seed):
    grid = BeliefGrid(n_cells)
    rng = np.random.default_rng(seed)
    u = rng.integers(1, 3, size=grid.size)
    policy = Policy(grid=grid, u=u)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy.csv")
        write_policy(path, policy, "cafe01234567")
        back = read_policy(path, "cafe01234567")
        assert_rows_checked(path, read_policy, rng)
    assert back.grid == grid
    np.testing.assert_array_equal(back.u, u)
    assert back.threshold == policy.threshold
    assert back.crossings == policy.crossings


@settings(max_examples=30)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.integers(-290, 290))
def test_value_roundtrip_exact_on_random_tables(n_cells, seed, exponent):
    # signed values spread over many decades around 10**exponent
    grid = BeliefGrid(n_cells)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.size) * 10.0 ** (exponent + rng.integers(-8, 9, grid.size))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "value.csv")
        write_value(path, ValueTable(grid=grid, values=values), "cafe01234567")
        back = read_value(path, "cafe01234567")
        assert_rows_checked(path, read_value, rng)
    assert back.grid == grid
    np.testing.assert_array_equal(back.values, values)


def test_value_read_rejects_non_finite_values_and_unsorted_points(tmp_path):
    grid = BeliefGrid(4)
    path = str(tmp_path / "value.csv")
    write_value(path, ValueTable(grid=grid, values=grid.points), "cafe01234567")
    text = open(path, encoding="utf-8").read()
    for bad in ("nan", "inf", "-inf"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("\n0.5,0.5\n", f"\n0.5,{bad}\n"))
        with pytest.raises(CacheMiss, match="is corrupt: values must be finite"):
            read_value(path, "cafe01234567")
    with pytest.raises(InvalidModel, match="values must be finite"):
        ValueTable(grid=grid, values=[0.0, 1.0, np.nan, 0.0, 0.0])
    # rows out of order: each pi1 must be its row's grid point
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("\n0.25,0.25\n0.5,0.5\n", "\n0.5,0.5\n0.25,0.25\n"))
    with pytest.raises(CacheMiss,
                       match=r"is corrupt: row 2 has \(pi1=0\.5\), expected \(pi1=0\.25\)"):
        read_value(path, "cafe01234567")


def test_policy_roundtrip_no_threshold(tmp_path):
    policy = Policy(grid=BeliefGrid(2), u=np.array([1, 2, 1]))
    path = str(tmp_path / "p.csv")
    write_policy(path, policy, "cafe01234567")
    back = read_policy(path, "cafe01234567")
    assert back.threshold is None
    assert back.crossings == 2
    text = open(path, encoding="utf-8").read()
    for bad in (text.replace("\n0.5,2\n", "\n0.5,3\n"), text.replace("\n0.5,2\n", "\n0.0,2\n"),
                text.replace("\n0.5,2\n", "\n0.5,1.5\n")):
        (tmp_path / "bad.csv").write_text(bad, encoding="utf-8")
        with pytest.raises(CacheMiss, match="is corrupt"):
            read_policy(str(tmp_path / "bad.csv"), "cafe01234567")


def test_atomic_write(tmp_path):
    path = tmp_path / "nested" / "file.txt"
    atomic_write_text(str(path), "first\n")
    atomic_write_text(str(path), "second\n")
    assert path.read_text(encoding="utf-8") == "second\n"
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_parse_helpers():
    assert _parse_f_values("1:3,5") == [1.0, 2.0, 3.0, 5.0]
    assert _parse_f_values("0") == [0.0]
    with pytest.raises(ConfigError):
        _parse_f_values("a:b")
    # a reversed range is an error naming the segment, not an empty range
    with pytest.raises(ConfigError, match=r"range '10:1' needs lo <= hi"):
        _parse_f_values("10:1,3")
    with pytest.raises(ConfigError, match=r"range '10:1' needs lo <= hi"):
        _parse_f_values("10:1")
    assert _parse_box("0.1:0.5,10:100,0.2:0.2") == (
        (0.1, 0.5), (10.0, 100.0), (0.2, 0.2)
    )
    with pytest.raises(ConfigError):
        _parse_box("0.1:0.5,10:100")
    with pytest.raises(ConfigError, match=r"lambda needs lo <= hi, got 100\.0:10\.0"):
        _parse_box("0.1:0.5,100:10,0.2:0.2")
    # linspace over an infinite end gives nan points
    with pytest.raises(ConfigError, match=r"lambda needs finite ends, got 10\.0:inf"):
        _parse_box("0.8:1.0,10:inf,0.1:0.5")
    with pytest.raises(ConfigError, match=r"alpha needs finite ends, got -inf:0\.5"):
        _parse_box("-inf:0.5,10:100,0.1:0.5")


def test_cli_solve_then_simulate(tmp_path, capsys):
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    cfg_hash = load_config(BASE_INI).hash
    cache = os.path.join(out, cfg_hash)
    for name in ("kernel.csv", "value.csv", "policy.csv"):
        assert os.path.exists(os.path.join(cache, name))
    assert "solve: threshold" in capsys.readouterr().out

    assert main(["--config", ini, "--out", out, "simulate",
                 "--episodes", "40"]) == 0
    episodes = os.path.join(cache, "episodes.csv")
    first = open(episodes, "rb").read()
    assert main(["--config", ini, "--out", out, "simulate",
                 "--episodes", "40"]) == 0
    assert open(episodes, "rb").read() == first
    assert "simulate: mean cost" in capsys.readouterr().out


def test_cli_simulate_corrupt_kernel_is_cache_miss(tmp_path, capsys):
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    path = os.path.join(out, load_config(BASE_INI).hash, "kernel.csv")
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[-1] = lines[-2]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", ini, "--out", out, "simulate", "--episodes", "5"]) == 4
    assert ("kernel.csv is corrupt: row 244 has (pi1=1.0, x=2.0, a=1.0), "
            "expected (pi1=1.0, x=2.0, a=2.0)") in capsys.readouterr().err


def _header_only(text):
    """An artifact's text cut to its meta lines and its header."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "\n".join(lines[: header + 1]) + "\n"


def test_typed_reads_reject_a_table_with_no_rows(tmp_path):
    grid = BeliefGrid(4)
    cases = ((write_value, read_value, ValueTable(grid=grid, values=grid.points)),
             (write_policy, read_policy, Policy(grid=grid, u=np.full(grid.size, 2))),
             (write_kernel, read_kernel, ActionKernel(grid, np.full((2, grid.size, 2), 0.5))))
    for write, read, artifact in cases:
        path = tmp_path / f"{read.__name__}.csv"
        write(str(path), artifact, "cafe01234567")
        path.write_text(_header_only(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(CacheMiss, match="is corrupt: no rows"):
            read(str(path), "cafe01234567")


def test_cli_simulate_header_only_policy_is_cache_miss(tmp_path, capsys):
    # a policy.csv cut to its header, whose header lines are those of an
    # empty u column, is corrupt: not a policy without points
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    path = os.path.join(out, load_config(BASE_INI).hash, "policy.csv")
    text = _header_only(open(path, encoding="utf-8").read())
    text = re.sub(r"# threshold=.*", "# threshold=none", text)
    text = re.sub(r"# crossings=.*", "# crossings=0", text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    capsys.readouterr()
    assert main(["--config", ini, "--out", out, "simulate", "--episodes", "5"]) == 4
    assert "policy.csv is corrupt: no rows" in capsys.readouterr().err


def test_policy_header_must_match_its_u_column(tmp_path, capsys):
    # the u column is the policy: a header line that disagrees with it is a
    # corrupt artifact, not a second rule for simulate to follow
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    cfg_hash = load_config(BASE_INI).hash
    cache = os.path.join(out, cfg_hash)
    path = os.path.join(cache, "policy.csv")
    text = open(path, encoding="utf-8").read()
    policy = read_policy(path, cfg_hash)
    threshold, crossings = repr(policy.threshold), str(policy.crossings)
    assert f"\n# threshold={threshold}\n# crossings={crossings}\n" in text
    for key, stored, derived in (("threshold", "0.99", threshold),
                                 ("threshold", "none", threshold),
                                 ("crossings", "2", crossings)):
        bad = text.replace(f"# {key}={derived}\n", f"# {key}={stored}\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bad)
        with pytest.raises(CacheMiss, match=re.escape(
                f"policy.csv is corrupt: header {key}={stored} but the u column "
                f"gives {derived}")):
            read_policy(path, cfg_hash)
        capsys.readouterr()
        assert main(["--config", ini, "--out", out, "simulate", "--episodes", "5"]) == 4
        assert "policy.csv is corrupt" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache, "episodes.csv"))


def test_cli_simulate_policy_off_its_grid_is_cache_miss(tmp_path, capsys):
    # rows that parse and agree with the header lines, but whose pi1 column
    # is not the grid: a nan pi1, the threshold row moved off its grid point
    # (with the threshold line moved to match), and a deleted row
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    cfg_hash = load_config(BASE_INI).hash
    path = os.path.join(out, cfg_hash, "policy.csv")
    policy = read_policy(path, cfg_hash)
    k = int(np.flatnonzero(policy.u == 1)[0])
    moved = repr(float(policy.grid.points[k:k + 2].mean()))
    lines = open(path, encoding="utf-8").read().splitlines()
    top = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    head, rows = lines[:top], lines[top:]
    moved_head = [f"# threshold={moved}" if line.startswith("# threshold=") else line
                  for line in head]
    for bad, row in ((head + rows[:5] + ["nan,2"] + rows[6:], 6),
                     (moved_head + rows[:k] + [f"{moved},1"] + rows[k + 1:], k + 1),
                     (head + rows[:5] + rows[6:], 2)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(bad) + "\n")
        capsys.readouterr()
        assert main(["--config", ini, "--out", out, "simulate", "--episodes", "5"]) == 4
        assert f"policy.csv is corrupt: row {row} has (pi1=" in capsys.readouterr().err


def test_cli_simulate_policy_on_another_grid_is_cache_miss(tmp_path, capsys):
    # grid_n 2 writes the policy on 0, 0.5, 1; without its middle row the
    # policy.csv is a well-formed policy on the 1-cell grid 0, 1, which is
    # not the kernel's grid
    text = BASE_INI.replace("f = 5\n", "f = 50\n").replace("grid_n = 60", "grid_n = 2")
    ini = write_ini(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    cache = os.path.join(out, load_config(text).hash)
    path = os.path.join(cache, "policy.csv")
    lines = open(path, encoding="utf-8").read().splitlines()
    lines.remove("0.5,2")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", ini, "--out", out, "simulate", "--episodes", "5"]) == 4
    assert ("policy.csv is on a 1-cell grid, kernel.csv on a 2-cell grid; "
            "run the solve command first") in capsys.readouterr().err
    assert not os.path.exists(os.path.join(cache, "episodes.csv"))


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.ini"), "solve"]) == 2
    assert "error [config]" in capsys.readouterr().err

    no_costs = BASE_INI.replace("[costs]\nf = 5\nd = 1\n", "")
    ini = write_ini(tmp_path, no_costs, "nocosts.ini")
    assert main(["--config", ini, "--out", str(tmp_path / "o"), "solve"]) == 2
    assert "error [config]" in capsys.readouterr().err

    nan_obs = BASE_INI.replace("b = 0.6 0.25 0.15 ; 0.15 0.25 0.6", "b = nan 0.5; 0.5 0.5")
    ini = write_ini(tmp_path, nan_obs, "nanobs.ini")
    assert main(["--config", ini, "--out", str(tmp_path / "o"), "solve"]) == 2
    assert "observation likelihoods" in capsys.readouterr().err

    ini = write_ini(tmp_path)
    out = str(tmp_path / "out2")
    assert main(["--config", ini, "--out", out, "simulate"]) == 4
    err = capsys.readouterr().err
    assert "error [cache-miss]" in err
    assert "run the solve command first" in err

    strict = BASE_INI.replace("seed = 11", "seed = 11\nmax_iter = 1")
    ini = write_ini(tmp_path, strict, "strict.ini")
    assert main(["--config", ini, "--out", str(tmp_path / "o3"),
                 "--tol", "1e-15", "solve"]) == 3
    assert "error [numerical]" in capsys.readouterr().err

    # counts below 1 are config errors naming the flag, and write nothing
    ini = write_ini(tmp_path)
    out = str(tmp_path / "o4")
    for argv in (["simulate", "--episodes", "-1"],
                 ["simulate", "--episodes", "0"],
                 ["region-scan", "--points-per-axis", "0"],
                 ["region-scan", "--pi-samples", "0"],
                 ["stp-sweep", "--phi-points", "-3"],
                 ["stp-sweep", "--phi-points", "0"]):
        assert main(["--config", ini, "--out", out, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]: " + argv[1] + " must be at least 1")
    # a reversed box would collapse its axis to one point
    assert main(["--config", ini, "--out", out, "region-scan", "--ref-box",
                 "1.0:0.8,100:10,0.5:0.1", "--points-per-axis", "2"]) == 2
    assert capsys.readouterr().err.startswith("error [config]: bad box '1.0:0.8,")
    assert main(["--config", ini, "--out", out, "region-scan", "--ref-box",
                 "0.8:1.0,10:inf,0.1:0.5", "--points-per-axis", "2"]) == 2
    assert "lambda needs finite ends, got 10.0:inf" in capsys.readouterr().err
    inf_lam = write_ini(tmp_path, BASE_INI.replace("lambda = 10.495", "lambda = inf"),
                        "inflam.ini")
    for command in ("solve", "stp-sweep"):
        assert main(["--config", inf_lam, "--out", out, command]) == 2
        assert capsys.readouterr().err.startswith("error [config]: lam must be finite")
    assert not os.path.exists(out)

    # impossible [solver] values exit 2 at load, before anything is written
    zero_iter = write_ini(tmp_path, BASE_INI.replace("seed = 11", "seed = 11\nmax_iter = 0"),
                          "zeroiter.ini")
    for cfg, argv, key in ((ini, ["--seed", "-1", "simulate"], "seed"),
                           (ini, ["--seed", "-1", "solve"], "seed"),
                           (ini, ["--tol", "-1", "solve"], "vi_tol"),
                           (ini, ["--tol", "nan", "threshold-sweep"], "vi_tol"),
                           (zero_iter, ["solve"], "max_iter")):
        assert main(["--config", cfg, "--out", out, *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error [config]: [solver] {key} = ")
    assert not os.path.exists(out)

    # so is a p whose 1/p overflows: simulate's step cap is a multiple of 1/p
    tiny_p = write_ini(tmp_path, BASE_INI.replace("p = 0.95", "p = 1e-310"), "tinyp.ini")
    for command in ("solve", "simulate"):
        assert main(["--config", tiny_p, "--out", out, command]) == 2
        assert capsys.readouterr().err.startswith("error [config]: [change] p = 1e-310 ")
    assert not os.path.exists(out)


def test_cli_cache_keyed_by_hash(tmp_path, capsys):
    # a grid override changes the hash, so the old cache must not be reused
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    assert main(["--config", ini, "--out", out, "--grid", "50",
                 "simulate", "--episodes", "5"]) == 4
    capsys.readouterr()


def test_cli_stp_sweep(tmp_path, capsys):
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "stp-sweep",
                 "--phi-points", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "violation onset" in stdout
    cache = os.path.join(out, load_config(BASE_INI).hash)
    meta, columns, rows = read_csv(os.path.join(cache, "stp_sweep.csv"))
    assert columns == ["phi", "p_defect_given_defect", "p_defect_given_coop",
                       "p_defect_unknown", "violation"]
    assert len(rows) == 5
    assert rows[0][0] == "0.0"
    assert rows[0][4] == "0"       # uncoupled row cannot violate
    assert rows[-1][0] == "1.0"


def test_cli_threshold_sweep(tmp_path, capsys):
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "threshold-sweep",
                 "--f-values", "0,2,5"]) == 0
    capsys.readouterr()
    cache = os.path.join(out, load_config(BASE_INI).hash)
    meta, columns, rows = read_csv(os.path.join(cache, "thresholds.csv"))
    assert columns == ["f", "thr_quantum", "thr_classical"]
    got = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert got[0.0] == (0.0, 0.0)
    for f in (2.0, 5.0):
        thr_q, thr_c = got[f]
        assert thr_q >= thr_c - 1e-12


def test_grid_reads_do_not_call_np_interp(tmp_path, capsys, monkeypatch):
    # every read of a grid table goes through protocol.grid_interp
    import qdetect.protocol
    import qdetect.stopping

    def banned(*args, **kwargs):
        raise AssertionError("np.interp called")

    for module in (qdetect.stopping, qdetect.protocol):
        monkeypatch.setattr(module.np, "interp", banned)
    ini = write_ini(tmp_path, BASE_INI.replace("grid_n = 60", "grid_n = 20"))
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "solve"]) == 0
    assert main(["--config", ini, "--out", out, "threshold-sweep", "--f-values", "1:3"]) == 0
    assert main(["--config", ini, "--out", out, "simulate", "--episodes", "5"]) == 0
    assert "np.interp" not in capsys.readouterr().err


def test_cli_region_scan(tmp_path, capsys):
    ini = write_ini(tmp_path)
    out = str(tmp_path / "out")
    code = main([
        "--config", ini, "--out", out, "region-scan",
        "--ref-box", "0.9:0.9,50:50,0.3:0.3",
        "--test-box", "0.2:0.2,50:50,0.3:0.3",
        "--points-per-axis", "1", "--pi-samples", "5",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "alpha-separated dominating/dominated pair certified: yes" in stdout
    cache = os.path.join(out, load_config(BASE_INI).hash)
    meta, columns, rows = read_csv(os.path.join(cache, "region_scan.csv"))
    assert len(rows) == 2
    by_dir = {r[6]: r for r in rows}
    assert by_dir["ref_to_test"][7] == "1"
    assert by_dir["test_to_ref"][7] == "0"
    # overlapping boxes at one point per axis: each box is its lo corner, so
    # the sampled alphas 0.9 and 0.2 separate though the box ends do not
    assert main([
        "--config", ini, "--out", out, "region-scan",
        "--ref-box", "0.9:1.0,50:50,0.3:0.3",
        "--test-box", "0.2:0.95,50:50,0.3:0.3",
        "--points-per-axis", "1", "--pi-samples", "5",
    ]) == 0
    assert ("alpha-separated dominating/dominated pair certified: yes"
            in capsys.readouterr().out)


def test_cli_sensitivity(tmp_path, capsys):
    with_mix = BASE_INI + """
[mixture]
atom1 = 0.712 10.495 0.9 0.5
atom2 = 0.912 10.495 0.9 0.5
"""
    ini = write_ini(tmp_path, with_mix, "mix.ini")
    out = str(tmp_path / "out")
    assert main(["--config", ini, "--out", out, "sensitivity"]) == 0
    stdout = capsys.readouterr().out
    assert "worst slack" in stdout
    cache = os.path.join(out, load_config(with_mix).hash)
    meta, columns, rows = read_csv(os.path.join(cache, "sensitivity.csv"))
    assert columns == ["pi1", "lhs", "rhs", "slack"]
    assert float(meta["distance"]) > 0.0
    assert all(float(r[3]) >= -1e-9 for r in rows)
