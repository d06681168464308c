"""The value types are frozen records: constructed by position or keyword,
refusing assignment, and compared, hashed, printed and pickled over their
constructor arguments, arrays by their bits. Every array attribute is
read-only. BeliefGrid.points, ActionKernel.columns and .slopes, and
Policy.threshold and .crossings are attributes cached from those arguments,
and are left out of ==, hash and repr.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from qdetect import (
    ActionKernel,
    BeliefGrid,
    BetweennessReport,
    ChangeModel,
    DecisionFrame,
    DetectionCosts,
    EpisodeBatch,
    ExperimentConfig,
    KLBoundReport,
    ObservationModel,
    ParameterMixture,
    Policy,
    PsychParams,
    ValueTable,
)
from qdetect.dominance import ScanRow

GRID = BeliefGrid(4)
PARAMS = PsychParams(0.8, 10.0, 0.5)
OTHER = PsychParams(0.2, 10.0, 0.5)
FRAME = DecisionFrame(2, 2, np.array([[20.0, 5.0], [25.0, 10.0]]))
CHANGE = ChangeModel(0.1)
OBS = ObservationModel(np.array([[0.6, 0.4], [0.3, 0.7]]))
COSTS = DetectionCosts(5.0, 1.0)
TABLE = np.stack([np.linspace([0.9, 0.1], [0.6, 0.4], 5), np.full((5, 2), 0.5)])

# (type, every constructor argument in order, the fields repr shows)
RECORDS = [
    (PsychParams, (0.8, 10.0, 0.5), "alpha lam phi"),
    (DecisionFrame, (2, 2, FRAME.utility), "n_states n_actions utility"),
    (ChangeModel, (0.1,), "p"),
    (ObservationModel, (OBS.B,), "B"),
    (DetectionCosts, (5.0, 1.0), "f d"),
    (BeliefGrid, (4,), "n_cells"),
    (ParameterMixture, (((PARAMS, 0.25), (OTHER, 0.75)),), "atoms"),
    (ActionKernel, (GRID, TABLE), "grid table"),
    (EpisodeBatch, (np.array([3, 1]), np.array([4, 0]), np.array([1, 0]),
                    np.array([False, True]), np.array([1.0, 5.0])),
     "change_time stop_time delay false_alarm cost"),
    (ValueTable, (GRID, np.linspace(5.0, 0.0, 5), 7, 1e-9, 2e-9),
     "grid values sweeps last_delta prev_delta"),
    (Policy, (GRID, np.array([2, 2, 2, 1, 1])), "grid u"),
    (KLBoundReport, (0.5, 0.1, GRID.points, np.zeros(5), np.ones(5)),
     "K distance points lhs rhs"),
    (BetweennessReport, (99, 0, 0.01), "checks violations worst_margin"),
    (ScanRow, (PARAMS, OTHER, "ref_to_test", True, 0.0, 0.5, 3),
     "ref test direction certified residual worst_V_margin lp_calls"),
    (ExperimentConfig, (FRAME, PARAMS, None, CHANGE, OBS, COSTS, GRID, 1e-8, 100, 11,
                        "out", "0123456789ab"),
     "frame params mixture change obs costs grid vi_tol max_iter seed out_dir hash"),
]
RECORD_TYPES = tuple(cls for cls, *_ in RECORDS)


def same(a, b):
    """Equal to the bit: arrays by dtype, shape and bytes, records and tuples
    item by item."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, RECORD_TYPES):
        return vars(a).keys() == vars(b).keys() and all(same(v, vars(b)[k])
                                                      for k, v in vars(a).items())
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def test_every_value_type_is_covered():
    assert len(RECORDS) == len(set(RECORD_TYPES)) == 15


def arrays(record):
    """Every array attribute of a record, cached ones included."""
    return [value for value in vars(record).values() if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("cls, args, shown", RECORDS, ids=[cls.__name__ for cls in RECORD_TYPES])
def test_record_contract(cls, args, shown):
    names = list(inspect.signature(cls).parameters)
    assert len(names) == len(args)
    record = cls(*args)
    assert same(cls(**dict(zip(names, args))), record)
    assert same(cls(**dict(reversed(list(zip(names, args))))), record)
    assert same(cls(*args[:1], **dict(zip(names[1:], args[1:]))), record)

    for name in vars(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    shown = shown.split()
    assert shown == names
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={getattr(record, n)!r}' for n in shown)})"

    twin = cls(*copy.deepcopy(args))        # distinct, equal copies of every array argument
    assert not {id(a) for a in arrays(twin)} & {id(a) for a in arrays(record)}
    assert twin == record and hash(twin) == hash(record)
    assert record != OTHER and not record == None    # noqa: E711

    loaded = pickle.loads(pickle.dumps(record))
    for other in (loaded, copy.copy(record), copy.deepcopy(record)):
        assert same(other, record) and other == record and hash(other) == hash(record)
    for array in arrays(record) + arrays(loaded):
        with pytest.raises(ValueError):         # read-only, the cached arrays too
            array[...] = array


def test_cached_attributes_stay_out_of_the_comparison():
    a, b = BeliefGrid(4), BeliefGrid(4)
    assert a.points is not b.points and np.array_equal(a.points, b.points)
    assert a == b and hash(a) == hash(b) and a != BeliefGrid(5)
    kernel = ActionKernel(GRID, TABLE)
    assert "slopes" not in repr(kernel) and kernel.slopes.shape == (2, 2, 5)
    assert "columns" not in repr(kernel) and kernel.columns.flags.c_contiguous
    np.testing.assert_array_equal(kernel.columns, TABLE.transpose(0, 2, 1))
    policy = Policy(GRID, np.array([2, 2, 2, 1, 1]))
    assert policy.threshold == 0.75 and policy.crossings == 1
    assert "threshold" not in repr(policy) and "crossings" not in repr(policy)


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        PsychParams(0.8, 10.0)
    with pytest.raises(TypeError):
        PsychParams(0.8, 10.0, 0.5, 0.1)
    with pytest.raises(TypeError):
        PsychParams(0.8, 10.0, 0.5, lam=10.0)
    with pytest.raises(TypeError):
        PsychParams(0.8, 10.0, rho=0.5)
    with pytest.raises(TypeError):
        Policy(GRID, np.ones(5), threshold=0.5)         # cached, not an argument
    table = ValueTable(GRID, np.zeros(5))
    assert table.sweeps is None and table.last_delta is None and table.prev_delta is None


def test_a_record_keeps_its_arrays_from_writes():
    u = np.array([2, 2, 2, 1, 1])
    policy = Policy(GRID, u)
    u[0] = 1                                    # the caller's array stays its own
    assert u.flags.writeable
    for p in (policy, pickle.loads(pickle.dumps(policy))):
        with pytest.raises(ValueError):
            p.u[0] = 1
        assert p.u.tolist() == [2, 2, 2, 1, 1] and p.threshold == 0.75 and p.crossings == 1
    # pickle carries the constructor arguments only: the cached values are rebuilt
    assert b"threshold" not in pickle.dumps(policy) and b"points" not in pickle.dumps(GRID)
    report = KLBoundReport(0.5, 0.1, GRID.points, np.zeros(5), np.ones(5))
    assert report.points is GRID.points         # already read-only: kept, not copied


def test_records_compare_by_value():
    def report(lhs):
        return KLBoundReport(0.5, 0.1, GRID.points, lhs, np.ones(5))

    zero, nan = np.zeros(5), np.full(5, np.nan)
    assert report(nan) == report(nan.copy()) and hash(report(nan)) == hash(report(nan.copy()))
    assert report(zero) != report(-zero)                        # -0.0 is not 0.0
    assert report(zero) != report(zero.astype(int))             # same bytes, another dtype
    assert report(zero) != report(zero.reshape(1, 5))           # same bytes, another shape
    assert report(zero) == report(zero.copy()) and report(zero) != report(np.ones(5))
    listed = ParameterMixture([[PARAMS, 0.25], [OTHER, 0.75]])    # atoms become tuples
    mixture = ParameterMixture(((PARAMS, 0.25), (OTHER, 0.75)))
    assert listed == mixture and hash(listed) == hash(mixture)
