"""The value types are frozen records: constructed by position or keyword,
refusing assignment, and compared, hashed, printed and pickled over their
constructor arguments. BeliefGrid.points, ActionKernel.columns and .slopes,
and Policy.threshold and .crossings are attributes cached from those
arguments, and are left out of ==, hash and repr.
"""

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

# (type, every constructor argument in order, the fields repr shows, hashable)
RECORDS = [
    (PsychParams, (0.8, 10.0, 0.5), "alpha lam phi", True),
    (DecisionFrame, (2, 2, FRAME.utility), "n_states n_actions utility", False),
    (ChangeModel, (0.1,), "p", True),
    (ObservationModel, (OBS.B,), "B", False),
    (DetectionCosts, (5.0, 1.0), "f d", True),
    (BeliefGrid, (4,), "n_cells", True),
    (ParameterMixture, (((PARAMS, 0.25), (OTHER, 0.75)),), "atoms", True),
    (ActionKernel, (GRID, TABLE), "grid table", False),
    (EpisodeBatch, (np.array([3, 1]), np.array([4, 0]), np.array([1, 0]),
                    np.array([False, True]), np.array([1.0, 5.0])),
     "change_time stop_time delay false_alarm cost", False),
    (ValueTable, (GRID, np.linspace(5.0, 0.0, 5), 7, 1e-9, 2e-9),
     "grid values sweeps last_delta prev_delta", False),
    (Policy, (GRID, np.array([2, 2, 2, 1, 1])), "grid u", False),
    (KLBoundReport, (0.5, 0.1, GRID.points, np.zeros(5), np.ones(5)),
     "K distance points lhs rhs", False),
    (BetweennessReport, (99, 0, 0.01), "checks violations worst_margin", True),
    (ScanRow, (PARAMS, OTHER, "ref_to_test", True, 0.0, 0.5, 3),
     "ref test direction certified residual worst_V_margin lp_calls", True),
    (ExperimentConfig, (FRAME, PARAMS, None, CHANGE, OBS, COSTS, GRID, 1e-8, 100, 11,
                        "out", "0123456789ab"),
     "frame params mixture change obs costs grid vi_tol max_iter seed out_dir hash", False),
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


@pytest.mark.parametrize("cls, args, shown, hashable", RECORDS,
                         ids=[cls.__name__ for cls in RECORD_TYPES])
def test_record_contract(cls, args, shown, hashable):
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
    assert same(pickle.loads(pickle.dumps(record)), record)

    if hashable:
        twin = cls(**dict(zip(names, args)))
        assert twin == record and hash(twin) == hash(record)
        assert record != OTHER and not record == None    # noqa: E711
    else:
        with pytest.raises(TypeError):      # an array field
            hash(record)


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
