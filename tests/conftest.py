"""Shared fixtures: the two-state defection game used throughout the suite.

Utility table rows are the agent's actions (cooperate, defect), columns the
opponent regimes (state 1 cooperates, state 2 defects); the change model's
absorbing state 1 is the cooperative regime, so beliefs flow between the
filtering layer and the decision core without reordering.  The fixtures are
session-scoped: the model objects are immutable, so one instance serves every
test.

Hypothesis runs under a deterministic profile: derandomized examples and no
example database, so every run draws the same cases.

The suite runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is set:
the eigensolves of A >= 3 frames are small enough that a second thread costs
more than it gives. The setting must precede numpy's import, which happens
below, as pytest loads this file before any test module.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from qdetect import (
    ActionMap,
    BeliefGrid,
    ChangeModel,
    DecisionFrame,
    DetectionCosts,
    ObservationModel,
    PsychParams,
    build_action_kernel,
)

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def pd_frame():
    return DecisionFrame(n_states=2, n_actions=2,
                         utility=np.array([[20.0, 5.0], [25.0, 10.0]]))


@pytest.fixture(scope="session")
def pd_params():
    # attention-heavy operating point used by most experiments
    return PsychParams(alpha=0.812, lam=10.495, phi=0.9)


@pytest.fixture(scope="session")
def pd_change():
    return ChangeModel(p=0.95)


@pytest.fixture(scope="session")
def pd_obs():
    return ObservationModel(np.array([[0.60, 0.25, 0.15],
                                      [0.15, 0.25, 0.60]]))


@pytest.fixture(scope="session")
def pd_costs():
    return DetectionCosts(f=5.0, d=1.0)


@pytest.fixture(scope="session")
def small_grid():
    return BeliefGrid(n_cells=200)


@pytest.fixture(scope="session")
def full_grid():
    return BeliefGrid(n_cells=1000)


@pytest.fixture(scope="session")
def pd_action_map(pd_frame, pd_params):
    return ActionMap(pd_frame, pd_params)


@pytest.fixture(scope="session")
def pd_kernel_small(pd_frame, pd_params, pd_change, pd_obs, small_grid):
    return build_action_kernel(ActionMap(pd_frame, pd_params), pd_change, pd_obs,
                               small_grid)


@pytest.fixture(scope="session")
def pd_kernel_full(pd_frame, pd_params, pd_change, pd_obs, full_grid):
    return build_action_kernel(ActionMap(pd_frame, pd_params), pd_change, pd_obs,
                               full_grid)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay the acceptance verdicts where captured stdout would hide them
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
