"""Shared fixtures: the paper's example tasksets and devices.

Tables 1-3 (paper §6) are given in exact rational arithmetic so the
knife-edge comparisons they exercise are decided mathematically, not by
float luck.

The ``array_backend`` fixture parametrizes a test over every installed
:mod:`repro.vector.xp` backend (numpy always; torch skipped with a
reason when absent), installing the backend as the process-wide
selection for the test's duration — so kernels resolving the ambient
backend run once per installed array library.
"""

from fractions import Fraction as F

import pytest

from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet
from repro.vector import xp as xp_backends


def _array_backend_params():
    reason = xp_backends.backend_skip_reason("torch")
    marks = () if reason is None else pytest.mark.skip(reason=reason)
    return [
        pytest.param("numpy", id="numpy"),
        pytest.param("torch", id="torch", marks=marks),
    ]


@pytest.fixture(params=_array_backend_params())
def array_backend(request):
    """Each installed repro.vector.xp backend, installed process-wide."""
    previous = xp_backends.set_backend(request.param)
    try:
        yield request.param
    finally:
        xp_backends.set_backend(previous)


@pytest.fixture
def fpga10() -> Fpga:
    """The 10-column device of the paper's Tables 1-3."""
    return Fpga(width=10)


@pytest.fixture
def fpga100() -> Fpga:
    """The 100-column device of the paper's Figures 3-4."""
    return Fpga(width=100)


@pytest.fixture
def table1() -> TaskSet:
    """Paper Table 1: accepted by DP, rejected by GN1 and GN2."""
    return TaskSet(
        [
            Task(wcet=F("1.26"), period=7, deadline=7, area=9, name="tau1"),
            Task(wcet=F("0.95"), period=5, deadline=5, area=6, name="tau2"),
        ]
    )


@pytest.fixture
def table2() -> TaskSet:
    """Paper Table 2: accepted by GN1, rejected by DP and GN2."""
    return TaskSet(
        [
            Task(wcet=F("4.50"), period=8, deadline=8, area=3, name="tau1"),
            Task(wcet=F("8.00"), period=9, deadline=9, area=5, name="tau2"),
        ]
    )


@pytest.fixture
def table3() -> TaskSet:
    """Paper Table 3: accepted by GN2, rejected by DP and GN1."""
    return TaskSet(
        [
            Task(wcet=F("2.10"), period=5, deadline=5, area=7, name="tau1"),
            Task(wcet=F("2.00"), period=7, deadline=7, area=7, name="tau2"),
        ]
    )
