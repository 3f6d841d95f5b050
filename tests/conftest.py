"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import (
    Application,
    CommunicationModel,
    MappingRule,
    Platform,
    ProblemInstance,
)
from repro.paper import figure1_applications, figure1_platform
from repro.service import close_pool

BOTH_MODELS = [CommunicationModel.OVERLAP, CommunicationModel.NO_OVERLAP]
BOTH_RULES = [MappingRule.ONE_TO_ONE, MappingRule.INTERVAL]


@pytest.fixture
def rng():
    """A deterministic RNG for per-test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def fig1_apps():
    """The two applications of the paper's Figure 1."""
    return figure1_applications()


@pytest.fixture
def fig1_platform():
    """The three bi-modal processors of Figure 1."""
    return figure1_platform()


@pytest.fixture
def fig1_problem(fig1_apps, fig1_platform):
    """The Figure 1 problem instance (interval rule, overlap model)."""
    return ProblemInstance(apps=fig1_apps, platform=fig1_platform)


@pytest.fixture
def two_small_apps():
    """Two tiny applications with non-trivial communications."""
    return (
        Application.from_lists([3, 2, 1], [1, 2, 0], input_data_size=1.0),
        Application.from_lists([2, 6], [1, 1], input_data_size=0.0),
    )


@pytest.fixture
def hom_platform():
    """A 5-processor fully homogeneous bi-modal platform."""
    return Platform.fully_homogeneous(5, speeds=[1.0, 2.0], bandwidth=2.0)


@pytest.fixture(autouse=True)
def no_leaked_pool_workers():
    """Close the process's worker pool after every test and fail the
    test if any pool worker is still alive once it is closed.

    The pool is long-lived by design; closing it here gives every test a
    fresh one and makes the whole suite enforce that ``close()`` leaves
    no worker process behind.
    """
    yield
    close_pool()
    alive = [
        p.pid
        for p in multiprocessing.active_children()
        if p.name == "repro-pool-worker"
    ]
    assert not alive, f"pool workers alive after close(): {alive}"
