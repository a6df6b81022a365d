"""Shared fixtures for the test suite."""

import pytest

from repro.exp import STORE_BACKENDS
from repro.params import CacheParams, ScalePreset, SliccParams, SystemParams
from repro.workloads import standard_trace


@pytest.fixture(scope="session")
def tiny_cache_params():
    """A 4KB 4-way cache: 16 sets, 64 blocks — small enough to reason
    about by hand in tests."""
    return CacheParams(size_bytes=4 * 1024, assoc=4, policy="lru")


@pytest.fixture(scope="session")
def smoke_tpcc():
    """A smoke-scale TPC-C trace shared across integration tests."""
    return standard_trace("tpcc-1", ScalePreset.SMOKE, seed=7)


@pytest.fixture(scope="session")
def smoke_tpce():
    """A smoke-scale TPC-E trace shared across integration tests."""
    return standard_trace("tpce", ScalePreset.SMOKE, seed=7)


@pytest.fixture(scope="session")
def smoke_mapreduce():
    """A smoke-scale MapReduce trace shared across integration tests."""
    return standard_trace("mapreduce", ScalePreset.SMOKE, seed=7)


@pytest.fixture
def default_system():
    return SystemParams()


@pytest.fixture
def default_slicc():
    return SliccParams()


@pytest.fixture(params=STORE_BACKENDS)
def store_backend(request):
    """Each result-store format in turn (``jsonl``, ``sqlite``)."""
    return request.param
