"""Shared fixtures."""

import math
import os
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from unimoments import counting, graphs, montecarlo, polynomials


@pytest.fixture
def cold_caches():
    """Empty the one cache of cycle grids before and after the test, so that
    nothing computed elsewhere is served without a search."""
    counting._cycle_grids.cache_clear()
    yield
    counting._cycle_grids.cache_clear()


@pytest.fixture
def tiny_layer_guard(monkeypatch, cold_caches):
    """A layer guard of 10 states, which refuses every row from 2k = 12 on, behind
    empty caches."""
    monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 10)


@pytest.fixture
def pool_widths(monkeypatch):
    """Four CPUs, and a thread pool that records each width asked of it."""
    widths = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    return widths


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sampler was called")

    monkeypatch.setattr(montecarlo, "unimodular_batch", refuse)


@pytest.fixture
def no_counting(monkeypatch, cold_caches):
    """An engine that refuses to search, behind empty caches.

    Every search, ``_block_grid``'s and the cycle sweep's alike, walks
    ``graphs._layers``.
    """
    def refuse(g, cap):
        raise AssertionError("the engine was called")

    monkeypatch.setattr(graphs, "_layers", refuse)


@pytest.fixture
def block_grid_calls(monkeypatch, cold_caches):
    """The (k, cap) of each 2k-cycle search the engine makes, behind empty caches."""
    calls = []
    real = graphs._layers

    def recorded(g, cap):
        calls.append((g.vertex_count // 2, cap))
        return real(g, cap)

    monkeypatch.setattr(graphs, "_layers", recorded)
    return calls


@pytest.fixture
def one_block_too_many(monkeypatch):
    """An engine and a lattice oracle that find one balanced quotient of a 2k-cycle
    with k + 2 blocks, the fewest that must be refused, however the grid was cached.
    The counts gain a zero entry so that index k + 2 exists at k = 1."""
    real_counts = graphs._grid_counts

    def grid_counts(grid, vertex_count):
        out = real_counts(grid, vertex_count) + [0]
        out[vertex_count // 2 + 2] += 1
        return out

    real_brute = graphs.balanced_quotient_counts_brute

    def brute(g):
        out = real_brute(g) + [0]
        out[g.vertex_count // 2 + 2] += 1
        return out

    monkeypatch.setattr(graphs, "_grid_counts", grid_counts)
    monkeypatch.setattr(graphs, "balanced_quotient_counts_brute", brute)


@pytest.fixture
def perm_off_by_one(monkeypatch):
    """A ``math`` in ``polynomials`` whose ``perm(n, 1)`` is one too large, so that
    every basis check of a nonzero polynomial finds a mismatch."""
    faulty = types.SimpleNamespace(**vars(math))
    faulty.perm = lambda n, k: math.perm(n, k) + (k == 1)
    monkeypatch.setattr(polynomials, "math", faulty)
