"""Shared fixtures."""

import math
import os
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from unimoments import graphs, montecarlo, polynomials


def clear_exact_caches():
    """Empty the row cache and the cycle grids behind ``exact_moment``."""
    polynomials.ftable_row.cache_clear()
    polynomials.exact_moment.cache_clear()


@pytest.fixture
def tiny_layer_guard(monkeypatch):
    """A layer guard of 10 states, which refuses every row from 2k = 12 on.

    The caches are emptied first, so that nothing computed under the real
    guard is served without a search.
    """
    clear_exact_caches()
    monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 10)
    yield
    clear_exact_caches()


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
def no_counting(monkeypatch):
    """An engine that refuses to count, behind empty caches."""
    def refuse(g, cap=None):
        raise AssertionError("the engine was called")

    clear_exact_caches()  # so that nothing cached hides a count
    monkeypatch.setattr(graphs, "_block_grid", refuse)


@pytest.fixture
def block_grid_calls(monkeypatch):
    """The (k, cap) of each 2k-cycle search the engine makes, behind empty caches."""
    calls = []
    real = graphs._block_grid

    def recorded(g, cap=None):
        calls.append((g.vertex_count // 2, cap))
        return real(g, cap)

    clear_exact_caches()
    monkeypatch.setattr(graphs, "_block_grid", recorded)
    return calls


@pytest.fixture
def one_block_too_many(monkeypatch):
    """An engine and a lattice oracle that find one balanced quotient of a 2k-cycle
    with k + 2 blocks."""
    for name in ("balanced_quotient_counts", "balanced_quotient_counts_brute"):
        real = getattr(graphs, name)

        def counts(g, real=real):
            out = real(g)
            out[g.vertex_count // 2 + 2] += 1
            return out

        monkeypatch.setattr(graphs, name, counts)


@pytest.fixture
def perm_off_by_one(monkeypatch):
    """A ``math`` in ``polynomials`` whose ``perm(n, 1)`` is one too large, so that
    every basis check of a nonzero polynomial finds a mismatch."""
    faulty = types.SimpleNamespace(**vars(math))
    faulty.perm = lambda n, k: math.perm(n, k) + (k == 1)
    monkeypatch.setattr(polynomials, "math", faulty)
