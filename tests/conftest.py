"""Shared fixtures."""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from unimoments import graphs, montecarlo, polynomials


@pytest.fixture
def tiny_layer_guard(monkeypatch):
    """A layer guard of 10 states, which refuses every row from 2k = 10 on.

    The row cache is emptied first, so that no row computed under the real
    guard is served without a search.
    """
    polynomials.ftable_row.cache_clear()
    monkeypatch.setattr(graphs, "MAX_LAYER_STATES", 10)
    yield
    polynomials.ftable_row.cache_clear()


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
def one_block_too_many(monkeypatch):
    """An engine that finds one balanced quotient of a 2k-cycle with k + 2 blocks."""
    real = graphs.balanced_quotient_counts

    def counts(g):
        out = real(g)
        out[g.vertex_count // 2 + 2] += 1
        return out

    monkeypatch.setattr(graphs, "balanced_quotient_counts", counts)
