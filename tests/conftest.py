"""Shared fixtures."""

import pytest

from unimoments import graphs, polynomials


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
