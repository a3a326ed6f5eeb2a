from functools import lru_cache

import pytest

import einflag.einstein


@pytest.fixture
def cold_search(monkeypatch):
    """Empty numeric-search and solve memos for one test.

    The test gets fresh memos; the shared ones, and what later tests find
    in them, come back untouched when it ends.
    """
    for name in ("_numeric_cached", "_solve_cached"):
        memo = getattr(einflag.einstein, name)
        monkeypatch.setattr(einflag.einstein, name, lru_cache(maxsize=None)(memo.__wrapped__))
