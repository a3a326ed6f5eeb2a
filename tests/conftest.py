"""Shared fixtures, and helpers that build and edit generator tables."""

from functools import lru_cache

import numpy as np
import pytest

import einflag.einstein
from einflag.flag import GeneratorTable


@pytest.fixture
def cold_search(monkeypatch):
    """Empty numeric-search and solve memos for one test.

    The test gets fresh memos; the shared ones, and what later tests find
    in them, come back untouched when it ends.
    """
    for name in ("_numeric_cached", "_solve_cached"):
        memo = getattr(einflag.einstein, name)
        monkeypatch.setattr(einflag.einstein, name, lru_cache(maxsize=None)(memo.__wrapped__))


def dense_generators(table, d):
    """The generators of a :class:`~einflag.flag.GeneratorTable` as a ``(count, d, d)`` stack."""
    G = np.zeros((table.count, d, d))
    G[table.gen, table.row, table.col] = table.value
    return G


def edit_first_generator(table, d, rows, cols, deltas):
    """``table`` with ``deltas`` added to generator 0 at ``(rows, cols)``;
    negative indices count from d, and new positions become entries."""
    rows, cols = np.mod(rows, d), np.mod(cols, d)
    key = np.r_[(table.gen * d + table.row) * d + table.col, rows * d + cols]
    keys, inv = np.unique(key, return_inverse=True)
    value = np.bincount(inv, weights=np.r_[table.value, deltas])
    return GeneratorTable(table.count, keys // (d * d), keys // d % d, keys % d, value)


NO_GENERATORS = GeneratorTable(0, *[np.zeros(0, dtype=np.int64)] * 3, np.zeros(0))
