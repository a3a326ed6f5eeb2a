"""The batched equivalence screen against the per-candidate screen it replaced.

``equivalence_screen`` pulls solutions back through coefficient maps that
:func:`einflag.einstein._witness_maps` builds once per flag from one
batched pass over the ambient candidates.  :mod:`screen_oracle` keeps the
old route: candidates built with ``np.block``, one tangent map per
candidate, and one metric-matrix pull-back per solution and witness.
"""

from functools import lru_cache

import numpy as np
import pytest

import einflag.einstein
import screen_oracle
from conftest import FLAGS, PAIR_FLAGS, expand_matrix
from einflag.einstein import (
    _ambient_candidates,
    _witness_maps,
    _witness_tangent_maps,
    equivalence_screen,
    solve,
)
from einflag.flag import parse_flag_spec
from einflag.invariant import metric_space

# the flags of ranks 7-10 with an equivalent pair
RANK_7_TO_10 = [text for text in PAIR_FLAGS if int(text.split(":")[1]) >= 7]


def groups(solset_groups):
    return sorted((g.indices, g.tag) for g in solset_groups)


def span_gap(space, W):
    """Largest relative distance of ``W^T P_k W`` from the operator span,
    over the operators ``P_k``, each projected and rebuilt on its own."""
    worst = 0.0
    for op in space.operators:
        pulled = W.T @ op @ W
        coeffs = [np.sum(pulled * P) / np.sum(P * P) for P in space.operators]
        rebuilt = sum(c * P for c, P in zip(coeffs, space.operators))
        worst = max(worst, np.max(np.abs(rebuilt - pulled)) / (1 + np.max(np.abs(pulled))))
    return worst


@pytest.mark.parametrize("text", FLAGS + RANK_7_TO_10)
def test_batched_witnesses_equal_the_per_candidate_route(text):
    spec = parse_flag_spec(text)
    space = metric_space(spec)
    candidates = _ambient_candidates(spec)
    old = screen_oracle.ambient_candidates(spec)
    N = spec.algebra.ambient_dim
    assert candidates.shape == (len(old), N, N)
    assert all(np.array_equal(a, b) for a, b in zip(candidates, old))
    # the tangent maps, bit for bit and in the same order
    batched = _witness_tangent_maps(space, candidates)
    oracle = screen_oracle.witness_maps(spec, old)
    assert len(batched) == len(oracle)
    assert all(np.array_equal(a, b) for a, b in zip(batched, oracle))
    # every kept witness maps each operator into the span, so none is dropped
    maps = _witness_maps(spec)
    assert maps.shape == (len(batched), space.dim, space.dim)
    for W in batched:
        assert span_gap(space, W) <= 1e-12
    # the groups, through the screen and through the oracle
    sols = solve(spec).solutions
    want = screen_oracle.oracle_screen(spec, sols, old)
    assert groups(equivalence_screen(spec, sols)) == want
    assert groups(solve(spec).groups) == want


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:8:[3,3,3]:-"])
def test_a_coefficient_map_pulls_back_as_the_metric_matrix_does(text):
    spec = parse_flag_spec(text)
    space = metric_space(spec)
    rng = np.random.default_rng(4)
    maps = _witness_maps(spec)
    assert len(maps)
    for W, L in zip(_witness_tangent_maps(space, _ambient_candidates(spec)), maps):
        c = rng.uniform(0.5, 2.0, space.dim)
        Ap = W.T @ space.metric_matrix(c) @ W
        assert np.max(np.abs(space.metric_matrix(L @ c) - Ap)) <= 1e-13


def test_witness_maps_are_read_only():
    maps = _witness_maps(parse_flag_spec("D:5:[4,1]:-"))
    assert len(maps) and not maps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        maps[0, 0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        maps[-1] *= 2.0


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:3:[2,1,1]:-"])
def test_a_repeated_candidate_yields_no_second_witness(text):
    # -O conjugates as O does, so its map is dropped as a repeat
    spec = parse_flag_spec(text)
    space = metric_space(spec)
    real = _ambient_candidates(spec)
    once = _witness_tangent_maps(space, real)
    again = _witness_tangent_maps(space, np.concatenate([real, -real[::-1], real]))
    assert np.array_equal(again, once)


def test_a_cycle_of_blocks_conjugates_as_its_matrix_does():
    # every listed candidate is an involution; a 3-cycle of the blocks is
    # not, so its conjugation tells the permutation from its inverse
    spec = parse_flag_spec("A:8:[3,3,3]:-")
    space = metric_space(spec)
    real = _ambient_candidates(spec)
    cycle = np.eye(real.shape[1])[np.r_[3:9, 0:3]]
    cycle[0] *= -1.0
    cands = np.concatenate([real, cycle[None], cycle.T[None]])
    batched = _witness_tangent_maps(space, cands)
    oracle = screen_oracle.witness_maps(spec, cands)
    assert len(batched) == len(oracle) == len(_witness_tangent_maps(space, real)) + 2
    assert all(np.array_equal(a, b) for a, b in zip(batched, oracle))


def patched_witnesses(monkeypatch, name, value):
    """Replace ``einflag.einstein.<name>`` by ``value`` and the witness memo
    by an empty one, for one test; returns that memo."""
    monkeypatch.setattr(einflag.einstein, name, value)
    fresh = lru_cache(maxsize=None)(_witness_maps.__wrapped__)
    monkeypatch.setattr(einflag.einstein, "_witness_maps", fresh)
    return fresh


@pytest.mark.parametrize(
    "text, swaps, flip",
    [
        # ambient coordinates of two different blocks of the partition,
        # exchanged in both halves on the D family
        ("D:5:[4,1]:-", [(3, 4), (8, 9)], [3, 8]),
        ("A:3:[2,1,1]:-", [(1, 2)], [1]),
        ("A:8:[3,3,3]:-", [(2, 3)], [2]),
    ],
)
def test_a_candidate_that_does_not_normalize_yields_no_witness(
    monkeypatch, text, swaps, flip
):
    spec = parse_flag_spec(text)
    space = metric_space(spec)
    solset = solve(spec)
    want = _witness_maps(spec)
    real = _ambient_candidates(spec)
    # a signed permutation exchanging the coordinates: it conjugates the
    # algebra into itself, but moves the tangent space
    bad = np.eye(real.shape[1])
    for i, j in swaps:
        bad[[i, j]] = bad[[j, i]]
    bad[flip] *= -1.0
    X = spec.algebra.ambient_matrices(space.basis)
    _, residual = expand_matrix(spec.algebra, bad @ X @ bad.T)
    assert np.max(residual) == 0.0
    extended = np.concatenate([real, bad[None]])
    assert np.array_equal(
        _witness_tangent_maps(space, extended), _witness_tangent_maps(space, real)
    )
    fresh = patched_witnesses(monkeypatch, "_ambient_candidates", lambda s: extended)
    assert np.array_equal(fresh(spec), want)
    assert groups(equivalence_screen(spec, solset.solutions)) == groups(solset.groups)
    assert fresh.cache_info().hits == 1  # the screen read the patched maps


def test_a_witness_that_leaves_the_operator_span_is_dropped(monkeypatch):
    # a tangent isometry exchanging basis vectors of two different summands
    # takes their projectors off the span of the operators
    spec = parse_flag_spec("D:5:[4,1]:-")
    space = metric_space(spec)
    solset = solve(spec)
    want = _witness_maps(spec)
    real = _witness_tangent_maps(space, _ambient_candidates(spec))
    a, b = space.slices[0].start, space.slices[1].start
    swap = np.eye(space.tangent_dim)
    swap[[a, b]] = swap[[b, a]]
    assert span_gap(space, swap) > 0.1
    extended = np.concatenate([real[:3], swap[None], real[3:]])
    fresh = patched_witnesses(monkeypatch, "_witness_tangent_maps", lambda sp, c: extended)
    assert np.array_equal(fresh(spec), want)
    assert groups(equivalence_screen(spec, solset.solutions)) == groups(solset.groups)
    assert fresh.cache_info().hits == 1  # the screen read the patched maps
