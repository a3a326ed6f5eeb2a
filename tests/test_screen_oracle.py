"""The exact witness maps against the per-candidate float screen they replaced.

``equivalence_screen`` pulls solutions back through coefficient maps that
:func:`einflag.einstein._witness_maps` builds once per flag, exactly: each
ambient candidate acts on the algebra basis as a signed permutation
(:func:`einflag.einstein._basis_action`), and each map is a small integer
array.  :mod:`screen_oracle` keeps the float route: candidates built with
``np.block``, one tangent map per candidate, and one metric-matrix pull-back
per solution and witness.  The exact maps must equal, as a set, the
coefficient maps of the oracle's witnesses, and the two screens must group
alike.  Every way a candidate is dropped is fed to the exact route here,
as an ambient candidate or as a basis action in place of
``_basis_action``'s: off the algebra, two targets or two signs for one
element, a tangent index moved out, the identity on the tangent set, a
summand moved off the summands and a pair moved off the pairs.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

import einflag.einstein
import screen_oracle
from conftest import FLAGS, ambient_basis, ambient_matrices, expand_matrix
from einflag.einstein import (
    _ambient_candidates,
    _basis_action,
    _witness_maps,
    equivalence_screen,
    solve,
)
from einflag.errors import InvariantViolation
from einflag.flag import parse_flag_spec
from einflag.invariant import metric_space
from sweeps import as_set, dense_candidates, table_rows, witnesses

# the --max-l 10 flags with a candidate, those of families A and D, beyond FLAGS
MORE_WITH_CANDIDATES = [
    str(spec) for spec in table_rows(10) if spec.family in "AD" and str(spec) not in FLAGS
]


def groups(solset_groups):
    return sorted((g.indices, g.tag) for g in solset_groups)


def signed_permutation(O):
    """``(perm, sign)`` of a stack of signed permutation matrices."""
    perm = np.argmax(np.abs(O), axis=-1)
    return perm, np.take_along_axis(O, perm[..., None], axis=-1)[..., 0].astype(np.int64)


def swapped(N, swaps, flip):
    """The identity of size N with the rows of each pair in ``swaps``
    exchanged, and then the rows ``flip`` negated."""
    O = np.eye(N)
    for i, j in swaps:
        O[[i, j]] = O[[j, i]]
    O[flip] *= -1.0
    return O


def patched_witnesses(monkeypatch, name, value):
    """Replace ``einflag.einstein.<name>`` by ``value`` and the witness memo
    by an empty one, for one test; returns that memo."""
    monkeypatch.setattr(einflag.einstein, name, value)
    fresh = lru_cache(maxsize=None)(_witness_maps.__wrapped__)
    monkeypatch.setattr(einflag.einstein, "_witness_maps", fresh)
    return fresh


@pytest.mark.parametrize("text", FLAGS + MORE_WITH_CANDIDATES)
def test_batched_witnesses_equal_the_per_candidate_route(kept_memos, text):
    # the witness sweep that CI runs on ranks 11 to 25, on fresh memos
    witnesses([parse_flag_spec(text)])


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:8:[3,3,3]:-"])
def test_a_coefficient_map_pulls_back_as_the_metric_matrix_does(text):
    # each exact map is the pull-back of some oracle witness, and each
    # oracle witness pulls back as some exact map
    spec = parse_flag_spec(text)
    space = metric_space(spec)
    c = np.random.default_rng(4).uniform(0.5, 2.0, space.dim)
    A = space.metric_matrix(c)
    old = screen_oracle.witness_maps(spec, screen_oracle.ambient_candidates(spec))
    pulled = [W.T @ A @ W for W in old]
    exact = [space.metric_matrix(L @ c) for L in _witness_maps(spec)]
    assert len(exact) and len(pulled) >= len(exact)
    for got in exact:
        assert min(np.max(np.abs(got - want)) for want in pulled) <= 1e-13
    for want in pulled:
        assert min(np.max(np.abs(got - want)) for got in exact) <= 1e-13


def test_witness_maps_are_read_only():
    maps = _witness_maps(parse_flag_spec("D:5:[4,1]:-"))
    assert len(maps) and not maps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        maps[0, 0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        maps[-1] *= 2


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:3:[2,1,1]:-", "A:8:[3,3,3]:-", "D:8:[1,6,1]:+"])
def test_witness_maps_are_distinct_integer_signed_permutations(text):
    # one +-1 in each row and column, the diagonal coefficients permuted and
    # never negated, the mixing coefficients among themselves, no map twice
    spec = parse_flag_spec(text)
    s = metric_space(spec).n_sub
    maps = _witness_maps(spec)
    assert maps.dtype == np.int64 and len(maps)
    assert np.all(np.sum(np.abs(maps), axis=1) == 1)
    assert np.all(np.sum(np.abs(maps), axis=2) == 1)
    assert np.all(maps[:, :s, :s] >= 0)
    assert not np.any(maps[:, :s, s:]) and not np.any(maps[:, s:, :s])
    assert len(as_set(maps)) == len(maps)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:3:[2,1,1]:-"])
def test_a_repeated_candidate_yields_no_second_witness(monkeypatch, text):
    # -O conjugates as O does, so its map is dropped as a repeat
    spec = parse_flag_spec(text)
    want = _witness_maps(spec)
    perm, sign = _ambient_candidates(spec)
    again = (np.concatenate([perm, perm[::-1], perm]), np.concatenate([sign, -sign[::-1], sign]))
    fresh = patched_witnesses(monkeypatch, "_ambient_candidates", lambda s: again)
    assert np.array_equal(fresh(spec), want)


def test_a_cycle_of_blocks_conjugates_as_its_matrix_does(monkeypatch):
    # every listed candidate is an involution; a 3-cycle of the blocks is
    # not, so its conjugation tells the permutation from its inverse
    spec = parse_flag_spec("A:8:[3,3,3]:-")
    real = dense_candidates(*_ambient_candidates(spec))
    cycle = np.eye(real.shape[1])[np.r_[3:9, 0:3]]
    cycle[0] *= -1.0
    cands = np.concatenate([real, cycle[None], cycle.T[None]])
    fresh = patched_witnesses(monkeypatch, "_ambient_candidates", lambda s: signed_permutation(cands))
    maps = fresh(spec)
    assert as_set(maps) == as_set(screen_oracle.coefficient_maps(spec, cands))
    assert len(maps) == len(_witness_maps(spec)) + 2


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
    perm, sign = _ambient_candidates(spec)
    # a signed permutation exchanging the coordinates: it conjugates the
    # algebra into itself, but moves a tangent index out of the tangent set
    bad = swapped(perm.shape[1], swaps, flip)
    target, _, closed = _basis_action(spec.algebra, *signed_permutation(bad[None]))
    tangent = set(space.dec.tangent_indices)
    assert closed[0] and not set(target[0, list(tangent)].tolist()) <= tangent
    X = ambient_matrices(spec.algebra, space.basis)
    _, residual = expand_matrix(spec.algebra, bad @ X @ bad.T)
    assert np.max(residual) == 0.0
    assert screen_oracle.witness_maps(spec, [bad]) == ()
    extended = np.concatenate([dense_candidates(perm, sign), bad[None]])
    fresh = patched_witnesses(monkeypatch, "_ambient_candidates", lambda s: signed_permutation(extended))
    assert np.array_equal(fresh(spec), want)
    assert groups(equivalence_screen(spec, solset.solutions)) == groups(solset.groups)
    assert fresh.cache_info().hits == 1  # the screen read the patched maps


# D:5 has copy one's coordinates at 0-4 and copy two's at 5-9, C:3 at 0-2
# and 3-5
@pytest.mark.parametrize(
    "kind, text, swaps, flip",
    [
        # copy one's coordinate 1 with copy two's 2: w(2,1) lands on the
        # diagonal of the mixed block, which no D element holds
        ("off", "D:5:[4,1]:-", [(0, 6)], []),
        # coordinates 2 and 3 of copy two alone: C owns every position, and
        # w(3,1) lands on w(3,1) in copy one and on w(2,1) in copy two; no
        # permutation of D's coordinates splits an element so
        ("targets", "C:3:[3]:-", [(4, 5)], []),
        # coordinate 1 of copy one alone negated
        ("signs", "D:5:[4,1]:-", [], [0]),
    ],
)
def test_a_candidate_that_leaves_the_algebra_is_dropped(monkeypatch, kind, text, swaps, flip):
    spec = parse_flag_spec(text)
    model = spec.algebra
    want = _witness_maps(spec)
    bad = swapped(model.ambient_dim, swaps, flip)
    # the dense conjugates of the basis: where each entry lands, whose
    # position that is and the sign it has there
    conjugates = bad @ ambient_basis(model) @ bad.T
    k, r, c = np.nonzero(conjugates)
    pos = r * model.ambient_dim + c
    owner = model._owner[pos]
    ratio = conjugates[k, r, c] * model._owner_value[pos]
    targets = [set(owner[k == e].tolist()) for e in range(model.n)]
    signs = [set(ratio[k == e].tolist()) for e in range(model.n)]
    off = bool(np.any(owner < 0))
    split = not off and max(map(len, targets)) > 1
    signed = not off and not split and max(map(len, signs)) > 1
    assert (off, split, signed) == (kind == "off", kind == "targets", kind == "signs")
    _, _, closed = _basis_action(model, *signed_permutation(bad[None]))
    assert not closed[0]
    assert screen_oracle.witness_maps(spec, [bad]) == ()
    extended = np.concatenate([dense_candidates(*_ambient_candidates(spec)), bad[None]])
    fresh = patched_witnesses(monkeypatch, "_ambient_candidates", lambda s: signed_permutation(extended))
    assert np.array_equal(fresh(spec), want)


def test_the_identity_on_the_tangent_set_yields_no_witness(monkeypatch):
    # the identity and -I act on the basis as the identity; the listed
    # candidates start with the identity, and leaving it out changes nothing
    spec = parse_flag_spec("D:5:[4,1]:-")
    model = spec.algebra
    perm, sign = _ambient_candidates(spec)
    assert np.array_equal(dense_candidates(perm[:1], sign[:1])[0], np.eye(model.ambient_dim))
    ident = (np.stack([perm[0], perm[0]]), np.stack([sign[0], -sign[0]]))
    target, value, closed = _basis_action(model, *ident)
    assert np.all(closed) and np.all(target == np.arange(model.n)) and np.all(value == 1)
    want = _witness_maps(spec)
    fresh = patched_witnesses(monkeypatch, "_ambient_candidates", lambda s: ident)
    assert fresh(spec).shape == (0, 4, 4)
    fresh = patched_witnesses(monkeypatch, "_ambient_candidates", lambda s: (perm[1:], sign[1:]))
    assert np.array_equal(fresh(spec), want)


def basis_swap(model, a, b):
    """A closed basis action that exchanges the elements ``a[x]`` and
    ``b[x]`` for each x and fixes every other one, as ``_basis_action`` gives it."""
    target = np.arange(model.n)
    target[a], target[b] = b, a
    return target[None], np.ones((1, model.n), dtype=np.int64), np.array([True])


def summand_elements(space, u):
    """The basis elements of summand u's span, one per row where each row
    holds one."""
    span = space.dec.submodules[u].span
    assert np.all(np.sum(span != 0, axis=1) == 1)
    return np.argmax(span != 0, axis=1)


def test_a_basis_action_that_moves_a_tangent_index_out_is_dropped(monkeypatch):
    # exchanging an isotropy element with one tangent element of U1 leaves
    # U1's other rows in place and the moved row meeting no summand, so only
    # the tangent test can drop it
    spec = parse_flag_spec("D:5:[4,1]:-")
    space = metric_space(spec)
    a = summand_elements(space, 0)[:1]
    swap = basis_swap(spec.algebra, a, np.array(space.dec.isotropy_indices[:1]))
    fresh = patched_witnesses(monkeypatch, "_basis_action", lambda *args: swap)
    assert fresh(spec).shape == (0, space.dim, space.dim)


def test_a_witness_that_leaves_the_operator_span_is_dropped(monkeypatch):
    # a basis action exchanging one tangent element of W21 with one of W31:
    # it keeps the tangent set and is not the identity, but it takes both
    # summands off the summands, so their projectors off the operator span.
    # A:8:[3,3,3]:- has no pair, so the span test alone drops it
    spec = parse_flag_spec("A:8:[3,3,3]:-")
    space = metric_space(spec)
    assert not space.pairs
    solset = solve(spec)
    want = _witness_maps(spec)
    a, b = summand_elements(space, 0)[:1], summand_elements(space, 1)[:1]
    swap = basis_swap(spec.algebra, a, b)
    fresh = patched_witnesses(monkeypatch, "_basis_action", lambda *args: swap)
    assert fresh(spec).shape == (0, space.dim, space.dim)
    real = _basis_action

    def extended(*args):
        return tuple(np.concatenate([x[:3], y, x[3:]]) for x, y in zip(real(*args), swap))

    fresh = patched_witnesses(monkeypatch, "_basis_action", extended)
    assert np.array_equal(fresh(spec), want)
    assert groups(equivalence_screen(spec, solset.solutions)) == groups(solset.groups)
    assert fresh.cache_info().hits == 1  # the screen read the patched maps


def test_a_witness_that_moves_a_pair_off_the_pairs_is_dropped(monkeypatch):
    # D:4:[3,1]:- has three summands of dimension 3, U1, W21 and U21, and the
    # pair W21 ~ U21; exchanging U1 and W21 element by element maps every
    # summand onto one of equal dimension, but the pair onto U1 and U21
    spec = parse_flag_spec("D:4:[3,1]:-")
    space = metric_space(spec)
    assert space.dims.tolist() == [3, 3, 3]
    assert [(i, j) for i, j, _ in space.pairs] == [(1, 2)]
    swap = basis_swap(spec.algebra, summand_elements(space, 0), summand_elements(space, 1))
    fresh = patched_witnesses(monkeypatch, "_basis_action", lambda *args: swap)
    assert fresh(spec).shape == (0, 4, 4)
    # the same exchange of W21 with U21 keeps the pair, and is kept
    swap = basis_swap(spec.algebra, summand_elements(space, 1), summand_elements(space, 2))
    fresh = patched_witnesses(monkeypatch, "_basis_action", lambda *args: swap)
    assert fresh(spec).shape == (1, 4, 4)


def test_a_pair_trace_off_its_dimension_raises(monkeypatch):
    # Schur's lemma fixes the trace at +-d_i; an operator with one B0 entry
    # erased cannot meet it, and the guard raises instead of dropping
    spec = parse_flag_spec("D:5:[4,1]:-")
    space = metric_space(spec)
    (i, j, B0), s = space.pairs[0], space.n_sub
    r, c = np.argwhere(B0)[0]
    ops = space.operators.copy()
    ops[s, space.slices[j].start + r, space.slices[i].start + c] = 0.0
    ops[s, space.slices[i].start + c, space.slices[j].start + r] = 0.0
    broken = dataclasses.replace(space, operators=ops)
    monkeypatch.setattr(einflag.einstein, "metric_space", lambda spec: broken)
    with pytest.raises(InvariantViolation, match="pair"):
        _witness_maps.__wrapped__(spec)
