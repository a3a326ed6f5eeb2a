"""The Schur certificate on the simple-spectrum probe against the X^2 route.

:func:`einflag.invariant.metric_space` counts ``Sym End(m_i)`` and
``Hom(m_i, m_j)`` on the eigenspaces of ``P = XY + YX + Z``
(:mod:`einflag.schur`).
:mod:`schur_oracle` keeps the route it replaced, on the eigenspaces of
``X^2``.  Both are run on the same probes of every ``table1 --max-l 10``
flag and of four large ones: a rank-25 flag with two 60-dim summands, the
complex-type 312-dim summand of ``C:25:[12,13]:+``, a rank-18 flag and the
pair flag ``D:25:[24,1]:-``.
"""

import dataclasses
from collections import defaultdict

import numpy as np
import pytest

import schur_oracle
import sweeps
from einflag import invariant, schur
from einflag.errors import InvariantViolation
from einflag.flag import GeneratorTable, decompose_isotropy, parse_flag_spec, tangent_basis

LARGE = ["A:25:[20,3,3]:-", "C:25:[12,13]:+", "B:18:[9,9]:+", "D:25:[24,1]:-"]


def _groups():
    """The oracle flags by family and rank, so that each group shares its algebra."""
    groups = defaultdict(list)
    for spec in sweeps.table_rows(10):
        groups[f"{spec.family}:{spec.rank}"].append(str(spec))
    for text in LARGE:
        groups[text].append(text)
    return groups


GROUPS = _groups()


def test_the_oracle_flags_are_every_table1_flag_to_rank_10_and_four_large_ones():
    flags = [text for group in GROUPS.values() for text in group]
    assert len(flags) == 326 + 4


@pytest.mark.parametrize("group", list(GROUPS))
def test_certificate_equals_the_x2_oracle(cold_caches, group):
    # the Schur sweep that CI runs on ranks 11 to 16; each group runs on
    # fresh memos, which the sweep drops after each flag
    sweeps.schur_certificates(map(parse_flag_spec, GROUPS[group]))


def test_a_complex_type_summand_keeps_more_unknowns():
    # P's spectrum is doubled on the 312-dim summand of C:25:[12,13]:+, and
    # simple on every summand of the other large flags
    for text, degenerate in [
        ("C:25:[12,13]:+", {312}),
        ("A:25:[20,3,3]:-", set()),
        ("D:25:[24,1]:-", set()),
    ]:
        space = invariant.metric_space(parse_flag_spec(text))
        probes = schur._probes(space.reps, space.signs, space.tangent_dim)
        blocks = [schur._probe_block(probes[:, sl, sl]) for sl in space.slices]
        tol = 1e-8 * max(np.max(np.abs(block[0])) for block in blocks)
        for block in blocks:
            dim, unknowns = block[0].size, schur._block_hom(block, block, tol)[0].size
            assert unknowns == (2 * dim if dim in degenerate else dim), (text, dim, unknowns)


def _split(dec, u):
    """``dec`` with the isotropy action of summand u cut into two invariant
    halves: every entry that couples the first half of its rows with the
    second is dropped, on both sides, so each generator stays skew."""
    table = dec.isotropy_action
    sl = tangent_basis(dec)[1][u]
    half = sl.start + (sl.stop - sl.start) // 2
    first = (table.row >= sl.start) & (table.row < half)
    second = (table.row >= half) & (table.row < sl.stop)
    first_col = (table.col >= sl.start) & (table.col < half)
    second_col = (table.col >= half) & (table.col < sl.stop)
    cut = (first & second_col) | (second & first_col)
    assert cut.any()
    keep = ~cut
    wrong = dataclasses.replace(dec)
    wrong.isotropy_action = GeneratorTable(
        table.count, table.gen[keep], table.row[keep], table.col[keep], table.value[keep]
    )
    return wrong


@pytest.mark.parametrize(
    "text,u,message",
    [
        ("A:8:[3,3,3]:-", 0, "commutant has dimension 4"),
        ("A:25:[20,3,3]:-", 1, "commutant has dimension 4"),
    ],
)
def test_a_summand_split_by_its_generators_fails_the_certificate(monkeypatch, text, u, message):
    # the sign actions of these flags are diagonal in the tangent basis, so
    # both halves are invariant under every generator and probe: the
    # commutant gains the projector onto each half
    spec = parse_flag_spec(text)
    wrong = _split(decompose_isotropy(spec), u)
    monkeypatch.setattr(invariant, "decompose_isotropy", lambda _: wrong)
    with pytest.raises(InvariantViolation, match=message):
        invariant.metric_space.__wrapped__(spec)
    with pytest.raises(InvariantViolation, match=message):
        schur_oracle.metric_space(spec)
