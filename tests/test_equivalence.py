import numpy as np
import pytest

from einflag.einstein import solve


def group_of(solset, rule_id):
    idx = next(i for i, s in enumerate(solset.solutions) if s.rule_id == rule_id)
    return idx, next(g for g in solset.groups if idx in g.indices)


def test_two_branch_flag_constants_separate():
    st = solve("B:3:[3]:-")
    assert st.count == 2
    assert [g.tag for g in st.groups] == ["ProvenDistinct", "ProvenDistinct"]
    c0, c1 = (g.constant for g in st.groups)
    assert abs(c0 - c1) / max(abs(c0), abs(c1)) > 1e-3
    assert st.relation(0, 1) == "ProvenDistinct"


def test_five_solution_flag_splits_one_from_four():
    st = solve("A:3:[2,1,1]:-")
    _, g1 = group_of(st, "E1")
    assert g1.tag == "ProvenDistinct"
    assert len(g1.indices) == 1
    rest = {}
    for rule in ("E2", "E3", "E4", "E5"):
        idx, g = group_of(st, rule)
        rest[rule] = idx
        assert g.tag == "WitnessedEquivalent"
        assert len(g.indices) == 4
    i1, _ = group_of(st, "E1")
    assert st.relation(i1, rest["E2"]) == "ProvenDistinct"
    assert st.relation(rest["E2"], rest["E5"]) == "WitnessedEquivalent"


def test_corner_flag_families_stay_apart():
    st = solve("D:5:[4,1]:-")
    assert st.count == 6
    i1, g1 = group_of(st, "F1")
    i3, g3 = group_of(st, "F3")
    assert st.relation(i1, i3) == "ProvenDistinct"
    assert g1.tag == "WitnessedEquivalent" and len(g1.indices) == 2
    assert g3.tag == "WitnessedEquivalent" and len(g3.indices) == 4
    # the two families sit at well-separated normalized constants
    assert abs(g1.constant - g3.constant) > 1e-3


def test_three_block_flag_witnessed_cluster():
    st = solve("A:8:[3,3,3]:-")
    assert st.count == 4
    tags = sorted((len(g.indices), g.tag) for g in st.groups)
    assert tags == [(1, "ProvenDistinct"), (3, "WitnessedEquivalent")]


def test_groups_partition_solutions():
    for text in ("B:3:[3]:-", "A:3:[2,1,1]:-", "D:4:[3,1]:-"):
        st = solve(text)
        seen = sorted(i for g in st.groups for i in g.indices)
        assert seen == list(range(st.count))
        for g in st.groups:
            members = [st.solutions[i].normalized_constant for i in g.indices]
            assert np.allclose(members, g.constant, rtol=1e-7)


def test_relation_is_reflexive():
    st = solve("B:3:[3]:-")
    assert st.relation(0, 0) == "WitnessedEquivalent"
    assert st.relation(1, 1) == "WitnessedEquivalent"


@pytest.mark.parametrize("i, j", [(5, 5), (0, 5), (5, 0), (-1, 0), (2, 2)])
def test_relation_rejects_an_index_out_of_range(i, j):
    st = solve("B:3:[3]:-")
    assert st.count == 2
    with pytest.raises(IndexError, match="out of range"):
        st.relation(i, j)
