import dataclasses
from collections import Counter

import numpy as np
import pytest
from fractions import Fraction

from conftest import FLAGS, summary, tangent_dim

from einflag.algebra import build_algebra
from einflag.errors import BadFlag, BadPartition, InvariantViolation, UnimplementedCase
from einflag.flag import (
    _RECORDS,
    Submodule,
    _check_reductive,
    _orthonormalize,
    _verify_decomposition,
    decompose_isotropy,
    enumerate_small_flags,
    make_flag,
    manifold_name,
    parse_flag_spec,
    split_reductive,
    theta,
)
from sweeps import table_rows


def flag(text):
    return parse_flag_spec(text)


# seven rank-25 flags of every family, with summands up to d = 390
RANK25 = [
    "A:25:[20,3,3]:-",
    "B:25:[25]:-",
    "B:25:[12,13]:+",
    "C:25:[25]:-",
    "C:25:[12,13]:+",
    "D:25:[1,23,1]:+",
    "D:25:[12,13]:+",
]


def gram_schmidt_loop(spec, rows):
    """Oracle of ``_orthonormalize``: every earlier vector projected out in turn."""
    model = spec.algebra
    scale = float(spec.inner_scale)
    out = []
    for v in rows:
        w = v.copy()
        for o in out:
            w -= scale * model.ambient_inner_coords(w, o) * o
        out.append(w / np.sqrt(scale * model.ambient_inner_coords(w, w)))
    return np.array(out)


class TestSpec:
    @pytest.mark.parametrize(
        "text",
        ["A:3:[2,1,1]:-", "B:5:[1,4]:+", "C:4:[4]:-", "D:4:[1,2,1]:+", "B:4:[4]:-"],
    )
    def test_roundtrip(self, text):
        assert str(flag(text)) == text

    def test_bad_partition_sum(self):
        with pytest.raises(BadPartition):
            flag("A:3:[2,2,1]:-")
        with pytest.raises(BadPartition):
            make_flag(build_algebra("B", 4), (1, 2))

    def test_bad_partition_part(self):
        with pytest.raises(BadPartition):
            make_flag(build_algebra("B", 4), (4, 0))
        with pytest.raises(BadPartition):
            make_flag(build_algebra("C", 3), ())

    def test_family_a_has_no_last_root_flag(self):
        with pytest.raises(BadFlag):
            make_flag(build_algebra("A", 3), (2, 1, 1), True)

    @pytest.mark.parametrize("text", ["A:3:(2,2):-", "E:3:[3]:-", "A:3:[2,2]:*", "junk"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            flag(text)

    def test_inner_scale(self):
        assert flag("A:3:[2,1,1]:-").inner_scale == Fraction(1, 4)
        assert flag("A:5:[2,2,2]:-").inner_scale == Fraction(1, 8)
        assert flag("A:3:[2,2]:-").inner_scale == Fraction(1)
        assert flag("B:5:[5]:-").inner_scale == Fraction(1)


class TestTheta:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("A:3:[2,1,1]:-", (1,)),
            ("A:3:[1,2,1]:-", (2,)),
            ("A:3:[1,1,2]:-", (3,)),
            ("A:3:[2,2]:-", (1, 3)),
            ("A:3:[1,1,1,1]:-", ()),
            ("B:5:[5]:-", (1, 2, 3, 4)),
            ("B:5:[1,4]:+", (2, 3, 4, 5)),
            ("C:4:[4]:-", (1, 2, 3)),
            ("D:5:[1,3,1]:+", (2, 3, 5)),
            ("D:4:[3,1]:+", (1, 2, 4)),
        ],
    )
    def test_examples(self, text, expect):
        assert theta(flag(text)) == expect


class TestSplitReductive:
    @pytest.mark.parametrize(
        "text,iso_dim,tan_dim",
        [
            ("A:3:[2,1,1]:-", 1, 5),
            ("A:3:[2,2]:-", 2, 4),
            ("A:3:[1,1,1,1]:-", 0, 6),
            ("B:3:[3]:-", 3, 6),
            ("B:5:[1,4]:+", 16, 9),
            ("B:5:[2,3]:+", 10, 15),
            ("C:3:[3]:-", 3, 6),
            ("C:5:[2,3]:+", 10, 15),
            ("D:4:[3,1]:-", 3, 9),
            ("D:4:[4]:-", 6, 6),
            ("D:5:[1,3,1]:+", 6, 14),
            ("D:6:[2,4]:+", 13, 17),
        ],
    )
    def test_dimensions(self, text, iso_dim, tan_dim):
        iso, tan = split_reductive(flag(text))
        assert (len(iso), len(tan)) == (iso_dim, tan_dim)

    def test_full_flag_tangent_labels(self):
        spec = flag("D:4:[4]:-")
        iso, tan = split_reductive(spec)
        labels = {spec.algebra.basis[i].label for i in tan}
        assert labels == {f"u({i},{j})" for i in range(2, 5) for j in range(1, i)}
        assert all(spec.algebra.basis[i].label.startswith("w") for i in iso)

    def test_isotropy_mixes_w_and_u(self):
        # Theta containing the last root pulls sum-type roots into the isotropy
        spec = flag("D:5:[1,3,1]:+")
        iso, _ = split_reductive(spec)
        labels = {spec.algebra.basis[i].label for i in iso}
        assert labels == {"w(3,2)", "w(4,2)", "w(4,3)", "u(5,2)", "u(5,3)", "u(5,4)"}

    @pytest.mark.parametrize(
        "move,message",
        [
            ("tangent-to-isotropy", r"\[w\(3,2\), w\(3,1\)\] leaves the tangent space"),
            ("drop-isotropy", "isotropy set is not a subalgebra"),
        ],
        ids=["tangent-to-isotropy", "drop-isotropy"],
    )
    def test_check_reductive_rejects_bad_split(self, move, message):
        spec = flag("D:5:[1,3,1]:+")
        iso, tan = split_reductive(spec)
        if move == "tangent-to-isotropy":
            iso, tan = iso + tan[:1], tan[1:]
        else:
            iso = iso[1:]
        with pytest.raises(InvariantViolation, match=message):
            _check_reductive(spec.algebra, iso, tan)


DECOMPOSITIONS = [
    ("A:3:[2,1,1]:-", ["M32", "M21", "M31"], [1, 2, 2], [(1, 2)]),
    ("A:3:[1,2,1]:-", ["M31", "M21", "M32"], [1, 2, 2], [(1, 2)]),
    ("A:3:[1,1,2]:-", ["M21", "M31", "M32"], [1, 2, 2], [(1, 2)]),
    ("A:3:[2,2]:-", ["M1", "M2"], [2, 2], []),
    (
        "A:3:[1,1,1,1]:-",
        ["M21", "M31", "M32", "M41", "M42", "M43"],
        [1, 1, 1, 1, 1, 1],
        [(0, 5), (1, 4), (2, 3)],
    ),
    ("A:5:[2,2,2]:-", ["M21", "M31", "M32"], [4, 4, 4], []),
    ("A:5:[4,1,1]:-", ["M21", "M31", "M32"], [4, 4, 1], []),
    ("B:5:[5]:-", ["V1", "U1"], [5, 10], []),
    ("B:4:[4]:-", ["V1", "T1", "T2"], [4, 3, 3], []),
    ("B:5:[1,4]:+", ["V1_1", "V1_2"], [4, 5], []),
    ("B:5:[2,3]:+", ["U1", "V1_1", "V1_2"], [1, 6, 8], []),
    ("B:6:[3,3]:+", ["U1", "V1_1", "V1_2"], [3, 9, 12], []),
    ("C:3:[3]:-", ["V1", "U1"], [1, 5], []),
    ("C:5:[1,4]:+", ["V1", "M21"], [1, 8], []),
    ("C:5:[2,3]:+", ["V1", "U1", "M21"], [1, 2, 12], []),
    ("C:3:[1,2]:-", ["V1", "V2", "U2", "W21", "U21"], [1, 1, 2, 2, 2], [(0, 1), (3, 4)]),
    ("D:5:[4,1]:-", ["U1", "W21", "U21"], [6, 4, 4], [(1, 2)]),
    ("D:5:[1,4]:-", ["U2", "W21", "U21"], [6, 4, 4], [(1, 2)]),
    ("D:5:[1,3,1]:+", ["V2", "M1", "N1"], [6, 4, 4], [(1, 2)]),
    ("D:4:[4]:-", ["T1", "S1"], [3, 3], []),
    ("D:4:[3,1]:+", ["T1", "S1"], [3, 3], []),
    ("D:4:[3,1]:-", ["U1", "W21", "U21"], [3, 3, 3], [(1, 2)]),
    ("D:4:[1,3]:-", ["U2", "W21", "U21"], [3, 3, 3], [(1, 2)]),
    ("D:4:[1,2,1]:+", ["V2", "M1", "N1"], [3, 3, 3], [(1, 2)]),
    ("D:5:[2,3]:+", ["U1", "M21_1", "M21_2"], [1, 6, 6], []),
    ("D:5:[1,4]:+", ["M21_1", "M21_2"], [4, 4], []),
]


class TestDecompose:
    @pytest.mark.parametrize("text,names,dims,equiv", DECOMPOSITIONS)
    def test_catalogue(self, text, names, dims, equiv):
        dec = decompose_isotropy(flag(text))
        assert [s.name for s in dec.submodules] == names
        assert [s.dim for s in dec.submodules] == dims
        assert dec.equiv_classes == equiv
        assert tangent_dim(dec) == len(dec.tangent_indices)

    @pytest.mark.parametrize("text", FLAGS + RANK25)
    def test_orthonormalize_matches_the_plain_loop(self, text):
        # the visits that _orthonormalize skips are exact zeros, so its
        # result is the plain loop's to the bit
        spec = flag(text)
        for s in decompose_isotropy(spec).submodules:
            got = _orthonormalize(spec, s.span)
            assert np.array_equal(got, gram_schmidt_loop(spec, s.span)), s.name
            assert np.array_equal(got, s.orthonormal), s.name

    def test_span_order_one_two_block(self):
        # the summand bases behind the four-coefficient metric family
        dec = decompose_isotropy(flag("A:3:[2,1,1]:-"))
        model = dec.spec.algebra

        def unit(label):
            v = np.zeros(model.n)
            v[model.label_index[label]] = 1.0
            return v

        assert np.array_equal(dec.submodules[0].span, [unit("w(4,3)")])
        assert np.array_equal(dec.submodules[1].span, [unit("w(3,1)"), unit("w(3,2)")])
        assert np.array_equal(dec.submodules[2].span, [unit("w(4,2)"), unit("w(4,1)")])

    def test_split_spans_so4(self):
        dec = decompose_isotropy(flag("A:3:[2,2]:-"))
        model = dec.spec.algebra
        idx = model.label_index
        m1, m2 = dec.submodules
        v = m1.span[0]
        assert v[idx["w(3,1)"]] == 1.0 and v[idx["w(4,2)"]] == -1.0
        v = m1.span[1]
        assert v[idx["w(4,1)"]] == 1.0 and v[idx["w(3,2)"]] == 1.0
        v = m2.span[0]
        assert v[idx["w(3,1)"]] == 1.0 and v[idx["w(4,2)"]] == 1.0

    def test_triality_spans_d4(self):
        dec = decompose_isotropy(flag("D:4:[4]:-"))
        model = dec.spec.algebra
        idx = model.label_index
        t1 = dec.submodules[0].span
        assert t1[0][idx["u(2,1)"]] == 1.0 and t1[0][idx["u(4,3)"]] == 1.0
        assert t1[1][idx["u(3,1)"]] == 1.0 and t1[1][idx["u(4,2)"]] == -1.0
        s1 = dec.submodules[1].span
        assert s1[0][idx["u(4,3)"]] == 1.0 and s1[0][idx["u(2,1)"]] == -1.0

    def test_mixed_spans_d4_plus(self):
        dec = decompose_isotropy(flag("D:4:[3,1]:+"))
        model = dec.spec.algebra
        idx = model.label_index
        t1 = dec.submodules[0].span
        assert t1[0][idx["u(2,1)"]] == 1.0 and t1[0][idx["w(4,3)"]] == 1.0
        assert t1[2][idx["w(4,1)"]] == 1.0 and t1[2][idx["u(3,2)"]] == 1.0

    def test_intermediate_spans_d4(self):
        dec = decompose_isotropy(flag("D:4:[1,2,1]:+"))

        def support(sub):
            model = dec.spec.algebra
            cols = np.nonzero(np.max(np.abs(sub.span), axis=0) > 0)[0]
            return {model.basis[i].label for i in cols}

        assert support(dec.submodules[0]) == {"u(3,2)", "w(4,2)", "w(4,3)"}
        assert support(dec.submodules[1]) == {"w(2,1)", "w(3,1)", "u(4,1)"}
        assert support(dec.submodules[2]) == {"u(2,1)", "u(3,1)", "w(4,1)"}

    def test_orthonormal_rows(self):
        for text in ["A:3:[2,1,1]:-", "B:5:[2,3]:+", "C:5:[2,3]:+", "D:5:[1,3,1]:+"]:
            spec = flag(text)
            dec = decompose_isotropy(spec)
            g = float(spec.inner_scale) * spec.algebra.gram
            for s in dec.submodules:
                G = (s.orthonormal * g) @ s.orthonormal.T
                assert np.allclose(G, np.eye(s.dim), atol=1e-12)

    def test_verify_rejects_non_invariant_summands(self):
        # coordinate halves of the two so(4) summands of A:3:[2,2]:- are
        # orthogonal and fill m, but ad(w(2,1)) moves w(3,1) to w(3,2)
        spec = flag("A:3:[2,2]:-")
        dec = decompose_isotropy(spec)
        model = spec.algebra
        subs = []
        for name, labels in (("P", ["w(3,1)", "w(4,1)"]), ("Q", ["w(3,2)", "w(4,2)"])):
            span = np.zeros((2, model.n))
            for r, label in enumerate(labels):
                span[r, model.label_index[label]] = 1.0
            subs.append(Submodule(name, span, _orthonormalize(spec, span)))
        wrong = dataclasses.replace(dec, submodules=subs)
        with pytest.raises(InvariantViolation, match="submodule P of .* is not ad-invariant"):
            _verify_decomposition(wrong)

    def test_summary_string(self):
        dec = decompose_isotropy(flag("D:5:[4,1]:-"))
        assert summary(dec) == "U1[6] + W21[4]~a + U21[4]~a"

    @pytest.mark.parametrize(
        "text",
        [
            "B:2:[2]:-",
            "B:3:[1,2]:-",
            "B:4:[2,2]:-",
            "B:4:[1,1,2]:+",
            "C:2:[2]:-",
            "C:4:[1,1,2]:+",
            "D:3:[2,1]:-",
            "D:4:[2,2]:+",
            "D:4:[2,1,1]:-",
            "D:4:[2,2]:-",
        ],
    )
    def test_outside_catalogue(self, text):
        with pytest.raises(UnimplementedCase):
            decompose_isotropy(flag(text))


class TestEnumerate:
    def test_a3(self):
        specs = enumerate_small_flags("A", 3)
        assert [str(s) for s in specs] == [
            "A:3:[2,1,1]:-",
            "A:3:[1,2,1]:-",
            "A:3:[1,1,2]:-",
            "A:3:[2,2]:-",
        ]

    def test_a5(self):
        specs = enumerate_small_flags("A", 5)
        assert len(specs) == 10
        assert all(len(s.partition) == 3 and sum(s.partition) == 6 for s in specs)

    def test_b5(self):
        assert [str(s) for s in enumerate_small_flags("B", 5)] == [
            "B:5:[5]:-",
            "B:5:[1,4]:+",
            "B:5:[2,3]:+",
            "B:5:[3,2]:+",
            "B:5:[4,1]:+",
        ]

    def test_d4(self):
        assert [str(s) for s in enumerate_small_flags("D", 4)] == [
            "D:4:[4]:-",
            "D:4:[3,1]:+",
            "D:4:[3,1]:-",
            "D:4:[1,3]:-",
            "D:4:[1,2,1]:+",
        ]

    def test_d5(self):
        assert [str(s) for s in enumerate_small_flags("D", 5)] == [
            "D:5:[4,1]:-",
            "D:5:[1,4]:-",
            "D:5:[1,3,1]:+",
            "D:5:[1,4]:+",
            "D:5:[2,3]:+",
            "D:5:[3,2]:+",
        ]

    @pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("D", 3)])
    def test_low_rank(self, family, rank):
        with pytest.raises(UnimplementedCase):
            enumerate_small_flags(family, rank)

    @pytest.mark.parametrize(
        "family,rank",
        [
            ("A", 3), ("A", 4), ("A", 5),
            ("B", 3), ("B", 4), ("B", 5), ("B", 6),
            ("C", 3), ("C", 4), ("C", 5),
            ("D", 4), ("D", 5), ("D", 6),
        ],
    )
    def test_all_enumerated_flags_decompose(self, family, rank):
        for spec in enumerate_small_flags(family, rank):
            dec = decompose_isotropy(spec)
            assert 2 <= len(dec.submodules) <= 3
            assert tangent_dim(dec) == len(dec.tangent_indices)


class TestNames:
    @pytest.mark.parametrize(
        "text,name",
        [
            ("A:3:[2,2]:-", "SO(4)/S(O(2)xO(2))"),
            ("A:3:[2,1,1]:-", "SO(4)/S(O(2)xO(1)xO(1))"),
            ("B:5:[1,4]:+", "(SO(5)xSO(6))/(SO(4)xSO(5))"),
            ("B:5:[5]:-", "(SO(5)xSO(6))/SO(5)"),
            ("B:6:[2,4]:+", "(SO(6)xSO(7))/(SO(2)xSO(4)xSO(5))"),
            ("C:4:[4]:-", "U(4)/O(4)"),
            ("C:5:[2,3]:+", "U(5)/(O(2)xU(3))"),
            ("D:5:[4,1]:-", "(SO(5)xSO(5))/S(O(4)xO(1))"),
            ("D:5:[1,3,1]:+", "(SO(5)xSO(5))/S(O(4)xO(1))"),
            ("D:4:[4]:-", "(SO(4)xSO(4))/SO(4)"),
        ],
    )
    def test_examples(self, text, name):
        assert manifold_name(flag(text)) == name

    def test_spin_node_swap(self):
        # D:l:[l-1,1]:+ is D:l:[l]:- with the last two simple roots swapped
        assert manifold_name(flag("D:5:[5]:-")) == "(SO(5)xSO(5))/SO(5)"
        assert manifold_name(flag("D:5:[4,1]:+")) == "(SO(5)xSO(5))/SO(5)"
        assert flag("D:5:[4,1]:+").shape == flag("D:5:[5]:-").shape == "D-full"
        assert flag("D:4:[3,1]:+").shape == flag("D:4:[4]:-").shape == "D4-full"


SHAPES = {
    "A": {"A3-pair", "A3-split", "A3-irreducible", "A-three"},
    "B": {"B-full", "B4-full", "B-plus1", "B-plus"},
    "C": {"C-full", "C-plus1", "C-plus"},
    "D": {"D-full", "D4-full", "D-pair", "D-plus"},
}


class TestShape:
    @pytest.mark.parametrize(
        "text,shape",
        [
            ("A:3:[1,2,1]:-", "A3-pair"),
            ("A:3:[2,2]:-", "A3-split"),
            ("A:3:[3,1]:-", "A3-irreducible"),
            ("A:8:[3,3,3]:-", "A-three"),
            ("A:4:[3,2]:-", None),
            ("B:5:[5]:-", "B-full"),
            ("B:4:[4]:-", "B4-full"),
            ("B:5:[1,4]:+", "B-plus1"),
            ("B:5:[2,3]:+", "B-plus"),
            ("B:2:[2]:-", None),
            ("B:5:[2,3]:-", None),
            ("C:4:[4]:-", "C-full"),
            ("C:4:[1,3]:+", "C-plus1"),
            ("C:5:[3,2]:+", "C-plus"),
            ("C:5:[1,1,3]:-", None),
            ("D:5:[5]:-", "D-full"),
            ("D:4:[4]:-", "D4-full"),
            ("D:5:[4,1]:-", "D-pair"),
            ("D:5:[1,4]:-", "D-pair"),
            ("D:5:[1,3,1]:+", "D-pair"),
            ("D:5:[1,4]:+", "D-plus"),
            ("D:5:[3,2]:+", "D-plus"),
            ("D:4:[2,2]:+", None),
            ("D:3:[3]:-", None),
        ],
    )
    def test_examples(self, text, shape):
        assert flag(text).shape == shape

    def test_every_listed_flag_has_a_shape_and_a_name(self):
        # spec level only: no decomposition is built
        specs = table_rows(25)
        assert len(specs) == 3586
        for spec in specs:
            assert spec.shape in SHAPES[spec.family], str(spec)
            assert " flag " not in manifold_name(spec), str(spec)


# the listed flags of `table_rows(25)` per key
KEY_COUNTS = {
    "A-three": 2597, "A3-pair": 3, "A3-split": 1,
    "B-full": 22, "B4-full": 1, "B-plus1": 23, "B-plus": 276,
    "C-full": 23, "C-plus1": 23, "C-plus": 276,
    "D4-full": 2, "D-pair": 66, "D-plus": 273,
}


# the first rank of each family that is not refused
FIRST_RANK = {"A": 1, "B": 3, "C": 3, "D": 4}


class TestRecords:
    """The catalogue records, at spec level only: no decomposition is built."""

    @staticmethod
    def _flags(family, rank):
        # every (key, flag) of the family's records at one rank, listed or not
        return [
            (key, part, plus)
            for key, record in _RECORDS.items()
            if key[0] == family
            for part, plus in record.flags(rank)
        ]

    @pytest.mark.parametrize("family", "ABCD")
    def test_every_flag_of_a_record_has_its_key(self, family):
        for rank in range(FIRST_RANK[family], 26):
            algebra = build_algebra(family, rank)
            for key, part, plus in self._flags(family, rank):
                spec = make_flag(algebra, part, plus)
                assert spec.shape == key, str(spec)
                assert spec.record is _RECORDS[key], str(spec)

    @pytest.mark.parametrize("family", "ABCD")
    def test_no_flag_is_listed_twice(self, family):
        for rank in range(FIRST_RANK[family], 26):
            flags = [(part, plus) for _, part, plus in self._flags(family, rank)]
            assert len(flags) == len(set(flags)), (family, rank)

    def test_listed_flags_per_key(self):
        counts = Counter(spec.shape for spec in table_rows(25))
        assert counts == KEY_COUNTS
        assert sum(counts.values()) == 3586
        assert not {"A3-irreducible", "D-full"} & set(counts)

    def test_an_uncatalogued_a_flag_keeps_the_a_formulas(self):
        spec = flag("A:4:[2,3]:-")
        assert spec.shape is None
        assert manifold_name(spec) == "SO(5)/S(O(2)xO(3))"
        assert spec.record.dims(spec.rank, spec.partition) == {"M21": 6}
        assert spec.inner_scale == Fraction(1)


def _label_swap(model):
    """The spin-node swap as a column permutation, read from the labels alone:
    ``w(l,j)`` and ``u(l,j)`` trade places."""
    l = model.rank

    def swapped(label):
        if label[1:].startswith(f"({l},"):
            return {"w": "u", "u": "w"}[label[0]] + label[1:]
        return label

    return np.array([model.label_index[swapped(b.label)] for b in model.basis])


TWINS = [
    (f"D:{l}:[{l - 1},1]:+", f"D:{l}:[{l}]:-", ["T1", "S1"] if l == 4 else ["V1"])
    for l in range(4, 11)
] + [(f"D:{l}:[1,{l - 2},1]:+", f"D:{l}:[1,{l - 1}]:-", ["V2", "M1", "N1"]) for l in range(4, 11)]


@pytest.mark.parametrize("twin,representative,names", TWINS)
def test_a_twin_is_its_representative_under_the_spin_node_swap(twin, representative, names):
    spec, rep = flag(twin), flag(representative)
    assert spec.representative == rep and spec.shape == rep.shape
    dec, rep_dec = decompose_isotropy(spec), decompose_isotropy(rep)
    cols = _label_swap(spec.algebra)
    assert [s.name for s in dec.submodules] == names
    for s, r in zip(dec.submodules, rep_dec.submodules, strict=True):
        assert np.array_equal(s.span.view(np.int64), r.span[:, cols].view(np.int64)), (twin, s.name)
    assert dec.equiv_classes == rep_dec.equiv_classes
