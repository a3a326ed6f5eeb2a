import dataclasses

import numpy as np
import pytest
from fractions import Fraction

from conftest import FLAGS

from einflag.algebra import build_algebra
from einflag.errors import BadFlag, BadPartition, InvariantViolation, UnimplementedCase
from einflag.flag import (
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
        assert dec.tangent_dim == len(dec.tangent_indices)

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
        assert dec.summary() == "U1[6] + W21[4]~a + U21[4]~a"

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
            assert dec.tangent_dim == len(dec.tangent_indices)


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
