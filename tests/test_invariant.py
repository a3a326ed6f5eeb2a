import numpy as np
import pytest

from einflag.errors import NotPositiveDefinite, UnimplementedCase
from einflag.flag import decompose_isotropy, enumerate_small_flags, parse_flag_spec
from einflag.invariant import (
    component_sign_actions,
    make_metric,
    metric_space,
    orthonormal_frame,
)


def space(text):
    return metric_space(parse_flag_spec(text))


DIMS = [
    ("A:3:[2,1,1]:-", 4, ["mu_0", "mu_1", "mu_2", "b"]),
    ("A:3:[1,2,1]:-", 4, ["mu_0", "mu_1", "mu_2", "b"]),
    ("A:3:[2,2]:-", 2, ["mu_1", "mu_2"]),
    ("A:5:[2,2,2]:-", 3, ["mu_21", "mu_31", "mu_32"]),
    ("A:3:[1,1,1,1]:-", 9, None),
    ("B:5:[5]:-", 2, ["mu", "gamma"]),
    ("B:4:[4]:-", 3, ["mu", "gamma_1", "gamma_2"]),
    ("B:5:[1,4]:+", 2, ["rho", "mu"]),
    ("B:5:[2,3]:+", 3, ["gamma", "rho", "mu"]),
    ("C:3:[3]:-", 2, ["mu_0", "mu_1"]),
    ("C:5:[1,4]:+", 2, ["mu_0", "mu_21"]),
    ("C:5:[2,3]:+", 3, ["mu_0", "mu_1", "mu_21"]),
    ("D:5:[4,1]:-", 4, ["gamma", "lambda_1", "lambda_2", "b"]),
    ("D:4:[3,1]:-", 4, ["gamma", "lambda_1", "lambda_2", "b"]),
    ("D:4:[1,2,1]:+", 4, ["gamma", "lambda_1", "lambda_2", "b"]),
    ("D:4:[4]:-", 2, ["mu_1", "mu_2"]),
    ("D:4:[3,1]:+", 2, ["mu_1", "mu_2"]),
    ("D:5:[2,3]:+", 3, ["x0", "x1", "x2"]),
]


class TestMetricSpace:
    @pytest.mark.parametrize("text,dim,names", DIMS)
    def test_dimension_and_names(self, text, dim, names):
        sp = space(text)
        assert sp.dim == dim
        if names is not None:
            assert sp.names == names
        assert sp.dim == sp.n_sub + len(sp.pairs)

    def test_one_two_block_matrix(self):
        # basis order (w43 | w31, w32 | w42, w41); the intertwiner sends
        # w31 -> w42 and w32 -> -w41
        sp = space("A:3:[2,1,1]:-")
        A = sp.metric_matrix([2.0, 3.0, 5.0, 0.5])
        expect = np.array(
            [
                [2.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 3.0, 0.0, 0.5, 0.0],
                [0.0, 0.0, 3.0, 0.0, -0.5],
                [0.0, 0.5, 0.0, 5.0, 0.0],
                [0.0, 0.0, -0.5, 0.0, 5.0],
            ]
        )
        assert np.allclose(A, expect, atol=1e-12)

    def test_pair_intertwiner_two_factor(self):
        sp = space("D:4:[3,1]:-")
        (i, j, B0) = sp.pairs[0]
        assert (i, j) == (1, 2)
        assert np.allclose(np.abs(B0), np.eye(3), atol=1e-10)

    def test_full_flag_nine_parameters(self):
        sp = space("A:3:[1,1,1,1]:-")
        assert sp.dim == 9
        assert [(i, j) for i, j, _ in sp.pairs] == [(0, 5), (1, 4), (2, 3)]
        for _, _, B0 in sp.pairs:
            assert np.allclose(np.abs(B0), [[1.0]])

    def test_central_pair_constructs(self):
        # two one-dimensional trivial summands may mix freely
        sp = space("C:3:[1,2]:-")
        assert sp.dim == 7

    def test_three_member_class_unimplemented(self):
        with pytest.raises(UnimplementedCase):
            space("C:5:[1,1,3]:-")

    @pytest.mark.parametrize(
        "family,rank",
        [
            ("A", 3), ("A", 4), ("A", 5),
            ("B", 3), ("B", 4), ("B", 5), ("B", 6),
            ("C", 3), ("C", 4), ("C", 5),
            ("D", 4), ("D", 5), ("D", 6),
        ],
    )
    def test_all_enumerated_flags_build(self, family, rank):
        for spec in enumerate_small_flags(family, rank):
            sp = metric_space(spec)
            assert sp.dim == sp.n_sub + len(sp.pairs)

    def test_structure_antisymmetry(self):
        # B:4:[2,2]:+ has tangent basis vectors that are not coordinate
        # vectors, so t[a, b] and t[b, a] round differently before they
        # are averaged.
        for text in ("B:5:[1,4]:+", "B:4:[2,2]:+"):
            t = space(text).structure
            assert np.array_equal(t, -np.transpose(t, (1, 0, 2)))

    def test_killing_symmetric_negative(self):
        sp = space("B:5:[5]:-")
        K = sp.killing
        assert np.allclose(K, K.T, atol=1e-9)
        assert np.max(np.linalg.eigvalsh(K)) < 0


class TestSignActions:
    def test_triality_blocks_filter_singles(self):
        # single reflections swap the two 3-dimensional summands
        dec = decompose_isotropy(parse_flag_spec("B:4:[4]:-"))
        assert len(component_sign_actions(dec)) == 6
        dec = decompose_isotropy(parse_flag_spec("D:4:[4]:-"))
        assert len(component_sign_actions(dec)) == 6

    def test_basis_aligned_spans_keep_all(self):
        dec = decompose_isotropy(parse_flag_spec("D:4:[3,1]:-"))
        assert len(component_sign_actions(dec)) == 10  # 4 singles + 6 pairs


class TestMakeMetric:
    def test_rejects_indefinite(self):
        sp = space("A:3:[2,1,1]:-")
        with pytest.raises(NotPositiveDefinite) as err:
            make_metric(sp, [1.0, 1.0, 1.0, 2.0])
        assert err.value.min_eigenvalue < 0

    def test_accepts_definite(self):
        sp = space("A:3:[2,1,1]:-")
        m = make_metric(sp, [1.0, 1.0, 2.0, 0.5])
        assert np.all(np.linalg.eigvalsh(m.matrix) > 0)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            make_metric(space("B:5:[5]:-"), [1.0, 2.0, 3.0])


class TestFrame:
    def test_diagonal(self):
        sp = space("B:5:[5]:-")
        m = make_metric(sp, [2.0, 8.0])
        f = orthonormal_frame(m)
        assert np.allclose(f.vectors, np.diag([2 ** -0.5] * 5 + [8 ** -0.5] * 10))
        assert f.partners == []
        assert f.groups == [list(range(5)), list(range(5, 15))]
        assert np.allclose(f.eigenvalues, [2.0] * 5 + [8.0] * 10)

    def test_paired_eigenvectors(self):
        sp = space("A:3:[2,1,1]:-")
        mu0, mu1, mu2, b = 1.0, 1.0, 2.0, 0.3
        m = make_metric(sp, [mu0, mu1, mu2, b])
        f = orthonormal_frame(m)
        gap = np.hypot(2 * b, mu1 - mu2)
        x1 = (mu1 + mu2 - gap) / 2
        x2 = (mu1 + mu2 + gap) / 2
        assert np.allclose(sorted(set(np.round(f.eigenvalues, 12))), [x1, mu0, x2])
        # columns are eigenvectors of the metric operator
        for c in range(5):
            Av = m.matrix @ f.vectors[:, c]
            assert np.allclose(Av, f.eigenvalues[c] * f.vectors[:, c], atol=1e-12)
        assert f.partners == [(1, 3), (2, 4)]
        # mixing pattern: the first paired column couples w31 with w42 only
        col = f.vectors[:, 1]
        assert abs(col[0]) < 1e-14 and abs(col[2]) < 1e-14 and abs(col[4]) < 1e-14
        assert col[1] != 0 and col[3] != 0

    def test_orthonormality_random(self):
        rng = np.random.default_rng(7)
        for text in ["A:3:[2,1,1]:-", "D:5:[4,1]:-", "B:5:[2,3]:+", "C:5:[2,3]:+"]:
            sp = space(text)
            for _ in range(3):
                diag = rng.uniform(0.5, 3.0, sp.n_sub)
                extra = rng.uniform(-0.2, 0.2, sp.dim - sp.n_sub)
                m = make_metric(sp, np.concatenate([diag, extra]))
                f = orthonormal_frame(m)
                assert np.allclose(
                    f.vectors.T @ m.matrix @ f.vectors, np.eye(sp.tangent_dim), atol=1e-9
                )

    def test_zero_mixing_matches_diagonal(self):
        sp = space("D:4:[3,1]:-")
        m = make_metric(sp, [1.0, 2.0, 3.0, 0.0])
        f = orthonormal_frame(m)
        expect = np.diag([1.0] * 3 + [2 ** -0.5] * 3 + [3 ** -0.5] * 3)
        assert np.allclose(f.vectors, expect)
        assert np.allclose(f.eigenvalues, [1, 1, 1, 2, 2, 2, 3, 3, 3])
        assert len(f.partners) == 3
