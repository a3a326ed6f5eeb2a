import dataclasses

import numpy as np
import pytest

from einflag import invariant
from einflag.cli import _table_rows
from einflag.errors import InvariantViolation, NotPositiveDefinite, UnimplementedCase
from einflag.flag import Submodule, decompose_isotropy, enumerate_small_flags, parse_flag_spec
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


# every `table1 --max-l 6` flag by family and rank, plus A:25:[20,3,3]:-
# (d = 129), the one rank-25 flag built
BUILD_SETS = [
    ("A", 3), ("A", 4), ("A", 5),
    ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 3), ("C", 4), ("C", 5),
    ("D", 4), ("D", 5), ("D", 6),
    ("A", 2), ("A", 6), ("C", 6), ("A", 25),
]


def _merge_first_two(dec):
    first, second, *rest = dec.submodules
    merged = Submodule(
        first.name + second.name,
        np.vstack([first.span, second.span]),
        np.vstack([first.orthonormal, second.orthonormal]),
    )
    assert not dec.equiv_classes
    return dataclasses.replace(dec, submodules=[merged, *rest])


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
        assert np.array_equal(np.abs(B0), np.eye(3))

    def test_full_flag_nine_parameters(self):
        sp = space("A:3:[1,1,1,1]:-")
        assert sp.dim == 9
        assert [(i, j) for i, j, _ in sp.pairs] == [(0, 5), (1, 4), (2, 3)]
        for _, _, B0 in sp.pairs:
            assert np.array_equal(np.abs(B0), [[1.0]])

    def test_central_pair_constructs(self):
        # two one-dimensional trivial summands may mix freely
        sp = space("C:3:[1,2]:-")
        assert sp.dim == 7

    def test_three_member_class_unimplemented(self):
        with pytest.raises(UnimplementedCase):
            space("C:5:[1,1,3]:-")

    @pytest.mark.parametrize("family,rank", BUILD_SETS)
    def test_all_enumerated_flags_build(self, family, rank):
        if rank == 25:
            specs = [parse_flag_spec("A:25:[20,3,3]:-")]
        else:
            specs = enumerate_small_flags(family, rank)
        for spec in specs:
            sp = metric_space(spec)
            assert sp.dim == sp.n_sub + len(sp.pairs)
            # the probes are drawn from a fixed seed, so a cold rebuild
            # repeats the operators bit for bit
            cold = metric_space.__wrapped__(spec)
            assert len(cold.operators) == sp.dim
            for a, b in zip(sp.operators, cold.operators):
                assert np.array_equal(a, b)

    def test_build_sets_cover_table1(self):
        assert {(s.family, s.rank) for s in _table_rows(6)} <= set(BUILD_SETS)

    def test_structure_antisymmetry(self):
        # B:4:[2,2]:+ has tangent basis vectors that are not coordinate
        # vectors, so t[a, b] and t[b, a] round differently before they
        # are averaged.
        for text in ("B:5:[1,4]:+", "B:4:[2,2]:+"):
            t = space(text).structure
            assert np.array_equal(t, -np.transpose(t, (1, 0, 2)))

    @pytest.mark.parametrize(
        "text", ["B:4:[2,2]:+", "C:5:[1,4]:+", "D:5:[4,1]:-", "A:3:[1,1,1,1]:-"]
    )
    def test_structure_gather_matches_ad_products(self, text):
        # the gather from structure_index against the dense per-row product
        # g0([x_a, x_b], x_c) = (B ad(x_a) (B g0)^T)[b, c]
        sp = space(text)
        model = sp.spec.algebra
        Bw = sp.basis * (float(sp.spec.inner_scale) * model.gram)
        ref = np.array([(sp.basis @ model.ad(x)) @ Bw.T for x in sp.basis])
        assert np.max(np.abs(sp.structure - ref)) <= 1e-15
        I, J, K, V = sp.structure_coo
        assert len(I) == np.count_nonzero(sp.structure)
        assert np.array_equal(sp.structure[I, J, K], V)

    def test_pair_intertwiners_are_signed_permutations(self):
        # every B0 is stored exactly, so the canonical frame keeps its zeros
        pairs = [B0 for spec in _table_rows(6) for _, _, B0 in space(str(spec)).pairs]
        assert pairs
        for B0 in pairs:
            assert set(np.unique(B0)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(np.abs(B0).sum(axis=0), np.ones(len(B0)))
            assert np.array_equal(np.abs(B0).sum(axis=1), np.ones(len(B0)))

    def test_killing_symmetric_negative(self):
        sp = space("B:5:[5]:-")
        K = sp.killing
        assert np.allclose(K, K.T, atol=1e-9)
        assert np.max(np.linalg.eigvalsh(K)) < 0


class TestCertificateFailures:
    """Each wrong decomposition is rejected by the block certificate.

    The mutated decomposition goes straight to the unmemoised builder, so the
    shared memo never sees it.
    """

    @pytest.mark.parametrize(
        "text,mutate,message",
        [
            (
                "A:3:[2,1,1]:-",
                lambda dec: dataclasses.replace(dec, equiv_classes=[]),
                "equivalent but not declared so",
            ),
            (
                "B:4:[4]:-",
                lambda dec: dataclasses.replace(dec, equiv_classes=[(1, 2)]),
                "intertwiner multiplicity 0",
            ),
            ("B:5:[5]:-", _merge_first_two, "commutant has dimension 2"),
            ("A:25:[20,3,3]:-", _merge_first_two, "commutant has dimension 3"),
        ],
        ids=["undeclared-pair", "false-pair", "merged-B5", "merged-A25"],
    )
    def test_wrong_decomposition_raises(self, monkeypatch, text, mutate, message):
        spec = parse_flag_spec(text)
        wrong = mutate(decompose_isotropy(spec))
        monkeypatch.setattr(invariant, "decompose_isotropy", lambda _: wrong)
        with pytest.raises(InvariantViolation, match=message):
            metric_space.__wrapped__(spec)

    @pytest.mark.parametrize("text", ["A:3:[2,1,1]:-", "D:5:[4,1]:-", "B:4:[4]:-"])
    def test_commutation_residual_matches_dense_products(self, text):
        sp = space(text)
        dense = max(
            float(np.max(np.abs(G @ A - A @ G)))
            for A in sp.operators
            for G in sp.reps + sp.signs
        )
        masked = invariant.commutation_residual(sp)
        assert masked <= 1e-10
        assert abs(masked - dense) <= 1e-14

    @pytest.mark.parametrize("text", ["A:3:[2,1,1]:-", "D:5:[4,1]:-"])
    def test_commutation_residual_sees_broken_generators(self, text):
        # one generator leaking between two summands, one that acts on the
        # second summand of a pair differently from the first
        sp = space(text)
        i, j, _ = sp.pairs[0]
        G = sp.reps[0]
        leak = G.copy()
        leak[sp.slices[i].start, sp.slices[j].start] += 1e-6
        twist = G.copy()
        size = sp.slices[j].stop - sp.slices[j].start
        twist[sp.slices[j], sp.slices[j]] += 1e-6 * np.eye(size)
        for bad in (leak, twist):
            broken = dataclasses.replace(sp, reps=[bad], signs=[])
            assert invariant.commutation_residual(broken) > 1e-7

    def test_structure_trace_raises(self, monkeypatch):
        # the Ricci formula leaves out the trace vector, so a tangent
        # structure tensor with t[k,i,i] != 0 must not get past its build
        sp = space("B:3:[3]:-")
        d = sp.tangent_dim
        transform = invariant._coo_transform

        def traced(coo, maps, dim):
            a, b, c, v = transform(coo, maps, dim)
            return np.r_[a, d - 1], np.r_[b, 0], np.r_[c, 0], np.r_[v, 0.25]

        monkeypatch.setattr(invariant, "_coo_transform", traced)
        fresh = dataclasses.replace(sp, _structure=None, _structure_coo=None)
        with pytest.raises(InvariantViolation, match="nonzero trace"):
            fresh.structure_coo
        # antisymmetrizing halves the injected entry
        assert fresh._structure_trace == 0.125


class TestSignActions:
    def test_triality_blocks_filter_singles(self):
        # single reflections swap the two 3-dimensional summands
        dec = decompose_isotropy(parse_flag_spec("B:4:[4]:-"))
        assert len(component_sign_actions(dec)) == 6
        dec = decompose_isotropy(parse_flag_spec("D:4:[4]:-"))
        assert len(component_sign_actions(dec)) == 6

    @pytest.mark.parametrize(
        "text", ["A:5:[2,2,2]:-", "B:4:[4]:-", "C:5:[2,3]:+", "D:5:[4,1]:-", "A:25:[20,3,3]:-"]
    )
    def test_basis_signs_match_root_parity_loop(self, text):
        spec = parse_flag_spec(text)
        model = spec.algebra
        cands = invariant._position_sign_sets(spec)
        for flipped, row in zip(cands, invariant._basis_signs(model, cands)):
            ref = [
                (-1) ** sum(c % 2 for pos, c in enumerate(e.root, start=1) if pos in flipped)
                for e in model.basis
            ]
            assert np.array_equal(row, ref)

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
        assert np.array_equal(m.spectrum, invariant.metric_eigenvalues(sp, m.coeffs))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            make_metric(space("B:5:[5]:-"), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        sp = space("A:3:[2,1,1]:-")
        for slot in range(sp.dim):
            c = np.array([1.0, 1.0, 2.0, 0.5])
            c[slot] = bad
            with pytest.raises(ValueError, match="not finite"):
                make_metric(sp, c)


def _spectrum_flags():
    return [str(s) for s in _table_rows(6)] + ["A:25:[20,3,3]:-"]


class TestMetricEigenvalues:
    """The one coefficient spectrum against the dense spectrum of A."""

    @staticmethod
    def _assert_spectrum(sp, stack):
        dims = [s.stop - s.start for s in sp.slices]
        lam = invariant.metric_eigenvalues(sp, stack)
        assert lam.shape == stack.shape[:-1] + (sp.n_sub,)
        for c, row in zip(stack.reshape(-1, sp.dim), lam.reshape(-1, sp.n_sub)):
            want = np.linalg.eigvalsh(sp.metric_matrix(c))
            assert np.allclose(np.sort(np.repeat(row, dims)), want, rtol=0, atol=1e-12)
            # the frame's column convention: xi1 <= xi2 on a mixed pair,
            # x_i and x_j as given on an unmixed one
            for k, (i, j, _) in enumerate(sp.pairs):
                if abs(c[sp.n_sub + k]) < 1e-14:
                    assert (row[i], row[j]) == (c[i], c[j])
                else:
                    assert row[i] <= row[j]
        return lam

    @pytest.mark.parametrize("text", _spectrum_flags())
    def test_matches_metric_matrix(self, text):
        # indefinite coefficients included: the positive-definiteness rule
        # reads these eigenvalues
        sp = space(text)
        rng = np.random.default_rng(3)
        self._assert_spectrum(sp, rng.uniform(-1.0, 2.0, (2, 4, sp.dim)))

    def test_mixing_edges(self):
        # mixing near +-sqrt(x_i x_j), where xi1 is small and the product
        # form matters, and below the 1e-14 cut, where the pair is unmixed
        spaces = [space(t) for t in _spectrum_flags() if space(t).pairs]
        assert spaces
        for sp in spaces:
            self._check_mixing_edges(sp)

    def _check_mixing_edges(self, sp):
        rng = np.random.default_rng(5)
        rows = []
        for f in (1 - 1e-9, -(1 - 1e-9), 1e-15, -1e-15, 0.0):
            c = np.r_[rng.uniform(0.5, 2.0, sp.n_sub), np.zeros(sp.dim - sp.n_sub)]
            for k, (i, j, _) in enumerate(sp.pairs):
                c[sp.n_sub + k] = f * np.sqrt(c[i] * c[j])
            rows.append(c)
        lam = self._assert_spectrum(sp, np.array(rows))
        tiny = lam[:2].min(axis=-1)
        assert np.all(tiny > 0) and np.all(tiny < 1e-8)
        c = rows[0]
        for k, (i, j, _) in enumerate(sp.pairs):
            b = c[sp.n_sub + k]
            assert np.isclose(lam[0, i], (c[i] * c[j] - b * b) / lam[0, j], rtol=1e-14)

    def test_positive_spectrum_names_the_first_bad_row(self):
        sp = space("A:3:[2,1,1]:-")
        stack = np.array([[1.0, 1.0, 2.0, 0.5], [1.0, 1.0, 1.0, 2.0], [-1.0, 1.0, 1.0, 0.0]])
        with pytest.raises(NotPositiveDefinite, match=r"\[1\.0, 1\.0, 1\.0, 2\.0\]") as err:
            invariant.positive_spectrum(sp, stack)
        assert err.value.min_eigenvalue < 0
        lam = invariant.positive_spectrum(sp, stack[:1])
        assert lam.shape == (1, sp.n_sub) and np.all(lam > 0)

    def test_zero_top_pair_eigenvalue(self):
        # [[-1, 1/2], [1/2, -1/4]] has eigenvalues -5/4 and exactly 0; the
        # trace is negative, so -5/4 comes from it and 0 from the product
        sp = space("A:3:[2,1,1]:-")
        c = [1.0, -1.0, -0.25, 0.5]
        assert np.array_equal(invariant.metric_eigenvalues(sp, c), [1.0, -1.25, 0.0])
        with pytest.raises(NotPositiveDefinite) as err:
            make_metric(sp, c)
        assert err.value.min_eigenvalue == -1.25

    @pytest.mark.filterwarnings("error")
    def test_zero_pair(self):
        # x_i = x_j = b = 0 leaves the product form 0/0; the pair is
        # unmixed and keeps its zeros, without a floating-point warning
        sp = space("A:3:[2,1,1]:-")
        assert np.array_equal(invariant.metric_eigenvalues(sp, [1.0, 0.0, 0.0, 0.0]), [1, 0, 0])


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
