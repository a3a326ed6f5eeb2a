import dataclasses
import importlib
import tracemalloc

import dense_oracle
import numpy as np
import pytest
from conftest import (
    FLAGS,
    NO_GENERATORS,
    ad_matrix,
    component_sign_actions,
    dense_generators,
    edit_first_generator,
    flip_signs,
    tangent_dim,
)

from einflag import algebra, flag, invariant
from einflag.errors import InvariantViolation, NotPositiveDefinite, UnimplementedCase
from einflag.flag import (
    Submodule,
    decompose_isotropy,
    enumerate_small_flags,
    parse_flag_spec,
    tangent_basis,
)
from einflag.invariant import (
    make_metric,
    metric_space,
    orthonormal_frame,
)
from sweeps import frames_agree, table_rows


curvature_module = importlib.import_module("einflag.curvature")


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
            # the sign actions are exact +-1 diagonals
            assert np.array_equal(sp.signs.row, sp.signs.col)
            assert np.array_equal(np.abs(sp.signs.value), np.ones(sp.signs.value.size))
            # the probes are drawn from a fixed seed, so a cold rebuild
            # repeats the operators bit for bit
            cold = metric_space.__wrapped__(spec)
            assert len(cold.operators) == sp.dim
            for a, b in zip(sp.operators, cold.operators):
                assert np.array_equal(a, b)

    def test_build_sets_cover_table1(self):
        assert {(s.family, s.rank) for s in table_rows(6)} <= set(BUILD_SETS)

    def test_structure_antisymmetry(self):
        # B:4:[2,2]:+ has tangent basis vectors that are not coordinate
        # vectors, so t[a, b] and t[b, a] round differently before they
        # are averaged.
        for text in ("B:5:[1,4]:+", "B:4:[2,2]:+"):
            t = dense_oracle.dense_structure(space(text))
            assert np.array_equal(t, -np.transpose(t, (1, 0, 2)))

    def test_structure_read_allocates_only_its_nonzeros(self):
        # at d = 129 the tensor has 1080 nonzeros: the first read of a cold
        # copy gathers them in under 1 MB, where one d^3 float array would
        # be 16.4 MB, and every later read returns the same arrays
        cold = dataclasses.replace(space("A:25:[20,3,3]:-"))
        tracemalloc.start()
        try:
            coo = cold.structure
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert len(coo[0]) == 1080
        assert cold.structure is coo

    @pytest.mark.parametrize(
        "text", ["B:4:[2,2]:+", "C:5:[1,4]:+", "D:5:[4,1]:-", "A:3:[1,1,1,1]:-"]
    )
    def test_structure_gather_matches_ad_products(self, text):
        # the gather from structure_index against the dense per-row product
        # g0([x_a, x_b], x_c) = (B ad(x_a) (B g0)^T)[b, c]
        sp = space(text)
        model = sp.spec.algebra
        Bw = sp.basis * (float(sp.spec.inner_scale) * model.gram)
        ref = np.array([(sp.basis @ ad_matrix(model, x)) @ Bw.T for x in sp.basis])
        t = dense_oracle.dense_structure(sp)
        assert np.max(np.abs(t - ref)) <= 1e-15
        I, J, K, V = sp.structure
        assert len(I) == np.count_nonzero(t)
        assert np.array_equal(t[I, J, K], V)

    def test_pair_intertwiners_are_signed_permutations(self):
        # every B0 is stored exactly, so the canonical frame keeps its zeros
        pairs = [B0 for spec in table_rows(6) for _, _, B0 in space(str(spec)).pairs]
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
        d = sp.tangent_dim
        dense = max(
            float(np.max(np.abs(G @ A - A @ G)))
            for A in sp.operators
            for table in (sp.reps, sp.signs)
            for G in dense_generators(table, d)
        )
        masked = invariant.commutation_residual(sp)
        assert masked <= 1e-10
        assert abs(masked - dense) <= 1e-14

    @pytest.mark.parametrize("text", ["A:3:[2,1,1]:-", "D:5:[4,1]:-"])
    def test_commutation_residual_sees_broken_generators(self, text):
        # one generator leaking between two summands, one that acts on the
        # second summand of a pair differently from the first
        sp = space(text)
        d = sp.tangent_dim
        i, j, _ = sp.pairs[0]
        si, sj = sp.slices[i], sp.slices[j]
        leak = edit_first_generator(sp.reps, d, [si.start], [sj.start], [1e-6])
        diag = np.arange(sj.start, sj.stop)
        twist = edit_first_generator(sp.reps, d, diag, diag, np.full(diag.size, 1e-6))
        for bad in (leak, twist):
            broken = dataclasses.replace(sp, reps=bad, signs=NO_GENERATORS)
            assert invariant.commutation_residual(broken) > 1e-7

    def test_skew_check_sees_a_symmetric_entry(self, monkeypatch):
        spec = parse_flag_spec("D:5:[4,1]:-")
        wrong = dataclasses.replace(decompose_isotropy(spec))
        d = tangent_dim(wrong)
        wrong.isotropy_action = edit_first_generator(wrong.isotropy_action, d, [0], [0], [1e-6])
        monkeypatch.setattr(invariant, "decompose_isotropy", lambda _: wrong)
        with pytest.raises(InvariantViolation, match="is not skew"):
            metric_space.__wrapped__(spec)

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
        # antisymmetrizing halves the injected entry
        with pytest.raises(InvariantViolation, match=r"nonzero trace, max \|z_k\| = 0\.125$"):
            dataclasses.replace(sp).structure


class TestGeneratorTables:
    @pytest.mark.parametrize(
        "text", ["A:3:[2,1,1]:-", "D:5:[4,1]:-", "B:4:[4]:-", "A:25:[20,3,3]:-"]
    )
    def test_isotropy_action_equals_the_dense_generators(self, text):
        # the reference is the dense product the tables replaced; BLAS may
        # fuse a multiply-add where the table rounds twice, which moves an
        # entry by at most an ulp
        spec = parse_flag_spec(text)
        dec = decompose_isotropy(spec)
        Bm, _ = tangent_basis(dec)
        Bw = Bm * (float(spec.inner_scale) * spec.algebra.gram)
        I, J, K, V = spec.algebra.structure_index
        ref = []
        for p in dec.isotropy_indices:
            at = I == p
            ref.append((Bw[:, K[at]] * V[at]) @ Bm[:, J[at]].T)
        sp = metric_space(spec)
        assert sp.reps is dec.isotropy_action
        got = dense_generators(sp.reps, Bm.shape[0])
        assert got.shape == (len(ref),) + Bm.shape[:1] * 2
        assert np.max(np.abs(got - np.array(ref))) <= 1e-15

    @pytest.mark.parametrize(
        "text", ["A:3:[2,1,1]:-", "B:4:[4]:-", "B:4:[2,2]:+", "D:5:[4,1]:-", "A:25:[20,3,3]:-"]
    )
    def test_sign_table_equals_the_dense_actions(self, text):
        # the same rounding allowance as the isotropy action.  Every entry is
        # on the diagonal and exactly +-1, all d of them per generator, so
        # each action squares to I exactly and needs no involution check
        spec = parse_flag_spec(text)
        dec = decompose_isotropy(spec)
        Bm, _ = tangent_basis(dec)
        Bw = Bm * (float(spec.inner_scale) * spec.algebra.gram)
        d = Bm.shape[0]
        ref = np.array([Bw @ (Bm * s).T for s in component_sign_actions(dec)])
        table = metric_space(spec).signs
        got = dense_generators(table, d)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15
        assert np.array_equal(table.row, table.col)
        assert table.value.size == table.count * d
        assert np.array_equal(np.abs(table.value), np.ones(table.value.size))

    @pytest.mark.parametrize(
        "text", ["A:3:[2,1,1]:-", "B:4:[4]:-", "B:4:[2,2]:+", "D:5:[4,1]:-", "A:25:[20,3,3]:-"]
    )
    def test_sign_table_equals_the_gather_through_both_bases(self, text):
        # a second reference: the gather of the diagonal entries (g, k, k,
        # s_g[k]) through both bases, summed as the structure constants are.
        # Its off-diagonal sums cancel and its diagonal sums come to the
        # table's exact +-1 up to rounding, and it squares to I as well
        spec = parse_flag_spec(text)
        dec = decompose_isotropy(spec)
        Bm, _ = tangent_basis(dec)
        Bw = Bm * (float(spec.inner_scale) * spec.algebra.gram)
        d = Bm.shape[0]
        flips = np.array(component_sign_actions(dec))
        count, n = flips.shape
        g, k = np.divmod(np.arange(count * n), n)
        one = (np.arange(count + 1), np.arange(count), np.ones(count))
        maps = (one, algebra._row_entries(Bw.T), algebra._row_entries(Bm.T))
        gen, a, b, v = algebra._coo_transform((g, k, k, flips.ravel()), maps, d)
        want = np.zeros((count, d, d))
        want[gen, a, b] = v
        table = metric_space(spec).signs
        assert table.count == count
        got = dense_generators(table, d)
        assert np.max(np.abs(got - want)) <= 1e-15
        square = np.max(np.abs(want @ want - np.eye(d)))
        assert square <= 1e-14


def _span(flips):
    """Every XOR of a subset of the int bitmasks ``flips``."""
    span = {0}
    for f in flips:
        span |= {f ^ x for x in span}
    return span


def _gf2_rank(rows):
    """The GF(2) rank of int bitmasks, by a basis with distinct leading bits."""
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = sorted(basis + [r], reverse=True)
    return len(basis)


def _sign_bits(signs):
    """+-1 vectors as int bitmasks of their -1 entries."""
    return [int("".join("1" if v < 0 else "0" for v in s), 2) for s in signs]


def _kept_by_projection(dec, signs):
    """The reference decision per +-1 vector s over the algebra basis: does s
    keep every summand, by the largest entry of ``s * b - proj(s * b)`` over
    its rows b.  Returns the kept mask and every vector's residual."""
    g = float(dec.spec.inner_scale) * dec.spec.algebra.gram
    resid = np.zeros(len(signs))
    for sub in dec.submodules:
        img = sub.orthonormal * signs[:, None, :]
        off = img - (img @ (sub.orthonormal * g).T) @ sub.orthonormal
        resid = np.maximum(resid, np.max(np.abs(off), axis=(1, 2)))
    return resid <= 1e-10, resid


def _spec_basis(text):
    """A flag's spec and the rows of its tangent basis."""
    spec = parse_flag_spec(text)
    return spec, tangent_basis(decompose_isotropy(spec))[0]


def _flip_sets(spec, flips):
    """The flips as sets of 1-based ambient positions."""
    npos = spec.algebra.roots.shape[1]
    return [{k + 1 for k in range(npos) if f >> k & 1} for f in flips]


class TestSignActions:
    def test_triality_blocks_filter_singles(self):
        # single reflections swap the two 3-dimensional summands, so the
        # kernel is the 8 even flips of the 4 positions
        for text in ("B:4:[4]:-", "D:4:[4]:-"):
            flips, _ = invariant._sign_actions(*_spec_basis(text))
            span = _span(flips.tolist())
            assert len(span) == 8
            assert not any(bin(f).count("1") == 1 for f in span)
            assert all(bin(f).count("1") % 2 == 0 for f in span)

    @pytest.mark.parametrize(
        "text", ["A:5:[2,2,2]:-", "B:4:[4]:-", "C:5:[2,3]:+", "D:5:[4,1]:-", "A:25:[20,3,3]:-"]
    )
    def test_basis_signs_match_root_parity_loop(self, text):
        # sigma_a is the sign of row a's first nonzero under the flip, and
        # every nonzero of the row takes the same sign; the vectors over the
        # algebra basis read the same loop
        spec, B = _spec_basis(text)
        model = spec.algebra
        flips, table = invariant._sign_actions(spec, B)
        d = B.shape[0]
        sigma = table.value.reshape(table.count, d)
        for flipped, row, over_basis in zip(
            _flip_sets(spec, flips), sigma, component_sign_actions(decompose_isotropy(spec))
        ):
            loop = np.array([
                (-1) ** sum(c % 2 for pos, c in enumerate(e.root, start=1) if pos in flipped)
                for e in model.basis
            ])
            assert np.array_equal(over_basis, loop)
            for a in range(d):
                support = np.flatnonzero(B[a])
                assert np.all(loop[support] == row[a])

    def test_basis_aligned_spans_keep_all(self):
        flips, _ = invariant._sign_actions(*_spec_basis("D:4:[3,1]:-"))
        assert len(_span(flips.tolist())) == 16

    @pytest.mark.parametrize("text", FLAGS + ["C:25:[12,13]:+"])
    def test_kept_signs_equal_the_projection_residual_decision(self, text):
        # the reference decides one flip and one summand at a time, by the
        # largest entry of s * b - proj(s * b) over the summand's rows b.  On
        # up to 10 positions it decides every flip (the even ones on A), and
        # the kept sign vectors over the algebra basis are the span of the
        # generators'.  On A:25 and C:25 it decides the singles and the
        # pairs {1, j}, {2, j}, and each kept one lies in the span.  A
        # rejected flip moves some row by a residual near 1, far from the cut
        dec = decompose_isotropy(parse_flag_spec(text))
        spec = dec.spec
        npos = spec.algebra.roots.shape[1]
        gens = component_sign_actions(dec)
        rank = _gf2_rank(_sign_bits(gens))
        if npos <= 10:
            flips = range(2**npos)
        else:
            flips = [1 << k for k in range(npos)]
            flips += [1 | 1 << j for j in range(1, npos)] + [2 | 1 << j for j in range(2, npos)]
        if spec.family == "A":
            flips = [f for f in flips if bin(f).count("1") % 2 == 0]
        signs = flip_signs(spec.algebra, list(flips))
        kept, resid = _kept_by_projection(dec, signs)
        assert np.min(resid[~kept], initial=1.0) >= 0.5
        kept_bits = set(_sign_bits(signs[kept]))
        for v in kept_bits:
            assert _gf2_rank(_sign_bits(gens) + [v]) == rank
        if npos <= 10:
            assert len(kept_bits) == 2**rank
        assert _kept_by_projection(dec, np.array(gens))[0].all()

    def test_a_sign_that_mixes_a_summand_is_dropped(self):
        # the span of (1, 1) in two coordinates is kept by flipping both and
        # by flipping neither, and mixed with (1, -1) by flipping one: its
        # one constraint row is 0b011, and the third coordinate is free
        assert invariant._gf2_kernel([0b011], 3) == [0b011, 0b100]
        assert invariant._gf2_kernel([0b011, 0b011, 0], 3) == [0b011, 0b100]
        span = _span([0b011, 0b100])
        assert {0b000, 0b011, 0b100, 0b111} == span
        assert not {0b001, 0b010, 0b101, 0b110} & span

    def test_lowest_bit_pivots_give_singles_and_pairs(self):
        # no constraint keeps every single flip; the all-ones row of family A
        # leaves the pairs {1, k}
        assert invariant._gf2_kernel([], 4) == [0b0001, 0b0010, 0b0100, 0b1000]
        assert invariant._gf2_kernel([0b1111], 4) == [0b0011, 0b0101, 0b1001]

    def test_gf2_kernel_equals_the_brute_force_kernel(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            rows = rng.integers(0, 2**n, size=int(rng.integers(0, 7))).tolist()
            want = {s for s in range(2**n) if all(bin(r & s).count("1") % 2 == 0 for r in rows)}
            got = invariant._gf2_kernel(rows, n)
            assert _gf2_rank(got) == len(got)
            assert _span(got) == want


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


class TestMetricEigenvalues:
    """The one coefficient spectrum against the dense spectrum of A."""

    @staticmethod
    def _assert_spectrum(sp, rows):
        dims = [s.stop - s.start for s in sp.slices]
        lam = np.array([invariant.metric_eigenvalues(sp, c) for c in rows])
        for c, row in zip(rows, lam):
            assert len(row) == sp.n_sub
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

    @pytest.mark.parametrize("text", FLAGS)
    def test_matches_metric_matrix(self, text):
        # indefinite coefficients included: the positive-definiteness rule
        # reads these eigenvalues
        sp = space(text)
        rng = np.random.default_rng(3)
        self._assert_spectrum(sp, rng.uniform(-1.0, 2.0, (8, sp.dim)))

    @pytest.mark.parametrize("text", FLAGS)
    def test_single_vector_path_matches_the_stack(self, text):
        # positive_spectrum's verdict and min_eigenvalue on every row,
        # indefinite ones too, against the rule taken over the stack of
        # the rows' eigenvalues as arrays
        sp = space(text)
        rng = np.random.default_rng(3)
        rows = list(rng.uniform(-1.0, 2.0, (2048 if sp.pairs else 16, sp.dim)))
        for f in (1 - 1e-9, -(1 - 1e-9), 0.5, 1e-15, -1e-15, 0.0):
            c = np.r_[rng.uniform(0.5, 2.0, sp.n_sub), np.zeros(sp.dim - sp.n_sub)]
            for k, (i, j, _) in enumerate(sp.pairs):
                c[sp.n_sub + k] = f * np.sqrt(c[i] * c[j])
            rows.append(c)
        lam = np.array([invariant.metric_eigenvalues(sp, c) for c in rows])
        # the stacked rule: a row is rejected with its smallest eigenvalue
        lo = lam.min(axis=1)
        bad = lo <= 1e-12 * np.maximum(1.0, np.abs(lam.max(axis=1)))
        assert bad.any() and not bad.all()
        for c, want, reject, least in zip(rows, lam, bad, lo):
            if reject:
                with pytest.raises(NotPositiveDefinite) as err:
                    invariant.positive_spectrum(sp, c)
                assert err.value.min_eigenvalue == least
            else:
                assert np.array_equal(invariant.positive_spectrum(sp, c), want)

    def test_mixing_edges(self):
        # mixing near +-sqrt(x_i x_j), where xi1 is small and the product
        # form matters, and below the 1e-14 cut, where the pair is unmixed
        spaces = [space(t) for t in FLAGS if space(t).pairs]
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
        lam = self._assert_spectrum(sp, rows)
        tiny = lam[:2].min(axis=-1)
        assert np.all(tiny > 0) and np.all(tiny < 1e-8)
        c = rows[0]
        for k, (i, j, _) in enumerate(sp.pairs):
            b = c[sp.n_sub + k]
            assert np.isclose(lam[0, i], (c[i] * c[j] - b * b) / lam[0, j], rtol=1e-14)

    def test_positive_spectrum_names_the_bad_coefficients(self):
        sp = space("A:3:[2,1,1]:-")
        with pytest.raises(NotPositiveDefinite, match=r"\[1\.0, 1\.0, 1\.0, 2\.0\]") as err:
            invariant.positive_spectrum(sp, np.array([1.0, 1.0, 1.0, 2.0]))
        assert err.value.min_eigenvalue < 0
        lam = invariant.positive_spectrum(sp, np.array([1.0, 1.0, 2.0, 0.5]))
        assert lam.shape == (sp.n_sub,) and np.all(lam > 0)

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
        assert sp.slices == [slice(0, 5), slice(5, 15)]
        assert np.allclose(m.spectrum, [2.0, 8.0])

    def test_paired_eigenvectors(self):
        sp = space("A:3:[2,1,1]:-")
        mu0, mu1, mu2, b = 1.0, 1.0, 2.0, 0.3
        m = make_metric(sp, [mu0, mu1, mu2, b])
        f = orthonormal_frame(m)
        gap = np.hypot(2 * b, mu1 - mu2)
        x1 = (mu1 + mu2 - gap) / 2
        x2 = (mu1 + mu2 + gap) / 2
        assert np.allclose(sorted(set(np.round(m.spectrum, 12))), [x1, mu0, x2])
        # columns are eigenvectors of the metric operator, with the
        # eigenvalue of their summand
        eig = np.repeat(m.spectrum, [s.stop - s.start for s in sp.slices])
        for c in range(5):
            Av = m.matrix @ f.vectors[:, c]
            assert np.allclose(Av, eig[c] * f.vectors[:, c], atol=1e-12)
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
        assert np.allclose(m.spectrum, [1, 2, 3])


@pytest.mark.parametrize("text", FLAGS)
def test_frame_equals_the_dense_construction(text):
    # the body of the frame sweep that CI runs on the pair flags to rank 25
    frames_agree(space(text), np.random.default_rng(list(text.encode())))


def pair_first(text):
    """The metric space of a one-pair flag with the pair's summands moved to
    the front, in the same basis order within each summand.

    No catalogued pair starts at row 0; this one does.  Its metrics are
    those of the flag, in a reordered basis.
    """
    sp = space(text)
    (i, j, B0), = sp.pairs
    order = [i, j] + [u for u in range(sp.n_sub) if u not in (i, j)]
    rows = np.concatenate([np.arange(sp.slices[u].start, sp.slices[u].stop) for u in order])
    stops = np.cumsum(sp.dims[order])
    slices = [slice(int(b - a), int(b)) for a, b in zip(sp.dims[order], stops)]
    d = sp.tangent_dim
    ops = np.zeros((sp.dim, d, d))
    for k, s in enumerate(slices):
        ops[k, s, s] = np.eye(s.stop - s.start)
    ops[-1, slices[1], slices[0]], ops[-1, slices[0], slices[1]] = B0, B0.T
    names = [sp.names[u] for u in order] + sp.names[sp.n_sub:]
    return dataclasses.replace(
        sp, basis=sp.basis[rows], slices=slices, operators=ops, names=names, pairs=[(0, 1, B0)]
    )


@pytest.mark.parametrize("text", ["A:3:[1,2,1]:-", "D:4:[3,1]:-"])
def test_frame_of_a_pair_at_row_zero_equals_the_dense_construction(text):
    # the frame's roles do not depend on where a pair's rows start
    frames_agree(pair_first(text), np.random.default_rng(list(text.encode())))


def test_frame_plan_refuses_an_intertwiner_that_is_no_signed_permutation():
    # the frame's roles give each pair column one B0 entry of magnitude one,
    # so a solved map that rounds to no signed permutation is refused when
    # it is normalized
    sp = space("D:4:[3,1]:-")
    (_, _, B0), = sp.pairs
    c, s = np.cos(0.3), np.sin(0.3)
    turned = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ B0
    with pytest.raises(UnimplementedCase, match="signed-permutation"):
        invariant._normalized_intertwiner(turned, sp.spec)
    assert np.array_equal(invariant._normalized_intertwiner(B0, sp.spec), B0)


@pytest.mark.parametrize("text", FLAGS + ["C:25:[12,13]:+"])
def test_ragged_transform_equals_the_padded_one(monkeypatch, text):
    # every ragged transform of t, recorded on a cold build: the isotropy
    # table and space.structure through _coo_transform, and
    # the canonical-frame report's T through the pattern step of its plan
    # and the sum step of the report, which takes t's entry of each product
    # from the plan, gathered at its build; the reference pads every map row
    # to the longest one and keeps only nonzero products, so its keys come
    # from the true nonzeros of the maps.  The plan is laid out for every
    # metric of the flag, so T may hold more keys than the reference: those
    # entries must be exact zeros.
    calls, patterns, values = [], [], []

    def recorded(coo, maps, d):
        out = algebra._coo_transform(coo, maps, d)
        calls.append((coo, maps, d, out))
        return out

    def pattern_step(index, maps, d):
        out = algebra._coo_pattern(index, maps, d)
        patterns.append((index, maps, d, out))
        return out

    def sum_step(pattern, vals, maps):
        out = algebra._coo_sums(pattern, vals, maps)
        values.append((pattern, vals, maps, out))
        return out

    for module in (flag, invariant):
        monkeypatch.setattr(module, "_coo_transform", recorded)
    monkeypatch.setattr(invariant, "_coo_pattern", pattern_step)
    monkeypatch.setattr(curvature_module, "_coo_sums", sum_step)
    spec = parse_flag_spec(text)
    monkeypatch.setattr(invariant, "decompose_isotropy", flag.decompose_isotropy.__wrapped__)
    sp = invariant.metric_space.__wrapped__(spec)
    sp.structure
    coeffs = np.r_[np.linspace(0.7, 1.6, sp.n_sub), np.full(sp.dim - sp.n_sub, 0.1)]
    curvature_module.curvature(make_metric(sp, coeffs))
    assert len(calls) == 2
    for coo, maps, d, got in calls:
        want = dense_oracle.padded_transform(coo, maps, d)
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)
        bound = 1e-15 * max(1.0, float(np.max(np.abs(want[3]), initial=0.0)))
        assert np.max(np.abs(got[3] - want[3]), initial=0.0) <= bound
    (index, rows, d, pattern), = [p for p in patterns if len(p[1]) == 3]
    (gathered, maps, got), = [v[1:] for v in values if v[0] is pattern]
    vals = sp.structure[3]
    assert np.array_equal(gathered, vals[pattern[0]])
    maps = tuple((*r, m) for r, m in zip(rows, maps))
    a, b, c, want = dense_oracle.padded_transform((*index, vals), maps, d)
    keys, key = pattern[3], (a * d + b) * d + c
    at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
    assert np.array_equal(keys[at], key)
    bound = 1e-15 * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got[at] - want), initial=0.0) <= bound
    assert not np.any(np.delete(got, at))
