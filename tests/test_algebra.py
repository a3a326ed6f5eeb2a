import dense_oracle
import numpy as np
import pytest
import sweeps

from conftest import ad_matrix, ambient_basis, ambient_matrices, expand_matrix
from einflag import algebra
from einflag.algebra import AlgebraModel, build_algebra
from einflag.errors import ClosureViolation, UnsupportedRank


FAMILIES = [("A", 3), ("A", 5), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5)]


def unit(model, label):
    """Coordinate vector of one named basis element."""
    x = np.zeros(model.n)
    x[model.label_index[label]] = 1.0
    return x


def ambient(model, x):
    """Ambient matrix of a coordinate vector."""
    return np.tensordot(x, ambient_basis(model), 1)


def killing(model, x, y):
    return float(x @ model.killing_matrix @ y)


@pytest.mark.parametrize(
    "family,rank,size",
    [
        ("A", 1, 1),
        ("A", 3, 6),
        ("A", 5, 15),
        ("B", 2, 4),
        ("B", 4, 16),
        ("C", 3, 9),
        ("C", 5, 25),
        ("D", 4, 12),
        ("D", 6, 30),
    ],
)
def test_basis_sizes(family, rank, size):
    model = build_algebra(family, rank)
    assert model.n == size


def test_b2_labels():
    model = build_algebra("B", 2)
    assert sorted(e.label for e in model.basis) == ["u(2,1)", "v(1)", "v(2)", "w(2,1)"]


def test_root_labels():
    model = build_algebra("B", 3)
    assert model.basis[model.label_index["w(3,1)"]].root_label == "l3-l1"
    assert model.basis[model.label_index["u(2,1)"]].root_label == "l2+l1"
    assert model.basis[model.label_index["v(2)"]].root_label == "l2"
    c = build_algebra("C", 3)
    assert c.basis[c.label_index["u(2,2)"]].root_label == "2l2"


@pytest.mark.parametrize(
    "family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("A", 26), ("D", 26)]
)
def test_unsupported_rank(family, rank):
    with pytest.raises(UnsupportedRank):
        build_algebra(family, rank)


def test_bracket_example_a3():
    model = build_algebra("A", 3)
    out = model.bracket_coords(unit(model, "w(2,1)"), unit(model, "w(3,1)"))
    expected = np.zeros(model.n)
    expected[model.label_index["w(3,2)"]] = 1.0
    assert np.allclose(out, expected)


def test_bracket_example_b4():
    # [v(1), v(2)] = w(2,1) + u(2,1)
    model = build_algebra("B", 4)
    out = model.bracket_coords(unit(model, "v(1)"), unit(model, "v(2)"))
    expected = np.zeros(model.n)
    expected[model.label_index["w(2,1)"]] = 1.0
    expected[model.label_index["u(2,1)"]] = 1.0
    assert np.allclose(out, expected)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_bracket_antisymmetry_and_jacobi(family, rank):
    model = build_algebra(family, rank)
    rng = np.random.default_rng(7)
    br = model.bracket_coords
    for _ in range(5):
        x, y, z = rng.standard_normal((3, model.n))
        assert np.allclose(br(x, y), -br(y, x), atol=1e-10)
        jac = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
        assert np.max(np.abs(jac)) < 1e-9


@pytest.mark.parametrize("family,rank", FAMILIES + [("A", 25)])
def test_bracket_matches_matrix_commutator(family, rank):
    model = build_algebra(family, rank)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.standard_normal(model.n)
        y = rng.standard_normal(model.n)
        M = ambient(model, model.bracket_coords(x, y))
        X, Y = ambient(model, x), ambient(model, y)
        assert np.allclose(M, X @ Y - Y @ X, atol=1e-9)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_ad_matches_bracket(family, rank):
    model = build_algebra(family, rank)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal((2, model.n))
        assert np.allclose(y @ ad_matrix(model, x), model.bracket_coords(x, y), rtol=0, atol=1e-12)


def test_killing_value_a3():
    model = build_algebra("A", 3)
    w21 = unit(model, "w(2,1)")
    assert killing(model, w21, w21) == pytest.approx(-4.0, abs=1e-12)
    assert model.ambient_inner_coords(w21, w21) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_gram_is_diagonal(family, rank):
    model = build_algebra(family, rank)
    mats = ambient_basis(model)
    for i in range(model.n):
        for j in range(i + 1, model.n):
            assert dense_oracle.ambient_inner_matrices(model, mats[i], mats[j]) == pytest.approx(0.0, abs=1e-12)
    assert np.all(model.gram > 0)


_PAIRING_RANKS = [
    (family, rank)
    for family, low in algebra._MIN_RANK.items()
    for rank in [*range(low, 7), 12, 25]
]


@pytest.mark.parametrize("family,rank", _PAIRING_RANKS)
def test_pairing_join_equals_the_dense_oracle(family, rank):
    # the algebra sweep that CI runs on every rank to 25
    sweeps.algebras([(family, rank)])


_ORACLE_RANKS = [
    (family, rank) for family, low in algebra._MIN_RANK.items() for rank in range(low, 11)
] + [("A", 25), ("C", 25), ("D", 25)]


@pytest.mark.parametrize("family,rank", _ORACLE_RANKS)
def test_entries_equal_the_dense_basis_oracle(family, rank):
    # the algebra sweep that CI runs on every rank to 25
    sweeps.algebras([(family, rank)])


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_pairing_join_pairs_arbitrary_matrices(family, rank):
    # random integer matrices with every position filled, not only the
    # basis pattern: the table's weights and partners on every position
    model = build_algebra(family, rank)
    N = model.ambient_dim
    rng = np.random.default_rng(5)
    X = rng.integers(-3, 4, size=(6, N, N))
    want = np.asarray(dense_oracle.ambient_inner_matrices(model, X, X), dtype=float)
    elem, row, col = np.nonzero(X)
    diag, (e, f, sums) = model.pair_entries(elem, row * N + col, X[elem, row, col])
    got = np.diag(diag[:6])
    got[e, f] = sums
    assert np.array_equal(got, want)


def test_bcd_gram_values():
    b = build_algebra("B", 3)
    assert np.allclose(b.gram, 1.0)
    d = build_algebra("D", 4)
    assert np.allclose(d.gram, 1.0)
    c = build_algebra("C", 3)
    for e, g in zip(c.basis, c.gram):
        expected = 0.5 if e.label in {"u(1,1)", "u(2,2)", "u(3,3)"} else 1.0
        assert g == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_ambient_product_ad_invariance(family, rank):
    model = build_algebra(family, rank)
    rng = np.random.default_rng(11)
    inner, br = model.ambient_inner_coords, model.bracket_coords
    for _ in range(5):
        x, y, z = rng.standard_normal((3, model.n))
        lhs = inner(br(x, y), z) + inner(y, br(x, z))
        assert abs(lhs) < 1e-9


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_killing_ad_invariance_and_symmetry(family, rank):
    model = build_algebra(family, rank)
    K = model.killing_matrix
    assert np.allclose(K, K.T, atol=1e-10)
    rng = np.random.default_rng(13)
    br = model.bracket_coords
    for _ in range(4):
        x, y, z = rng.standard_normal((3, model.n))
        lhs = killing(model, br(x, y), z) + killing(model, y, br(x, z))
        assert abs(lhs) < 1e-8


@pytest.mark.parametrize(
    "family,rank,kernel_dim",
    [("A", 3, 0), ("B", 3, 0), ("B", 4, 0), ("C", 3, 1), ("C", 5, 1), ("D", 4, 0), ("D", 5, 0)],
)
def test_killing_negative_semidefinite(family, rank, kernel_dim):
    model = build_algebra(family, rank)
    eigs = np.linalg.eigvalsh(model.killing_matrix)
    assert np.all(eigs < 1e-9)
    assert int(np.sum(np.abs(eigs) < 1e-9)) == kernel_dim


def test_killing_center_is_sum_of_diagonal_u():
    # The C-family kernel is spanned by u(1,1) + ... + u(l,l).
    model = build_algebra("C", 4)
    z = np.zeros(model.n)
    for k in range(1, 5):
        z[model.label_index[f"u({k},{k})"]] = 1.0
    assert np.max(np.abs(model.killing_matrix @ z)) < 1e-12


@pytest.mark.parametrize(
    "family,rank,nonzero_ratios",
    [("A", 4, 1), ("B", 3, 2), ("B", 5, 2), ("C", 3, 1), ("D", 5, 1), ("D", 4, 1)],
)
def test_killing_trace_pencil_clusters(family, rank, nonzero_ratios):
    # Per ideal, the Killing form is a constant multiple of the trace form;
    # the generalized eigenvalues of the pencil must cluster accordingly.
    model = build_algebra(family, rank)
    mats = ambient_basis(model)
    T = np.einsum("aij,bji->ab", mats, mats)
    vals = np.linalg.eigvals(np.linalg.solve(T, model.killing_matrix))
    vals = np.real_if_close(vals, tol=1e6)
    clusters = []
    for v in sorted(float(np.real(v)) for v in vals):
        if not clusters or abs(v - clusters[-1][-1]) > 1e-6:
            clusters.append([v])
        else:
            clusters[-1].append(v)
    centers = [np.mean(c) for c in clusters]
    nonzero = [c for c in centers if abs(c) > 1e-9]
    zero = [c for c in centers if abs(c) <= 1e-9]
    assert len(nonzero) == nonzero_ratios
    assert len(zero) == (1 if family == "C" else 0)


def test_expand_matrix_roundtrip():
    model = build_algebra("B", 3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(model.n)
    coords, residual = expand_matrix(model, ambient(model, x))
    assert residual < 1e-12
    assert np.allclose(coords, x, atol=1e-12)


def test_expand_matrix_rejects_outside_span():
    model = build_algebra("D", 4)
    M = np.zeros((8, 8))
    M[0, 1] = 1.0  # not skew, not in any basis support pattern consistently
    M[1, 0] = 1.0
    _, residual = expand_matrix(model, M)
    assert residual > 0.5


def test_expand_matrix_of_a_stack_expands_each_matrix():
    model = build_algebra("C", 3)
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((4, model.n))
    stack = np.array([ambient(model, x) for x in xs])
    stack[2, 0, 0] = 0.5  # off the span in one matrix only
    coords, residual = expand_matrix(model, stack)
    assert coords.shape == (4, model.n)
    # one residual per matrix
    assert np.array_equal(residual, [0.0, 0.0, 0.5, 0.0])
    for M, row, res in zip(stack, coords, residual):
        assert np.array_equal(expand_matrix(model, M)[0], row)
        assert expand_matrix(model, M)[1] == res
    assert np.allclose(coords, xs, atol=1e-12)
    # a stack of stacks keeps its leading shape in both results
    coords, residual = expand_matrix(model, stack.reshape(2, 2, *stack.shape[1:]))
    assert coords.shape == (2, 2, model.n)
    assert np.array_equal(residual, [[0.0, 0.0], [0.5, 0.0]])


def test_expand_matrix_residual_of_an_inconsistent_element_stays_in_its_matrix():
    # w(2,1) = E_21 - E_12, read as E_21 + E_12 in the second matrix only
    model = build_algebra("A", 3)
    good = ambient(model, unit(model, "w(2,1)"))
    bad = np.abs(good)
    _, residual = expand_matrix(model, np.array([good, bad, good]))
    assert np.array_equal(residual, [0.0, 2.0, 0.0])


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_ambient_matrices_invert_expand_matrix(family, rank):
    model = build_algebra(family, rank)
    xs = np.random.default_rng(2).standard_normal((2, 3, model.n))
    mats = ambient_matrices(model, xs)
    assert mats.shape == (2, 3, model.ambient_dim, model.ambient_dim)
    assert np.array_equal(mats[1, 2], ambient(model, xs[1, 2]))
    coords, residual = expand_matrix(model, mats)
    assert np.array_equal(coords, xs)
    assert not np.any(residual)


def test_expand_matrix_reports_an_unowned_entry():
    # no basis matrix has a diagonal entry
    model = build_algebra("A", 3)
    M = ambient(model, unit(model, "w(3,1)"))
    M[2, 2] = 0.7
    coords, residual = expand_matrix(model, M)
    assert residual == 0.7
    assert np.array_equal(coords, unit(model, "w(3,1)"))


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_structure_index_equals_the_dense_commutators(family, rank):
    # the reference expands e_i e_j - e_j e_i of the integer matrices
    model = build_algebra(family, rank)
    n = model.n
    ref = np.zeros((n, n, n))
    mats = ambient_basis(model)
    for i, ei in enumerate(mats):
        for j, ej in enumerate(mats):
            coords, residual = expand_matrix(model, ei @ ej - ej @ ei)
            assert residual == 0.0
            ref[i, j] = coords
    I, J, K, V = model.structure_index
    C = np.zeros((n, n, n))
    C[I, J, K] = V
    assert np.array_equal(C, ref)
    # each nonzero listed once: (i, j) with i < j sorted by (i, j, k), then
    # the same entries as (j, i) with the opposite sign
    assert I.size == np.count_nonzero(ref)
    half = I.size // 2
    assert np.all(I[:half] < J[:half])
    assert np.all(np.diff((I[:half] * n + J[:half]) * n + K[:half]) > 0)
    assert np.array_equal(I[half:], J[:half]) and np.array_equal(V[half:], -V[:half])


def _w31(basis):
    return next(k for k, e in enumerate(basis) if e.label == "w(3,1)")


def _drop_w31(N, basis, entries):
    k = _w31(basis)
    elem, row, col, val = entries
    keep = elem != k
    return N, basis[:k] + basis[k + 1 :], (elem[keep] - (elem[keep] > k), row[keep], col[keep], val[keep])


def _symmetric_w31(N, basis, entries):
    elem, row, col, val = entries
    return N, basis, (elem, row, col, np.where(elem == _w31(basis), np.abs(val), val))


def _w31_with_an_extra_corner(N, basis, entries):
    # one more ambient dimension, touched only by w(3,1): E_NN commutes with
    # every other basis matrix, so each bracket keeps its entries, but the
    # bracket that yields w(3,1) misses the corner, the last position of
    # w(3,1)'s entries
    k = _w31(basis)
    at = np.searchsorted(entries[0], k, side="right")
    return N + 1, basis, tuple(np.insert(a, at, x) for a, x in zip(entries, (k, N, N, 1)))


@pytest.mark.parametrize(
    "rank,corrupt,message",
    [
        (2, _drop_w31, r"\[w\(2,1\), w\(3,2\)\] has an entry at \(0, 2\) outside the basis span"),
        (3, _symmetric_w31, r"inconsistent expansion of \[w\(2,1\), w\(3,1\)\]"),
        (3, _w31_with_an_extra_corner, r"expansion of \[w\(2,1\), w\(3,2\)\] does not reconstruct"),
    ],
    ids=["outside-span", "inconsistent", "no-reconstruction"],
)
def test_corrupted_basis_raises_closure_violation(monkeypatch, rank, corrupt, message):
    build = algebra._build_basis
    monkeypatch.setattr(algebra, "_build_basis", lambda f, l: corrupt(*build(f, l)))
    with pytest.raises(ClosureViolation, match=message):
        AlgebraModel("A", rank)


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 6), ("B", 4), ("C", 6), ("D", 6), ("A", 25)]
)
def test_killing_matrix_equals_the_sparse_product(family, rank):
    # the sort-merge reproduces the CSR product of the structure matrices
    # C[a, (j, k)] and C[b, (k, j)] bit for bit
    sparse = pytest.importorskip("scipy.sparse")
    model = build_algebra(family, rank)
    I, J, K, V = model.structure_index
    n = model.n
    S = sparse.csr_matrix((V, (I, J * n + K)), shape=(n, n * n))
    T = sparse.csr_matrix((V, (I, K * n + J)), shape=(n, n * n))
    ref = (S @ T.T).toarray()
    ref = (ref + ref.T) / 2.0
    assert model.killing_matrix.tobytes() == ref.tobytes()
