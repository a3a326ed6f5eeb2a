import numpy as np
import pytest

from einflag.algebra import build_algebra, bracket, ambient_inner, killing
from einflag.errors import UnsupportedRank


FAMILIES = [("A", 3), ("A", 5), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5)]


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


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2)])
def test_unsupported_rank(family, rank):
    with pytest.raises(UnsupportedRank):
        build_algebra(family, rank)


def test_bracket_example_a3():
    model = build_algebra("A", 3)
    w21 = model.basis_element("w(2,1)")
    w31 = model.basis_element("w(3,1)")
    out = bracket(w21, w31)
    expected = np.zeros(model.n)
    expected[model.label_index["w(3,2)"]] = 1.0
    assert np.allclose(out.coords, expected)


def test_bracket_example_b4():
    # [v(1), v(2)] = w(2,1) + u(2,1)
    model = build_algebra("B", 4)
    out = bracket(model.basis_element("v(1)"), model.basis_element("v(2)"))
    expected = np.zeros(model.n)
    expected[model.label_index["w(2,1)"]] = 1.0
    expected[model.label_index["u(2,1)"]] = 1.0
    assert np.allclose(out.coords, expected)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_bracket_antisymmetry_and_jacobi(family, rank):
    model = build_algebra(family, rank)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y, z = (model.element(rng.standard_normal(model.n)) for _ in range(3))
        xy = bracket(x, y)
        yx = bracket(y, x)
        assert np.allclose(xy.coords, -yx.coords, atol=1e-10)
        jac = (
            bracket(x, bracket(y, z)).coords
            + bracket(y, bracket(z, x)).coords
            + bracket(z, bracket(x, y)).coords
        )
        assert np.max(np.abs(jac)) < 1e-9


@pytest.mark.parametrize("family,rank", FAMILIES + [("A", 25)])
def test_bracket_matches_matrix_commutator(family, rank):
    model = build_algebra(family, rank)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = model.element(rng.standard_normal(model.n))
        y = model.element(rng.standard_normal(model.n))
        M = bracket(x, y).matrix
        ambient = x.matrix @ y.matrix - y.matrix @ x.matrix
        assert np.allclose(M, ambient, atol=1e-9)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_ad_matches_bracket(family, rank):
    model = build_algebra(family, rank)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal((2, model.n))
        assert np.allclose(y @ model.ad(x), model.bracket_coords(x, y), rtol=0, atol=1e-12)


def test_killing_value_a3():
    model = build_algebra("A", 3)
    w21 = model.basis_element("w(2,1)")
    assert killing(w21, w21) == pytest.approx(-4.0, abs=1e-12)
    assert ambient_inner(w21, w21) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_gram_is_diagonal(family, rank):
    model = build_algebra(family, rank)
    mats = [e.matrix for e in model.basis]
    for i in range(model.n):
        for j in range(i + 1, model.n):
            assert model.ambient_inner_matrices(mats[i], mats[j]) == pytest.approx(0.0, abs=1e-12)
    assert np.all(model.gram > 0)


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
    for _ in range(5):
        x, y, z = (model.element(rng.standard_normal(model.n)) for _ in range(3))
        lhs = ambient_inner(bracket(x, y), z) + ambient_inner(y, bracket(x, z))
        assert abs(lhs) < 1e-9


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_killing_ad_invariance_and_symmetry(family, rank):
    model = build_algebra(family, rank)
    K = model.killing_matrix
    assert np.allclose(K, K.T, atol=1e-10)
    rng = np.random.default_rng(13)
    for _ in range(4):
        x, y, z = (model.element(rng.standard_normal(model.n)) for _ in range(3))
        lhs = killing(bracket(x, y), z) + killing(y, bracket(x, z))
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
    T = np.array(
        [
            [float(np.einsum("ij,ji->", a.matrix, b.matrix)) for b in model.basis]
            for a in model.basis
        ]
    )
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
    coords, residual = model.expand_matrix(model.element(x).matrix)
    assert residual < 1e-12
    assert np.allclose(coords, x, atol=1e-12)


def test_expand_matrix_rejects_outside_span():
    model = build_algebra("D", 4)
    M = np.zeros((8, 8))
    M[0, 1] = 1.0  # not skew, not in any basis support pattern consistently
    M[1, 0] = 1.0
    _, residual = model.expand_matrix(M)
    assert residual > 0.5
