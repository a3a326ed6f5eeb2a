import dataclasses
import importlib
import math
import tracemalloc
from fractions import Fraction

import dense_oracle
import fit_oracle
import numpy as np
import pytest

from conftest import FLAGS, PAIR_FLAGS
from einflag.curvature import (
    curvature,
    frame_structure,
    group_ricci,
    reduced_ricci,
    u_map,
)
from einflag.flag import parse_flag_spec
from einflag.invariant import Frame, make_metric, metric_space, orthonormal_frame
from sweeps import planned_cases, reports_agree

# the module itself: the package exports its function ``curvature`` under
# the same name
curvature_module = importlib.import_module("einflag.curvature")
invariant_module = importlib.import_module("einflag.invariant")


def report(text, coeffs):
    sp = metric_space(parse_flag_spec(text))
    return curvature(make_metric(sp, coeffs))


def random_metric(sp, rng):
    x = rng.uniform(0.5, 2.0, sp.n_sub)
    coeffs = list(x)
    for i, j, _ in sp.pairs:
        bound = np.sqrt(x[i] * x[j])
        coeffs.append(rng.uniform(-0.5, 0.5) * bound)
    return make_metric(sp, coeffs)


# two-summand spaces where the per-summand Ricci values have closed forms;
# each entry maps (flag, coefficients) -> expected group values
def two_summand_cases():
    mu1, mu2 = 0.7, 1.9
    rho, mu, gamma = 0.8, 1.7, 0.9
    cases = [("A:3:[2,2]:-", [mu1, mu2], [1 / (2 * mu1), 1 / (2 * mu2)])]
    for l in (3, 5, 6):
        cases.append(
            (f"B:{l}:[1,{l - 1}]:+", [rho, mu], [2 * (l - 2) / rho, 2 * (l - 1) / mu])
        )
    for l in (3, 5, 6):
        cases.append(
            (
                f"B:{l}:[{l}]:-",
                [mu, gamma],
                [
                    2 * (l - 1) / mu - (l - 1) * gamma / (2 * mu**2),
                    2 * (l - 2) / gamma + gamma / (2 * mu**2),
                ],
            )
        )
    for l in (3, 4, 5):
        # the singular direction is flat at every metric; the rest feels
        # only the Killing term because all tangent brackets are isotropy
        cases.append((f"C:{l}:[{l}]:-", [0.6, 1.4], [0.0, 2 * l / 1.4]))
    for l in (3, 4, 5):
        mu0, mu21 = 0.7, 1.2
        cases.append(
            (
                f"C:{l}:[1,{l - 1}]:+",
                [mu0, mu21],
                [(l - 1) * mu0 / mu21**2, 2 * l / mu21 - mu0 / mu21**2],
            )
        )
    for text in ("D:4:[4]:-", "D:4:[3,1]:+"):
        cases.append((text, [0.9, 2.1], [4 / 0.9, 4 / 2.1]))
    return cases


class TestTwoSummands:
    @pytest.mark.parametrize("text,coeffs,expected", two_summand_cases())
    def test_group_values(self, text, coeffs, expected):
        rep = report(text, coeffs)
        assert np.allclose(group_ricci(rep), expected, rtol=1e-10)

    @pytest.mark.parametrize("text,coeffs,expected", two_summand_cases())
    def test_fast_path_agrees(self, text, coeffs, expected):
        rho = reduced_ricci(parse_flag_spec(text))(coeffs)
        assert np.allclose(rho / np.array(coeffs), expected)


EINSTEIN_POINTS = [
    ("A:3:[2,2]:-", [1.0, 1.0]),
    ("B:5:[1,4]:+", [3.0, 4.0]),  # mu/rho = (l-1)/(l-2)
    ("B:3:[3]:-", [0.5, 1.0]),
    ("B:3:[3]:-", [1.5, 1.0]),  # mu = l/(2l-4) gamma
    ("B:5:[5]:-", [0.5, 1.0]),
    ("B:5:[5]:-", [5.0 / 6.0, 1.0]),
    ("C:4:[1,3]:+", [2.0, 1.0]),  # mu_0 = 2 mu_21
    ("D:4:[4]:-", [1.0, 1.0]),
    ("D:4:[3,1]:+", [1.0, 1.0]),
    ("B:4:[4]:-", [0.5, 1.0, 1.0]),
    ("B:4:[4]:-", [1.0, 1.0, 1.0]),
    ("A:3:[2,1,1]:-", [4.0 / 3.0, 1.0, 1.0, 0.0]),
    ("A:3:[2,1,1]:-", [2.0 / 3.0, 1.0 / 3.0, 1.0, 1.0 / 3.0]),
    ("A:3:[2,1,1]:-", [2.0, 3.0, 1.0, 1.0]),
    ("A:3:[2,1,1]:-", [2.0 / 3.0, 1.0 / 3.0, 1.0, -1.0 / 3.0]),
    ("A:3:[2,1,1]:-", [2.0, 3.0, 1.0, -1.0]),
    ("D:5:[4,1]:-", [2.0 / 3.0, 1.0 / 3.0, 1.0, 1.0 / 3.0]),
    ("D:5:[4,1]:-", [2.0, 3.0, 1.0, 1.0]),
    ("D:5:[4,1]:-", [2.0, 3.0, 1.0, -1.0]),
]

NON_EINSTEIN_POINTS = [
    ("A:3:[2,2]:-", [1.0, 2.0]),
    ("C:3:[3]:-", [1.0, 1.0]),
    ("C:5:[5]:-", [0.3, 1.7]),
    ("B:5:[1,4]:+", [1.0, 1.0]),
    ("D:5:[4,1]:-", [1.0, 1.0, 1.0, 0.0]),
]


class TestEinsteinPoints:
    @pytest.mark.parametrize("text,coeffs", EINSTEIN_POINTS)
    def test_defect_vanishes(self, text, coeffs):
        assert report(text, coeffs).einstein_defect < 1e-12

    @pytest.mark.parametrize("text,coeffs", NON_EINSTEIN_POINTS)
    def test_defect_positive(self, text, coeffs):
        assert report(text, coeffs).einstein_defect > 1e-2

    def test_diagonal_family_of_flat_direction(self):
        # the one-dimensional summand of U(l)/O(l) is Ricci-flat for every
        # metric, so no choice of coefficients can be Einstein
        for x0 in (0.2, 1.0, 5.0):
            rep = report("C:4:[4]:-", [x0, 1.0])
            r = group_ricci(rep)
            assert abs(r[0]) < 1e-12
            assert r[1] > 0.1


class TestThreeSummands:
    def test_one_two_block_diagonal(self):
        mu0, mu1, mu2 = 1.2, 0.7, 1.9
        rep = report("A:3:[2,1,1]:-", [mu0, mu1, mu2, 0.0])
        r0 = 2 / mu0 + mu0 / (mu1 * mu2) - mu2 / (mu0 * mu1) - mu1 / (mu0 * mu2)
        r1 = (
            2 / mu1
            + mu1 / (2 * mu0 * mu2)
            - mu2 / (2 * mu0 * mu1)
            - mu0 / (2 * mu1 * mu2)
        )
        r2 = (
            2 / mu2
            + mu2 / (2 * mu0 * mu1)
            - mu1 / (2 * mu0 * mu2)
            - mu0 / (2 * mu1 * mu2)
        )
        assert np.allclose(group_ricci(rep), [r0, r1, r2])

    @pytest.mark.parametrize("l1,m,l", [(1, 2, 4), (2, 2, 5), (1, 3, 6)])
    def test_three_block_equal_tail(self, l1, m, l):
        mu21, mu31, mu32 = 0.8, 1.3, 1.1
        rep = report(f"A:{l}:[{l1},{m},{m}]:-", [mu21, mu31, mu32])
        r1 = (m / 2) * (
            mu21 / (mu31 * mu32) - mu31 / (mu21 * mu32) - mu32 / (mu21 * mu31)
        ) + (l - 1) / mu21
        r2 = (m / 2) * (
            mu31 / (mu21 * mu32) - mu21 / (mu31 * mu32) - mu32 / (mu21 * mu31)
        ) + (l - 1) / mu31
        r3 = (l1 / 2) * (
            mu32 / (mu21 * mu31) - mu21 / (mu31 * mu32) - mu31 / (mu21 * mu32)
        ) + (l - 1) / mu32
        assert np.allclose(group_ricci(rep), [r1, r2, r3])

    @pytest.mark.parametrize("parts,l", [((1, 2, 3), 5), ((2, 3, 4), 8)])
    def test_three_block_scalar(self, parts, l):
        l1, l2, l3 = parts
        mu21, mu31, mu32 = 0.8, 1.3, 1.1
        rep = report(f"A:{l}:[{l1},{l2},{l3}]:-", [mu21, mu31, mu32])
        S = -(l1 * l2 * l3 / 2) * (
            mu21 / (mu31 * mu32) + mu31 / (mu21 * mu32) + mu32 / (mu21 * mu31)
        ) + (l - 1) * (l1 * l2 / mu21 + l1 * l3 / mu31 + l2 * l3 / mu32)
        assert np.isclose(rep.scalar, S)

    def test_three_summand_split_rank_four(self):
        mu, g1, g2 = 1.1, 0.8, 1.6
        rep = report("B:4:[4]:-", [mu, g1, g2])
        want = [
            6 / mu - 3 * g1 / (4 * mu**2) - 3 * g2 / (4 * mu**2),
            4 / g1 + g1 / (2 * mu**2),
            4 / g2 + g2 / (2 * mu**2),
        ]
        assert np.allclose(group_ricci(rep), want)

    def test_two_block_minus_diagonal(self):
        g, lam1, lam2, l = 1.4, 0.8, 1.15, 5
        rep = report("D:5:[4,1]:-", [g, lam1, lam2, 0.0])
        r0 = (
            2 * (l - 2) / g
            + g / (lam1 * lam2)
            - lam1 / (g * lam2)
            - lam2 / (g * lam1)
        )
        r1 = (l - 2) * (
            2 / lam1
            + lam1 / (2 * g * lam2)
            - lam2 / (2 * g * lam1)
            - g / (2 * lam1 * lam2)
        )
        r2 = (l - 2) * (
            2 / lam2
            + lam2 / (2 * g * lam1)
            - lam1 / (2 * g * lam2)
            - g / (2 * lam1 * lam2)
        )
        assert np.allclose(group_ricci(rep), [r0, r1, r2])

    @pytest.mark.parametrize("d,l", [(2, 5), (3, 5), (2, 6), (4, 6)])
    def test_split_orthogonal_two_block_scalar(self, d, l):
        # the quadratic cross terms carry weight (d-1)/4: each ordered pair
        # of frame vectors bracketing into the first summand shows up once
        g, rho, mu = 1.2, 0.9, 1.5
        rep = report(f"B:{l}:[{d},{l - d}]:+", [g, rho, mu])
        S = (
            d * (d - 1) * (d - 2) / g
            + d * (l - d) * (2 * (l - 2) / rho - (d - 1) * g / (4 * rho**2))
            + d * (l - d + 1) * (2 * (l - 1) / mu - (d - 1) * g / (4 * mu**2))
        )
        assert np.isclose(rep.scalar, S)

    @pytest.mark.parametrize("d,l", [(2, 5), (3, 5), (2, 6), (4, 6)])
    def test_unitary_two_block_scalar(self, d, l):
        mu0, mu1, mu21 = 0.7, 1.3, 1.0
        rep = report(f"C:{l}:[{d},{l - d}]:+", [mu0, mu1, mu21])
        S = (
            d * (d - 1) * (d + 2) / mu1
            - (l - d) * mu0 / mu21**2
            - (l - d) * (d - 1) * (d + 2) * mu1 / (2 * mu21**2)
            + 4 * l * d * (l - d) / mu21
        )
        assert np.isclose(rep.scalar, S)


def partners(rep):
    """The coupled frame columns of each pair (i, j): the r-th of summand i with
    the r-th of summand j."""
    sl = rep.metric.space.slices
    return [
        (sl[i].start + r, sl[j].start + r)
        for i, j, _ in rep.metric.space.pairs
        for r in range(sl[i].stop - sl[i].start)
    ]


class TestMixedMetrics:
    def test_one_two_block_cross_term(self):
        mu0, mu1, mu2, b = 1.1, 0.6, 1.7, 0.4
        rep = report("A:3:[2,1,1]:-", [mu0, mu1, mu2, b])
        disc = np.sqrt(4 * b * b + (mu1 - mu2) ** 2)
        xi1 = (mu1 + mu2 - disc) / 2
        xi2 = (mu1 + mu2 + disc) / 2
        golden = (
            abs(b)
            * (mu2 - mu1)
            * (2 * xi1 * xi2 - mu0**2)
            / (mu0 * (xi1 * xi2) ** 1.5 * (xi2 - xi1))
        )
        vals = [rep.ricci[pq] for pq in partners(rep)]
        assert np.isclose(abs(vals[0]), abs(golden))
        assert np.allclose(vals, vals[0])

    def test_one_two_block_equal_eigenvalues(self):
        mu0, mu, b = 1.1, 1.3, 0.5
        rep = report("A:3:[2,1,1]:-", [mu0, mu, mu, b])
        xi1, xi2 = mu - b, mu + b
        want = [
            mu0 * (xi1 * xi2 + 2 * b * b) / (xi1 * xi2) ** 2,
            (4 * xi1 - mu0) / (2 * xi1**2),
            (4 * xi2 - mu0) / (2 * xi2**2),
        ]
        assert np.allclose(group_ricci(rep), want)
        assert abs(rep.ricci[partners(rep)[0]]) < 1e-12

    @pytest.mark.parametrize("l", [4, 5, 6])
    def test_two_block_minus_cross_term(self, l):
        g, lam1, lam2, b = 1.2, 0.7, 1.6, 0.45
        rep = report(f"D:{l}:[{l - 1},1]:-", [g, lam1, lam2, b])
        disc = np.sqrt(4 * b * b + (lam1 - lam2) ** 2)
        xi1 = (lam1 + lam2 - disc) / 2
        xi2 = (lam1 + lam2 + disc) / 2
        golden = (
            (l - 2)
            * abs(b)
            * (lam1 - lam2)
            * (g**2 - 2 * xi1 * xi2)
            / ((xi2 - xi1) * g * (xi1 * xi2) ** 1.5)
        )
        vals = [rep.ricci[pq] for pq in partners(rep)]
        assert np.isclose(abs(vals[0]), abs(golden))
        assert np.allclose(vals, vals[0])

    def test_two_block_minus_equal_eigenvalues(self):
        g, lam, b, l = 1.4, 1.1, 0.6, 5
        rep = report("D:5:[4,1]:-", [g, lam, lam, b])
        xi1, xi2 = lam - b, lam + b
        want = [
            2 * (l - 3) / g + (g / 2) * (1 / xi1**2 + 1 / xi2**2),
            (l - 2) * (2 / xi1 - g / (2 * xi1**2)),
            (l - 2) * (2 / xi2 - g / (2 * xi2**2)),
        ]
        assert np.allclose(group_ricci(rep), want)


PROPERTY_FLAGS = [
    "A:3:[2,1,1]:-",
    "A:3:[1,2,1]:-",
    "A:3:[2,2]:-",
    "A:4:[1,2,2]:-",
    "A:5:[1,2,3]:-",
    "B:3:[3]:-",
    "B:4:[4]:-",
    "B:5:[2,3]:+",
    "B:5:[1,4]:+",
    "C:3:[3]:-",
    "C:4:[1,3]:+",
    "C:5:[2,3]:+",
    "D:4:[4]:-",
    "D:4:[3,1]:-",
    "D:5:[4,1]:-",
    "D:5:[2,3]:+",
]

class TestRicciProperties:
    @pytest.mark.parametrize("text", PROPERTY_FLAGS)
    def test_symmetry_and_trace(self, text):
        sp = metric_space(parse_flag_spec(text))
        rng = np.random.default_rng(hash(text) % 2**32)
        for _ in range(3):
            rep = curvature(random_metric(sp, rng))
            assert np.max(np.abs(rep.ricci - rep.ricci.T)) < 1e-9
            assert np.isclose(rep.scalar, np.trace(rep.ricci))
            assert np.isclose(rep.scalar, rep.scalar_direct, rtol=1e-9)
        # the trace vector the Ricci formula leaves out is the frame image of
        # z_k = sum_i t[k,i,i]; t has no entry on its trace at all
        I, J, K, _ = sp.structure
        assert not np.any(J == K)

    @pytest.mark.parametrize("text", PROPERTY_FLAGS)
    def test_ricci_is_invariant(self, text):
        # the Ricci form of an invariant metric must lie in the span of the
        # metric-space operators; rebuilding it from its coefficients is an
        # exact round trip
        sp = metric_space(parse_flag_spec(text))
        rng = np.random.default_rng(hash(text) % 2**31)
        rep = curvature(random_metric(sp, rng))
        rebuilt = sum(c * op for c, op in zip(rep.coefficients, sp.operators))
        assert np.max(np.abs(rep.ricci_tangent - rebuilt)) < 1e-9

    @pytest.mark.parametrize("text", PROPERTY_FLAGS)
    def test_scaling_law(self, text):
        sp = metric_space(parse_flag_spec(text))
        rng = np.random.default_rng(abs(hash(text)) % 2**30)
        m = random_metric(sp, rng)
        rep = curvature(m)
        for t in (0.25, 3.0):
            scaled = curvature(make_metric(sp, t * m.coeffs))
            assert np.isclose(scaled.scalar, rep.scalar / t)
            assert np.isclose(scaled.normalized_constant, rep.normalized_constant)
            assert np.allclose(scaled.ricci, rep.ricci / t)

    @pytest.mark.parametrize("text", FLAGS)
    def test_fast_path_matches_frame_path(self, text):
        # the reduced engine, stored over its nonzero products, against the
        # frame route, mixing included
        sp = metric_space(parse_flag_spec(text))
        engine = reduced_ricci(sp.spec)
        rng = np.random.default_rng(abs(hash(text)) % 2**29)
        for _ in range(3):
            m = random_metric(sp, rng)
            want = curvature(m).coefficients
            err = np.max(np.abs(engine(m.coeffs) - want)) / np.max(np.abs(want))
            assert err <= 1e-12

    @pytest.mark.parametrize("text", PROPERTY_FLAGS + ["A:25:[20,3,3]:-"])
    def test_sparse_route_matches_dense_route(self, text):
        # the canonical frame runs over the nonzeros of t; an explicit frame
        # runs the dense contraction; both must give the same report
        sp = metric_space(parse_flag_spec(text))
        rng = np.random.default_rng(abs(hash(text)) % 2**27)
        normal = make_metric(sp, [1.0] * sp.n_sub + [0.0] * (sp.dim - sp.n_sub))
        for m in (normal, random_metric(sp, rng), random_metric(sp, rng)):
            sparse = curvature(m)
            dense = curvature(m, frame=orthonormal_frame(m))
            scale = max(1.0, float(np.max(np.abs(dense.ricci))))
            for name in (
                "ricci",
                "ricci_tangent",
                "coefficients",
                "scalar",
                "scalar_direct",
                "einstein_constant",
                "einstein_defect",
                "normalized_constant",
            ):
                got = np.asarray(getattr(sparse, name))
                want = np.asarray(getattr(dense, name))
                bound = 1e-12 * max(scale, float(np.max(np.abs(want), initial=0.0)))
                assert np.max(np.abs(got - want), initial=0.0) <= bound, name

    @pytest.mark.parametrize("text", PROPERTY_FLAGS)
    def test_frame_structure_antisymmetry(self, text):
        sp = metric_space(parse_flag_spec(text))
        rng = np.random.default_rng(abs(hash(text)) % 2**28)
        T = frame_structure(orthonormal_frame(random_metric(sp, rng)))
        assert np.max(np.abs(T + np.transpose(T, (1, 0, 2)))) < 1e-9

    @pytest.mark.parametrize("text", PROPERTY_FLAGS)
    def test_normal_metric_is_naturally_reductive(self, text):
        # at coefficients all one the metric is the background bi-invariant
        # form, whose structure tensor is antisymmetric in every index pair
        sp = metric_space(parse_flag_spec(text))
        coeffs = [1.0] * sp.n_sub + [0.0] * (sp.dim - sp.n_sub)
        T = frame_structure(orthonormal_frame(make_metric(sp, coeffs)))
        assert np.max(np.abs(T + np.transpose(T, (0, 2, 1)))) < 1e-9


@pytest.mark.parametrize(
    "text", ["A:3:[2,1,1]:-", "D:4:[3,1]:-", "D:5:[4,1]:-", "A:25:[20,3,3]:-"]
)
def test_engine_stack_matches_rows(text):
    # a (B, n) stack and a 3-D stack are evaluated row by row, with no
    # leading-axis mixing
    sp = metric_space(parse_flag_spec(text))
    engine = reduced_ricci(sp.spec)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.5, 2.0, (5000, sp.n_sub))
    mixing = [
        rng.uniform(-0.5, 0.5, 5000) * np.sqrt(x[:, i] * x[:, j]) for i, j, _ in sp.pairs
    ]
    stack = np.column_stack([x, *mixing])
    rows = np.array([engine(c) for c in stack])
    batched = engine(stack)
    assert batched.shape == stack.shape
    assert np.max(np.abs(batched - rows)) <= 1e-14 * np.max(np.abs(rows))
    deeper = engine(stack.reshape(50, 100, -1)).reshape(stack.shape)
    assert np.max(np.abs(deeper - rows)) <= 1e-14 * np.max(np.abs(rows))


@pytest.mark.parametrize(
    "text",
    ["A:3:[2,1,1]:-", "D:5:[4,1]:-", "B:4:[4]:-", "C:5:[2,3]:+", "A:25:[20,3,3]:-"],
)
def test_engine_scalar_matches_frame_route(text):
    # tr(A^-1 Ric) from the coefficients alone, against the frame trace,
    # with and without pair mixing
    sp = metric_space(parse_flag_spec(text))
    engine = reduced_ricci(sp.spec)
    rng = np.random.default_rng(11)
    metrics = [random_metric(sp, rng) for _ in range(6)]
    for m in metrics[:3]:
        want = curvature(m).scalar
        assert abs(engine.scalar(m.coeffs) - want) <= 1e-12 * abs(want)
    # a (2, 3, n) stack gives a (2, 3) array, row by row
    stack = np.array([m.coeffs for m in metrics])
    rows = np.array([engine.scalar(c) for c in stack])
    batched = engine.scalar(stack.reshape(2, 3, -1))
    assert batched.shape == (2, 3)
    assert np.max(np.abs(batched.ravel() - rows)) <= 1e-14 * np.max(np.abs(rows))


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "B:4:[2,2]:+", "A:3:[2,1,1]:-"])
def test_u_map_matches_dense_contraction(text):
    # U(x, y) read off the nonzeros of t, against the dense d^3 contraction
    sp = metric_space(parse_flag_spec(text))
    rng = np.random.default_rng(5)
    m = random_metric(sp, rng)
    V = orthonormal_frame(m).vectors
    A = m.matrix
    t = dense_oracle.dense_structure(sp)
    for _ in range(3):
        x, y = rng.standard_normal((2, sp.tangent_dim))
        bx = np.einsum("ia,j,ijc->ac", V, x, t)
        by = np.einsum("ia,j,ijc->ac", V, y, t)
        want = V @ (0.5 * (bx @ (A @ y) + by @ (A @ x)))
        assert np.max(np.abs(u_map(m, x, y) - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize(
    "text", ["B:3:[3]:-", "A:3:[2,1,1]:-", "D:5:[4,1]:-", "A:5:[1,2,3]:-", "A:25:[20,3,3]:-"]
)
def test_terms_evaluate_to_the_engine(text):
    # the engine's floats are its exact Laurent terms summed: at a rational
    # metric, with a nonzero mixing coefficient on a pair flag, both outputs
    # match the terms summed in Fractions, the scalar as sum_r h_r rho_r
    # |O_r|^2 with h the exact coefficients of A^-1; the last exponents are
    # those of the pair determinants x_i x_j - b^2
    sp = metric_space(parse_flag_spec(text))
    engine = reduced_ricci(sp.spec)
    terms = engine.terms()
    s, width = sp.n_sub, sp.dim + len(sp.pairs)
    assert len(terms) == sp.dim
    assert all(
        len(e) == width and all(type(v) is int for v in e) and type(c) is Fraction and c
        for poly in terms
        for e, c in poly.items()
    )
    assert engine.pairs == tuple((i, j) for i, j, _ in sp.pairs)
    rng = np.random.default_rng(13)
    c = [Fraction(int(v), 16) for v in rng.integers(8, 33, s)]
    c += [Fraction(int(v), 16) for v in rng.choice([-4, -3, -1, 2, 3, 4], len(sp.pairs))]
    det = [c[i] * c[j] - c[s + k] ** 2 for k, (i, j) in enumerate(engine.pairs)]
    h = [1 / v for v in c[:s]] + [-b / D for b, D in zip(c[s:], det)]
    for (i, j), D in zip(engine.pairs, det):
        h[i], h[j] = c[j] / D, c[i] / D
    at = c + det
    rho = [
        sum(v * math.prod(z**k for z, k in zip(at, e)) for e, v in poly.items())
        for poly in terms
    ]
    norms = [int(round(N)) for N in sp.operator_rows[1]]
    scalar = sum(q * r * N for q, r, N in zip(h, rho, norms))
    coeffs = np.array(c, dtype=float)
    want = np.array(rho, dtype=float)
    assert np.max(np.abs(engine(coeffs) - want)) <= 1e-14 * np.max(np.abs(want))
    assert abs(engine.scalar(coeffs) - float(scalar)) <= 1e-14 * abs(float(scalar))


def test_terms_are_built_once_and_read_only():
    engine = reduced_ricci(parse_flag_spec("D:5:[4,1]:-"))
    terms = engine.terms()
    assert engine.terms() is terms and isinstance(terms, tuple)
    with pytest.raises(TypeError):
        terms[0][next(iter(terms[0]))] = Fraction(0)


ORACLE_FLAGS = sorted(
    set(FLAGS + PAIR_FLAGS + ["C:25:[12,13]:+", "B:18:[9,9]:+", "D:25:[24,1]:-"])
)


@pytest.mark.parametrize("text", ORACLE_FLAGS)
def test_engine_equals_the_fitted_oracle(text):
    # the exact terms from the integer block sums are the operator-level
    # engine's float terms fitted to small rationals, as polynomials (the
    # fit keeps a term that sums to zero; the exact terms leave it out), and
    # both float engines agree on random mixed metrics
    sp = metric_space(parse_flag_spec(text))
    engine, oracle = reduced_ricci(sp.spec), fit_oracle.ReducedRicci(sp)
    fitted = [{e: c for e, c in poly.items() if c} for poly in fit_oracle._ricci_terms(oracle)]
    assert [dict(poly) for poly in engine.terms()] == fitted
    rng = np.random.default_rng(abs(hash(text)) % 2**25)
    for _ in range(3):
        c = random_metric(sp, rng).coeffs
        want = oracle(c)
        assert np.max(np.abs(engine(c) - want)) <= 1e-13 * np.max(np.abs(want))
        assert abs(engine.scalar(c) - oracle.scalar(c)) <= 1e-13 * abs(oracle.scalar(c))


def rotated_frame(m, rng):
    """The canonical frame of a metric turned by a random orthogonal Q."""
    fr = orthonormal_frame(m)
    Q, _ = np.linalg.qr(rng.standard_normal((len(fr.vectors),) * 2))
    return Frame(m, fr.vectors @ Q)


@pytest.mark.parametrize("text", FLAGS)
def test_slab_route_matches_the_full_contraction(text):
    # the explicit-frame route (named for the slab contraction it replaced)
    # sums through the frame's Gram matrices and never forms T; the
    # reference is the full d^3 einsum over dense t, in a rotated frame
    # where T has no zeros to lean on and in a frame that is not
    # orthonormal, which the Gram sums must not assume
    sp = metric_space(parse_flag_spec(text))
    d = sp.tangent_dim
    rng = np.random.default_rng(abs(hash(text)) % 2**26)
    m = random_metric(sp, rng)
    frame = rotated_frame(m, rng)
    T = dense_oracle.frame_structure(frame)
    scale = max(1.0, float(np.max(np.abs(T))))
    assert np.max(np.abs(frame_structure(frame) - T)) <= 1e-13 * scale

    # singular values of I + 0.25 G / sqrt(d) lie in about [0.5, 1.5]
    skewed = Frame(m, frame.vectors @ (np.eye(d) + 0.25 * rng.standard_normal((d, d)) / np.sqrt(d)))
    for fr in (frame, skewed):
        want = dense_oracle.dense_terms(fr)
        got = curvature_module._dense_terms(fr)
        for g, w in zip(got, want):
            bound = 1e-12 * max(1.0, float(np.max(np.abs(w))))
            assert np.max(np.abs(np.asarray(g) - w)) <= bound


def test_rotated_frame_report_holds_no_d3_array():
    # one d^3 float64 array at d = 129 is 16.4 MB; the explicit route holds
    # a few d x d arrays (P, R, M or N, one product per key, the frame's
    # inverse and the outputs), 7.0 d^2 floats at its peak
    sp = metric_space(parse_flag_spec("A:25:[20,3,3]:-"))
    d = sp.tangent_dim
    rng = np.random.default_rng(3)
    m = random_metric(sp, rng)
    frame = rotated_frame(m, rng)
    want = curvature(m)  # builds the lazy tables of the space
    tracemalloc.start()
    try:
        got = curvature(m, frame=frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * d**2
    assert np.max(np.abs(got.ricci_tangent - want.ricci_tangent)) < 1e-10


def test_canonical_report_makes_no_dense_array():
    # a canonical report makes no d x d array: the frame is held as its
    # entries over the plan, every scalar and the coefficients are summed
    # over the Ricci entries, and ricci and ricci_tangent stay entries until
    # read.  Its tracemalloc peak at d = 129 is about half a d^2 array; one
    # dense form, frame or ric - c I would add a whole one
    sp = metric_space(parse_flag_spec("A:25:[20,3,3]:-"))
    d = sp.tangent_dim
    m = random_metric(sp, np.random.default_rng(5))
    curvature(m)  # builds the plan of the space
    tracemalloc.start()
    try:
        got = curvature(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * d**2
    assert got.einstein_defect > 0


def held_arrays(tree):
    """The arrays a report holds in its fields and its frame, tuples walked;
    its metric and the space's plan are not the report's."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, tuple):
        return [a for item in tree for a in held_arrays(item)]
    if isinstance(tree, (curvature_module.CurvatureReport, Frame)):
        return [a for k, v in vars(tree).items() if k != "metric" for a in held_arrays(v)]
    return []


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-", "C:5:[1,4]:+"])
def test_canonical_forms_are_scattered_at_their_first_read(text, monkeypatch):
    sp = metric_space(parse_flag_spec(text))
    d = sp.tangent_dim
    rng = np.random.default_rng(list(text.encode()))
    # no pair, or b = 0: every entry is a single product, so the oracle's
    # dense forms round alike
    _, coeffs = planned_cases(sp, rng)[0]
    m = make_metric(sp, coeffs)
    curvature(m)  # builds the plan of the space

    def refuse(*args):
        raise AssertionError("the report made a d x d array")

    # neither the (n, d^2) product of the operator rows nor a scatter runs
    with monkeypatch.context() as patch:
        patch.setattr(curvature_module, "_form_coefficients", refuse)
        patch.setattr(curvature_module, "_scatter", refuse)
        got = curvature(m)
    assert all(a.ndim == 1 and a.size < d * d for a in held_arrays(got))
    assert "vectors" not in vars(got.frame)

    want = dense_oracle.canonical_report(m)
    for name in ("ricci", "ricci_tangent"):
        form = getattr(got, name)
        assert np.array_equal(form, want[name]), name
        assert form.shape == (d, d) and not form.flags.writeable
        assert getattr(got, name) is form
        with pytest.raises(ValueError):
            form[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.ricci = want["ricci"]

    P = got.ricci_tangent.copy()
    P[0, 0] += 1e-6
    moved = dataclasses.replace(got, ricci_tangent=P)
    assert moved.ricci_tangent is P and moved.ricci is got.ricci
    assert np.array_equal(moved.coefficients, got.coefficients)
    assert moved.einstein_defect == got.einstein_defect


@pytest.mark.parametrize("text", FLAGS)
def test_block_sums_match_the_dense_slices(text):
    # the engine's block sums come from the nonzeros of t; the reference
    # contracts dense slices of t through each pair's B0.  Both are integers
    # to well within the engine's tolerance, and the engine keeps those integers
    sp = metric_space(parse_flag_spec(text))
    blocks = [(i, i, None) for i in range(sp.n_sub)]
    for i, j, B0 in sp.pairs:
        blocks += [(j, i, B0), (i, j, B0.T)]
    got = curvature_module._block_sums(sp, [(u, v) for u, v, _ in blocks])
    want = dense_oracle.block_sums(sp, blocks)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    assert np.max(np.abs(got - np.rint(got))) <= 1e-14 * scale
    engine = reduced_ricci(sp.spec)
    assert engine._G.dtype == np.int64 and np.array_equal(engine._G, np.rint(want))


@pytest.mark.parametrize("text", FLAGS + ["C:25:[12,13]:+"])
def test_planned_report_equals_the_dense_composition(text):
    # the report part of the engine sweep that CI runs on ranks 11 to 16
    sp = metric_space(parse_flag_spec(text))
    reports_agree(sp, np.random.default_rng(list(text.encode())))


@pytest.mark.parametrize("text", FLAGS)
def test_column_signs_move_no_report_bit(text):
    # the canonical frame fixes no column sign: a sign s_a on column a of V
    # is s_a on row a of W = V^-1, every product of T[a,b,c] takes s_a s_b
    # s_c exactly, so the Ricci entry (a, b) takes s_a s_b, and sum T^2,
    # tr(V^T K V) and W^T ric W are unchanged bit for bit
    sp = metric_space(parse_flag_spec(text))
    d = sp.tangent_dim
    rng = np.random.default_rng(list(text.encode()))
    for _, coeffs in planned_cases(sp, rng):
        m = make_metric(sp, coeffs)
        plan, v, w = orthonormal_frame(m).sparse
        s = rng.choice([-1.0, 1.0], d)
        flipped = Frame(m, sparse=(plan, v * s[plan.frame[0] % d], w * s[plan.inverse[3] // d]))
        ric, square, trace = curvature_module._planned_ricci(orthonormal_frame(m))
        got, got_square, got_trace = curvature_module._planned_ricci(flipped)
        row, col = np.divmod(plan.ricci[0], d)
        assert np.array_equal(got, s[row] * s[col] * ric)
        assert got_square == square and got_trace == trace
        tangent = [
            curvature_module._coo_values(plan.tangent, entries, (ws, ws))
            for entries, ws in ((ric, w), (got, flipped.sparse[2]))
        ]
        assert np.array_equal(tangent[1].view(np.int64), tangent[0].view(np.int64))


def plan_arrays(tree):
    """Every array of a frame plan, its nested tuples walked."""
    if isinstance(tree, np.ndarray):
        return [tree]
    items = tree if isinstance(tree, tuple) else vars(tree).values()
    return [a for item in items for a in plan_arrays(item)]


def test_frame_plan_is_read_only():
    # the plan is kept on the metric space and shared by every later report
    sp = metric_space(parse_flag_spec("D:5:[4,1]:-"))
    plan = orthonormal_frame(make_metric(sp, [1.0, 1.2, 0.8, 0.3])).sparse[0]
    arrays = plan_arrays(plan)
    assert len(arrays) > 20
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_one_plan_per_flag(cold_caches, monkeypatch):
    # the plan is laid out as if every pair were mixed, so b = 0, b below
    # 1e-14 and mixed b all reuse the one plan of the flag
    builds = []
    build = invariant_module._frame_plan

    def counted(space):
        builds.append(str(space.spec))
        return build(space)

    monkeypatch.setattr(invariant_module, "_frame_plan", counted)
    sp = invariant_module.metric_space(parse_flag_spec("D:5:[4,1]:-"))
    rng = np.random.default_rng(17)
    (i, j, _), = sp.pairs
    fracs = np.r_[0.0, 1e-15, rng.uniform(-0.5, 0.5, 998)]
    for frac in rng.permutation(fracs):
        x = rng.uniform(0.5, 2.0, 3)
        curvature_module.curvature(make_metric(sp, np.r_[x, frac * np.sqrt(x[i] * x[j])]))
    assert builds == ["D:5:[4,1]:-"]
    large = invariant_module.metric_space(parse_flag_spec("A:25:[20,3,3]:-"))
    for _ in range(200):
        curvature_module.curvature(make_metric(large, rng.uniform(0.5, 2.0, 3)))
    assert builds == ["D:5:[4,1]:-", "A:25:[20,3,3]:-"]


def test_cold_caches_build_a_fresh_plan(request):
    spec = parse_flag_spec("B:4:[4]:-")
    shared = metric_space(spec)
    coeffs = [1.0, 1.5, 0.5]
    curvature(make_metric(shared, coeffs))
    kept = shared.frame_plan
    request.getfixturevalue("cold_caches")
    fresh = invariant_module.metric_space(spec)
    assert fresh is not shared and "frame_plan" not in vars(fresh)
    report = curvature_module.curvature(make_metric(fresh, coeffs))
    assert report.frame.sparse[0] is not kept
    assert np.array_equal(report.ricci, curvature(make_metric(shared, coeffs)).ricci)
