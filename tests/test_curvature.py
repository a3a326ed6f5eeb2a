import numpy as np
import pytest

from einflag.curvature import (
    curvature,
    frame_structure,
    group_ricci,
    reduced_ricci,
    u_map,
)
from einflag.flag import parse_flag_spec
from einflag.invariant import make_metric, metric_space, orthonormal_frame


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
        vals = [rep.ricci[pq] for pq in rep.frame.partners]
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
        assert abs(rep.ricci[rep.frame.partners[0]]) < 1e-12

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
        vals = [rep.ricci[pq] for pq in rep.frame.partners]
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
        I, J, K, _ = sp.structure_coo
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

    @pytest.mark.parametrize("text", PROPERTY_FLAGS)
    def test_fast_path_matches_frame_path(self, text):
        # the reduced engine against the frame route, mixing included
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
    # a (B, n) stack is evaluated row by row, with no leading-axis mixing
    sp = metric_space(parse_flag_spec(text))
    engine = reduced_ricci(sp.spec)
    rng = np.random.default_rng(7)
    stack = np.array([random_metric(sp, rng).coeffs for _ in range(6)])
    rows = np.array([engine(c) for c in stack])
    batched = engine(stack)
    assert batched.shape == stack.shape
    assert np.max(np.abs(batched - rows)) <= 1e-14 * np.max(np.abs(rows))
    deeper = engine(stack.reshape(2, 3, -1)).reshape(stack.shape)
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
    for _ in range(3):
        x, y = rng.standard_normal((2, sp.tangent_dim))
        bx = np.einsum("ia,j,ijc->ac", V, x, sp.structure)
        by = np.einsum("ia,j,ijc->ac", V, y, sp.structure)
        want = V @ (0.5 * (bx @ (A @ y) + by @ (A @ x)))
        assert np.max(np.abs(u_map(m, x, y) - want)) <= 1e-12 * (1 + np.max(np.abs(want)))
