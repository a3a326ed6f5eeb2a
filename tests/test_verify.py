"""The variational check, probed through the reduced engine, the reduced
route against a corrupt exact term of the engine, the solution
certificates against the frame route, the count bounds read
from the published table, the isotropy checks of the suite, computed on
each generator's support, the Killing/trace ratios, the exact Jacobi and
orthogonal-basis checks against mutated constants and matrices, and the
refusals that come before any check."""

import copy
import dataclasses
import importlib
import re
import types
from fractions import Fraction

import dense_oracle
import numpy as np
import pytest
from conftest import ad_matrix, dense_generators, edit_first_generator

from einflag import einstein, invariant, verify
from einflag.algebra import build_algebra
from einflag.cli import _table_rows
from einflag.errors import NoExactCount, TooManyParameters
from einflag.flag import GeneratorTable, parse_flag_spec
from einflag.curvature import curvature
from einflag.invariant import make_metric, metric_space

# the module itself: the package exports its function ``curvature`` under
# the same name
curvature_module = importlib.import_module("einflag.curvature")


def test_variational_check_builds_no_frame(monkeypatch):
    calls = []
    curvature = verify.curvature

    def counted_curvature(*args, **kwargs):
        calls.append(args)
        return curvature(*args, **kwargs)

    monkeypatch.setattr(verify, "curvature", counted_curvature)
    ctx = verify._Context(parse_flag_spec("D:5:[4,1]:-"))
    detail = verify._check_variational_critical(ctx)
    assert "at solutions" in detail
    assert calls == []


def test_variational_check_rejects_a_non_critical_point(monkeypatch):
    # the true solutions pass, and the same points moved off the Einstein
    # locus fail; the first coefficient of D:5:[4,1]:- is unpaired, so the
    # moved points stay positive definite
    spec = parse_flag_spec("D:5:[4,1]:-")
    ctx = verify._Context(spec)
    real = ctx.solutions
    assert real
    assert "at solutions" in verify._check_variational_critical(ctx)
    moved = []
    for s in real:
        c = np.array(s.coeffs)
        c[0] *= 1.1
        moved.append(types.SimpleNamespace(rule_id=s.rule_id, coeffs=c))
    monkeypatch.setattr(verify._Context, "solutions", property(lambda self: moved))
    with pytest.raises(verify._Failure, match="not critical"):
        verify._check_variational_critical(verify._Context(spec))


def test_reduced_route_sees_a_corrupt_exact_term(cold_caches, monkeypatch):
    # the engine's floats sum the exact terms it builds, so one coefficient
    # of rho_0 off by 1/1000 where they are built fails the check against
    # the frame route; the solve runs first, on the sound engine
    spec = parse_flag_spec("D:5:[4,1]:-")
    assert {r.name: r.passed for r in verify.run_checks(spec)}["reduced-route"]
    built = []

    def corrupted(poly):
        if not built:
            first = next(iter(poly))
            poly = {**poly, first: poly[first] + Fraction(1, 1000)}
        built.append(poly)
        return types.MappingProxyType(poly)

    monkeypatch.setattr(curvature_module, "MappingProxyType", corrupted)
    verify.reduced_ricci.cache_clear()
    results = {r.name: r for r in verify.run_checks(spec)}
    assert not results["reduced-route"].passed
    assert "reduced engine disagrees with the frame route" in results["reduced-route"].detail
    assert verify.reduced_ricci(spec).terms()[0] == built[0]


@pytest.mark.parametrize("edit, message", [
    # an engine constant 1e-9 off the frame route's
    (lambda s: dataclasses.replace(s, constant=s.constant * (1 + 1e-9)), "engine and frame route differ"),
    # a metric that is no Einstein metric, under the solution's engine numbers
    (lambda s: dataclasses.replace(s, metric=make_metric(s.metric.space, s.coeffs * [1.1, 1.0])),
     "frame defect"),
])
def test_solution_certificates_compare_with_the_frame_route(monkeypatch, edit, message):
    # solve certifies on the engine alone; the check's frame-route reports
    # refuse a solution whose numbers the frame route does not confirm
    ctx = verify._Context(parse_flag_spec("B:3:[3]:-"))
    assert "frame route agrees to" in verify._check_solution_certificates(ctx)
    edited = [edit(s) for s in ctx.solutions]
    monkeypatch.setattr(verify._Context, "solutions", property(lambda self: edited))
    with pytest.raises(verify._Failure, match=message):
        verify._check_solution_certificates(verify._Context(parse_flag_spec("B:3:[3]:-")))


@pytest.mark.parametrize(
    "text,count,detail",
    [
        ("A:5:[2,2,2]:-", 4, "count 4 <= 4"),
        ("B:4:[2,2]:+", 3, "count 3 <= 3"),
        ("B:5:[3,2]:+", 1, "count 1 <= 4; existence inequality holds (q = 169 > 0)"),
        ("C:5:[2,3]:+", 0, "count 0 <= 2"),
        ("D:5:[4,1]:-", 6, "count 6, normal metric not Einstein, as the exact Table 1 row 6"),
        ("D:4:[3,1]:+", 1, "count 1, normal metric Einstein, as the exact Table 1 row 1"),
        ("D:5:[1,4]:+", 2, "count 2; no published row for this shape"),
    ],
)
def test_count_bounds_read_the_published_table(monkeypatch, text, count, detail):
    # the row is Table 1's, from published_row; no solve runs here
    fake = [types.SimpleNamespace()] * count
    monkeypatch.setattr(verify._Context, "solutions", property(lambda self: fake))
    ctx = verify._Context(parse_flag_spec(text))
    assert verify._check_count_bounds(ctx) == detail


def test_count_bounds_reject_a_count_off_an_exact_row(monkeypatch):
    fake = [types.SimpleNamespace()] * 9
    monkeypatch.setattr(verify._Context, "solutions", property(lambda self: fake))
    with pytest.raises(verify._Failure, match="count 9, normal metric not Einstein; the exact Table 1 row is 6"):
        verify._check_count_bounds(verify._Context(parse_flag_spec("D:5:[4,1]:-")))


def test_count_bounds_reject_too_many_solutions(monkeypatch):
    fake = [types.SimpleNamespace()] * 5
    monkeypatch.setattr(verify._Context, "solutions", property(lambda self: fake))
    with pytest.raises(verify._Failure, match="exceeds the bound 4"):
        verify._check_count_bounds(verify._Context(parse_flag_spec("A:5:[2,2,2]:-")))


def _broken_context(monkeypatch, text, rows, cols, deltas):
    # deltas added to the space's first isotropy generator at (rows, cols)
    sp = metric_space(parse_flag_spec(text))
    bad = edit_first_generator(sp.reps, sp.tangent_dim, rows, cols, deltas)
    broken = dataclasses.replace(sp, reps=bad)
    monkeypatch.setattr(verify._Context, "space", property(lambda self: broken))
    return verify._Context(sp.spec), broken


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_isotropy_checks_pass_block_by_block(text):
    ctx = verify._Context(parse_flag_spec(text))
    assert "invariant under isotropy" in verify._check_metric_invariance(ctx)
    assert "Ric(Ad(k)X" in verify._check_ricci_equivariance(ctx)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "B:4:[4]:-"])
def test_isotropy_checks_see_a_generator_leaving_a_summand(monkeypatch, text):
    # a skew pair of entries at (0, d - 1) and (d - 1, 0)
    ctx, broken = _broken_context(monkeypatch, text, [0, -1], [-1, 0], [0.3, -0.3])
    assert broken.slices[-1].start > 0  # entry (0, -1) leaves the first summand
    with pytest.raises(verify._Failure, match="not isotropy-invariant"):
        verify._check_metric_invariance(ctx)
    with pytest.raises(verify._Failure, match="not isotropy-equivariant"):
        verify._check_ricci_equivariance(ctx)


def test_metric_invariance_sees_a_non_skew_block(monkeypatch):
    # a symmetric part inside the first summand block breaks G^T A + A G = 0
    # while the generator still preserves every summand
    ctx, _ = _broken_context(monkeypatch, "D:5:[4,1]:-", [0], [0], [0.3])
    with pytest.raises(verify._Failure, match="not isotropy-invariant"):
        verify._check_metric_invariance(ctx)


# ---------------------------------------------------------------------------
# the two numpy replacements against scipy as the reference


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 6), ("B", 4), ("C", 6), ("D", 6), ("A", 25)]
)
def test_killing_trace_ratios_match_the_generalized_eigh(family, rank):
    linalg = pytest.importorskip("scipy.linalg")
    m = build_algebra(family, rank)
    mats = np.stack([e.matrix.astype(float).reshape(-1) for e in m.basis])
    ref = linalg.eigh(-m.killing_matrix, mats @ mats.T, eigvals_only=True)
    got = verify._killing_trace_ratios(m, verify._basis_entries(m.basis))
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _support_members(groups, d, base=0.0):
    """Every element of the support groups as a dense d x d matrix, in group
    order: its block on the support, ``base`` on the diagonal elsewhere."""
    out = []
    for order, blocks in groups:
        for row, M in zip(order, blocks):
            S = row[: blocks.shape[1]]
            G = base * np.eye(d)
            G[np.ix_(S, S)] = M
            out.append(G)
    return np.array(out).reshape(-1, d, d)


def _by_support(stack, identity):
    """The generators whose part off ``identity`` is nonzero, ordered by
    the size of its support, then by index."""
    dev = stack - identity
    touched = np.any(dev != 0, axis=1) | np.any(dev != 0, axis=2)
    size = touched.sum(axis=1)
    order = np.lexsort((np.arange(len(stack)), size))
    return stack[order[size[order] > 0]]


@pytest.mark.parametrize("text", ["B:3:[3]:-", "D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_rotation_matches_expm_on_the_rep_blocks(text):
    # exp(0.7 G) = I + (exp(0.7 G_SS) - I) on the support S of G, against
    # expm of the full d x d generator
    linalg = pytest.importorskip("scipy.linalg")
    space = metric_space(parse_flag_spec(text))
    d = space.tangent_dim
    reps, _ = verify._isotropy_groups(space)
    assert reps
    rots = [(order, verify._rotation(G, 0.7)) for order, G in reps]
    for G, R in zip(_support_members(reps, d), _support_members(rots, d, base=1.0)):
        assert np.max(np.abs(R - linalg.expm(0.7 * G))) <= 1e-14


FLAGS = [str(s) for s in _table_rows(6)] + ["A:25:[20,3,3]:-"]


def _every_column(d):
    """A row pattern as wide as d, which puts the kernel on every column."""
    return np.tile(np.arange(d), (d, 1))


def _assert_dense_residuals(P, groups, group, dense, reference):
    # the kernel's rows S and transposed columns S, put back into d x d,
    # against the dense residual of each generator; the largest entry of
    # each generator's rows over the columns the kernel picks, bit for bit
    # that over every column; and the largest entry the check takes from
    # each generator alone.  Returns how many groups ran on fewer columns.
    d = P.shape[0]
    at = narrow = 0
    for orders, blocks in groups:
        halves = [
            (verify._support_residuals(side, orders, blocks, group, verify._row_pattern(side)),
             verify._support_residuals(side, orders, blocks, group, _every_column(d))[0])
            for side in (P, P.T)
        ]
        (row_half, row_cols), full_rows = halves[0]
        (col_half, col_cols), full_cols = halves[1]
        narrow += row_cols.shape[1] < d
        k = blocks.shape[1]
        for i, order in enumerate(orders):
            S = order[:k]
            assert np.max(np.abs(row_half[i, :, :k] - col_half[i, :, :k].T)) <= 1e-13
            got = np.zeros((d, d))
            got[np.ix_(S, row_cols[i])] = row_half[i]
            got[np.ix_(col_cols[i], S)] = col_half[i].T
            ref = reference(dense[at])
            assert np.max(np.abs(got - ref)) <= 1e-13
            assert np.max(np.abs(row_half[i])) == np.max(np.abs(full_rows[i]))
            assert np.max(np.abs(col_half[i])) == np.max(np.abs(full_cols[i]))
            alone = [(orders[i : i + 1], blocks[i : i + 1])]
            worst = verify._action_residual(P[None], [(alone, group)])[0]
            assert abs(worst - np.max(np.abs(ref))) <= 1e-13
            at += 1
    assert at == len(dense)
    return narrow


@pytest.mark.parametrize(
    "text,narrow", [("C:5:[1,4]:+", 0), ("A:8:[3,3,3]:-", 0), ("A:25:[20,3,3]:-", 6)]
)
def test_narrow_columns_where_they_save_enough(text, narrow):
    # the narrow column set costs a fixed handful of array calls: at d = 9
    # and 27 no group of the sampled metric saves enough for it, at d = 129
    # every group does: two support sizes each of rep, rotation and sign
    space = metric_space(parse_flag_spec(text))
    d = space.tangent_dim
    P = space.metric_matrix(verify._Context(space.spec).sample_coeffs())
    pattern = verify._row_pattern(P)
    reps, signs = verify._isotropy_groups(space)
    rots = [(order, verify._rotation(G, 0.7)) for order, G in reps]
    widths = [
        verify._support_residuals(P, order, blocks, group, pattern)[1].shape[1]
        for groups, group in ((reps, False), (signs, True), (rots, True))
        for order, blocks in groups
    ]
    assert sum(w < d for w in widths) == narrow == (len(widths) if narrow else 0)


@pytest.mark.parametrize("text", FLAGS)
def test_support_kernel_equals_the_dense_products(text):
    space = metric_space(parse_flag_spec(text))
    d = space.tangent_dim
    eye = np.eye(d)
    reps, signs = verify._isotropy_groups(space)
    rots = [(order, verify._rotation(G, 0.7)) for order, G in reps]
    # the groups hold every generator G, and every sign action S with
    # S - I != 0, ordered by support size
    G = _by_support(dense_generators(space.reps, d), 0.0)
    S = _by_support(dense_generators(space.signs, d), eye)
    assert np.array_equal(_support_members(reps, d), G)
    assert np.array_equal(_support_members(signs, d, base=1.0), S)
    R = verify._rotation(G, 0.7) if len(G) else G
    # dense random forms, on every column, and the forms the checks sample,
    # whose zeros let the kernel leave columns out
    Q = np.random.default_rng(3).standard_normal((d, d))
    ctx = verify._Context(space.spec)
    metrics = [space.metric_matrix(ctx.sample_coeffs()) for _ in range(3)]
    ricci = curvature(make_metric(space, ctx.sample_coeffs())).ricci_tangent
    narrow = 0
    for P in (Q + Q.T, Q, *metrics, ricci):
        narrow += _assert_dense_residuals(P, reps, False, G, lambda M: M.T @ P + P @ M)
        narrow += _assert_dense_residuals(P, signs, True, S, lambda M: M.T @ P @ M - P)
        narrow += _assert_dense_residuals(P, rots, True, R, lambda M: M.T @ P @ M - P)
    if text == "A:25:[20,3,3]:-":
        assert narrow > 0


def test_support_groups_read_rows_and_columns():
    # generator 0 touches 1 and 3 through one entry; generator 1 touches 0
    # and 4, and its entry at (2, 2) cancelled to zero, which touches
    # nothing; generator 2 vanishes
    table = GeneratorTable(
        3, np.array([0, 1, 1]), np.array([1, 0, 2]), np.array([3, 4, 2]), np.array([2.0, 5.0, 0.0])
    )
    (order, blocks), = verify._support_groups(table, 5)
    assert order[:, :2].tolist() == [[1, 3], [0, 4]]
    assert order.tolist() == [[1, 3, 0, 2, 4], [0, 4, 1, 2, 3]]
    assert blocks.tolist() == [[[0.0, 2.0], [0.0, 0.0]], [[0.0, 5.0], [0.0, 0.0]]]


def test_identity_support_groups_read_the_deviation():
    # T = diag(0, -1, 1), its zero not stored: T - I is nonzero at 0 and 1
    table = GeneratorTable(1, np.array([0, 0]), np.array([1, 2]), np.array([1, 2]), np.array([-1.0, 1.0]))
    (order, blocks), = verify._support_groups(table, 3, identity=True)
    assert order[:, :2].tolist() == [[0, 1]]
    assert blocks.tolist() == [[[0.0, 0.0], [0.0, -1.0]]]


def test_isotropy_groups_are_built_once_per_run(monkeypatch):
    # metric-invariance and ricci-equivariance share one set of groups
    built, build = [], verify._isotropy_groups

    def counted(space):
        built.append(space)
        return build(space)

    monkeypatch.setattr(verify, "_isotropy_groups", counted)
    results = verify.run_checks("D:5:[4,1]:-")
    assert all(r.passed for r in results)
    assert len(built) == 1


def test_ricci_equivariance_sees_a_wrong_rotation(monkeypatch):
    # exp(0.7 G) is implied by G, so only a wrong rotation shows here
    rotation = verify._rotation
    monkeypatch.setattr(verify, "_rotation", lambda G, t: 1.01 * rotation(G, t))
    with pytest.raises(verify._Failure, match="not isotropy-equivariant"):
        verify._check_ricci_equivariance(verify._Context(parse_flag_spec("D:5:[4,1]:-")))


def _kernel_alone(monkeypatch):
    # the operator commutation bound would see these edits too
    monkeypatch.setattr(verify, "commutation_residual", lambda space: 0.0)


def test_support_kernel_sees_a_twisted_rep_entry(monkeypatch):
    # a skew twist inside the second summand of the pair keeps every
    # summand but breaks G_jj B0 = B0 G_ii, which only the mixed blocks of
    # a metric or a Ricci form see
    _kernel_alone(monkeypatch)
    sp = metric_space(parse_flag_spec("D:5:[4,1]:-"))
    a = sp.slices[sp.pairs[0][1]].start
    ctx, _ = _broken_context(monkeypatch, "D:5:[4,1]:-", [a, a + 1], [a + 1, a], [0.3, -0.3])
    with pytest.raises(verify._Failure, match="not isotropy-invariant"):
        verify._check_metric_invariance(ctx)
    with pytest.raises(verify._Failure, match="not isotropy-equivariant"):
        verify._check_ricci_equivariance(ctx)


def test_support_kernel_sees_a_flipped_sign(monkeypatch):
    # one diagonal entry of a sign action flipped on the first summand of
    # the pair changes the sign of that row of the mixed block alone
    _kernel_alone(monkeypatch)
    sp = metric_space(parse_flag_spec("D:5:[4,1]:-"))
    d = sp.tangent_dim
    a = sp.slices[sp.pairs[0][0]].start
    s = dense_generators(sp.signs, d)[0, a, a]
    assert abs(s) == 1.0
    bad = edit_first_generator(sp.signs, d, [a], [a], [-2.0 * s])
    broken = dataclasses.replace(sp, signs=bad)
    monkeypatch.setattr(verify._Context, "space", property(lambda self: broken))
    ctx = verify._Context(sp.spec)
    with pytest.raises(verify._Failure, match="not isotropy-invariant"):
        verify._check_metric_invariance(ctx)
    with pytest.raises(verify._Failure, match="not isotropy-equivariant"):
        verify._check_ricci_equivariance(ctx)


def test_metric_invariance_sees_a_perturbed_off_block_entry(monkeypatch):
    # (0, d - 1) joins two summands that are not a pair, so every invariant
    # metric is zero there
    _kernel_alone(monkeypatch)
    sp = metric_space(parse_flag_spec("D:5:[4,1]:-"))
    assert sp.slices[0].stop <= sp.slices[-1].start
    assert all({i, j} != {0, sp.n_sub - 1} for i, j, _ in sp.pairs)
    real = invariant.MetricSpace.metric_matrix

    def perturbed(self, coeffs):
        A = real(self, coeffs)
        A[0, -1] += 0.3
        A[-1, 0] += 0.3
        return A

    monkeypatch.setattr(invariant.MetricSpace, "metric_matrix", perturbed)
    with pytest.raises(verify._Failure, match="not isotropy-invariant"):
        verify._check_metric_invariance(verify._Context(sp.spec))


@pytest.mark.parametrize(
    "text,reads", [("C:5:[1,4]:+", False), ("A:8:[3,3,3]:-", False), ("A:25:[20,3,3]:-", True)]
)
def test_row_pattern_is_read_only_where_a_group_can_narrow(monkeypatch, text, reads):
    # at d = 9 and 27 no group leaves out more than _NARROW_MIN entries even
    # beside an empty pattern, so no pattern is built; the maxima are bit for
    # bit those of the kernel given the pattern
    space = metric_space(parse_flag_spec(text))
    P = space.metric_matrix(verify._Context(space.spec).sample_coeffs())
    reps, signs = verify._isotropy_groups(space)
    actions = [(reps, False), (signs, True)]
    pattern, calls = verify._row_pattern, []
    monkeypatch.setattr(verify, "_row_pattern", lambda side: calls.append(side) or pattern(side))
    got = verify._action_residual(P[None], actions)[0]
    assert bool(calls) == reads
    want = max(
        np.max(np.abs(verify._support_residuals(P, order, blocks, group, pattern(P))[0]))
        for groups, group in actions
        for order, blocks in groups
    )
    assert got == want


def _narrow_entry(space, form):
    """``(r, c)`` with r in the support S of a generator of a group that the
    kernel takes on the columns of S and of the form's pattern of the rows
    S, and c outside both; and a function that asserts that the kernel reads
    column c of that generator's residual, nonzero, once ``form[r, c]`` is."""
    d = space.tangent_dim
    pattern = verify._row_pattern(form)
    reps, _ = verify._isotropy_groups(space)
    order, blocks = min(reps, key=lambda group: group[1].shape[1])
    n, k = blocks.shape[:2]
    # one more column in a row still leaves the kernel narrow
    assert n * k * (d - k * (2 + pattern.shape[1])) > verify._NARROW_MIN
    S = order[0, :k]
    # the last such c: the first column outside S stands in for S in the tail
    c = next(c for c in order[0, k:][::-1] if c not in pattern[S])
    r = next(r for r, row in zip(S, blocks[0]) if np.any(row))

    def sees(P):
        rows, cols = verify._support_residuals(P, order, blocks, False, verify._row_pattern(P))
        assert cols.shape[1] < d
        assert np.max(np.abs(rows[0][:, cols[0] == c]), initial=0.0) > 0

    return r, c, sees


def _residuals_on_every_column(check, spec):
    """The failure message of a check, and the maxima it took from the
    kernel, on the columns the kernel picks and then on every column."""
    out = []
    for every in (False, True):
        taken, action = [], verify._action_residual

        def recorded(P, actions):
            taken.append(action(P, actions))
            return taken[-1]

        with pytest.MonkeyPatch.context() as mp:
            if every:
                mp.setattr(verify, "_row_pattern", lambda P: _every_column(len(P)))
            mp.setattr(verify, "_action_residual", recorded)
            with pytest.raises(verify._Failure) as exc:
                check(verify._Context(spec))
        out.append((str(exc.value), taken))
    return out


def test_narrow_kernel_sees_an_entry_off_the_pattern(monkeypatch):
    # at rank 25 the metric and the Ricci form are diagonal, so the kernel
    # reads the columns S of each generator alone; an entry of 1e-6 at
    # (r, c), r in S and c outside S and the pattern, joins the pattern read
    # from the perturbed form, and both checks fail with the residuals that
    # every column gives
    _kernel_alone(monkeypatch)
    spec = parse_flag_spec("A:25:[20,3,3]:-")
    space = metric_space(spec)
    ctx = verify._Context(spec)
    r, c, sees = _narrow_entry(space, space.metric_matrix(ctx.sample_coeffs()))
    real_metric = invariant.MetricSpace.metric_matrix

    def metric_matrix(self, coeffs):
        A = real_metric(self, coeffs)
        A[r, c] += 1e-6
        return A

    monkeypatch.setattr(invariant.MetricSpace, "metric_matrix", metric_matrix)
    sees(space.metric_matrix(ctx.sample_coeffs()))
    narrow, every = _residuals_on_every_column(verify._check_metric_invariance, spec)
    assert narrow[0].startswith("sampled metric not isotropy-invariant")
    assert narrow[0] == every[0]
    assert np.array_equal(narrow[1], every[1])
    monkeypatch.setattr(invariant.MetricSpace, "metric_matrix", real_metric)

    ricci = verify.curvature(make_metric(space, ctx.sample_coeffs())).ricci_tangent
    r, c, sees = _narrow_entry(space, ricci)
    real_curvature = verify.curvature

    def curvature(metric, frame=None):
        report = real_curvature(metric, frame)
        P = report.ricci_tangent.copy()
        P[r, c] += 1e-6
        return dataclasses.replace(report, ricci_tangent=P)

    monkeypatch.setattr(verify, "curvature", curvature)
    sees(curvature(make_metric(space, ctx.sample_coeffs())).ricci_tangent)
    narrow, every = _residuals_on_every_column(verify._check_ricci_equivariance, spec)
    assert narrow[0].startswith("Ricci not isotropy-equivariant")
    assert narrow[0] == every[0]
    assert np.array_equal(narrow[1], every[1])


def test_rotation_matches_expm_at_a_zero_angle():
    # an odd-sized skew matrix has a zero eigenvalue, where the sinc term
    # reads t; the zero matrix has nothing else
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(7)
    for size in (1, 3, 5):
        A = rng.standard_normal((2, size, size))
        G = np.concatenate([A - np.swapaxes(A, 1, 2), np.zeros((1, size, size))])
        err = np.max(np.abs(verify._rotation(G, 0.7) - linalg.expm(0.7 * G)))
        assert err <= 1e-14


# ---------------------------------------------------------------------------
# refusals before any check, and the trace Gram of killing-trace-ratio


def test_too_many_parameters_is_refused_before_any_check(monkeypatch):
    # a 9-parameter family: run_checks raises before the first check, and
    # no reduced engine is built for it
    built = []
    for module in (verify, einstein):
        monkeypatch.setattr(module, "reduced_ricci", lambda spec: built.append(spec))
    ran = []
    stand_ins = [(name, lambda ctx, name=name: ran.append(name)) for name in verify.CHECK_NAMES]
    monkeypatch.setattr(verify, "_CHECKS", stand_ins)
    with pytest.raises(TooManyParameters, match="9-parameter"):
        verify.run_checks("A:3:[1,1,1,1]:-")
    assert built == [] and ran == []
    # positive control: the stand-in checks run on a 2-parameter family
    verify.run_checks("B:3:[3]:-")
    assert ran == verify.CHECK_NAMES


def test_no_exact_count_propagates_from_the_checks(cold_search, monkeypatch):
    def uncounted(engine):
        raise NoExactCount("the mixing equation is not linear in b^2")

    monkeypatch.setattr(einstein, "mixed_count", uncounted)
    with pytest.raises(NoExactCount, match="not linear"):
        verify.run_checks("D:5:[4,1]:-")


@pytest.mark.parametrize("rank", [3, 8, 25])
def test_killing_trace_ratio_of_the_centre_is_exactly_zero(rank):
    # the centre of u(l) is Ricci flat: its ratio is decided by the nullity
    # of the integer Killing block, not left as eigensolver rounding
    model = build_algebra("C", rank)
    ratios = verify._killing_trace_ratios(model, verify._basis_entries(model.basis))
    assert ratios[0] == 0.0 and np.sum(ratios == 0.0) == 1
    assert ratios[1] > 1.0


def test_killing_trace_ratio_prints_the_zero_ratio_as_zero():
    ctx = verify._Context(parse_flag_spec("C:3:[3]:-"))
    assert verify._check_killing_trace_ratio(ctx) == "2 constant ratio(s): 0, 3"


def test_nullity_of_integer_stacks():
    # fraction-free elimination against the float rank on low-rank products
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 6):
        for r in range(k + 1):
            M = rng.integers(-3, 4, (20, k, r)) @ rng.integers(-3, 4, (20, r, k))
            want = k - np.linalg.matrix_rank(M.astype(float))
            assert np.array_equal(verify._nullity(M), want), (k, r)
    # a block whose minors overflow int64: 400 I - J at k = 25 is regular
    big = 400 * np.eye(25, dtype=np.int64) - np.ones((25, 25), dtype=np.int64)
    assert verify._nullity(big[None]).tolist() == [0]
    assert verify._nullity((25 * np.eye(25) - np.ones((25, 25))).astype(np.int64)[None]).tolist() == [1]


def test_spin_node_flag_passes_every_check():
    # D:5:[4,1]:+ is D:5:[5]:- under the spin-node swap: its one summand is
    # catalogued, and the solve names its root
    results = verify.run_checks("D:5:[4,1]:+")
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 22
    assert [s.rule_id for s in einstein.solve("D:5:[4,1]:+").solutions] == ["normal"]


@pytest.mark.parametrize(
    "text",
    [f"D:{l}:[{l - 1},1]:+" for l in range(4, 11)] + [f"D:{l}:[1,{l - 2},1]:+" for l in range(4, 11)],
)
def test_every_spin_node_twin_passes_every_check(text):
    # each twin is built through its representative; count-bounds compares
    # D:4:[3,1]:+ and the pair twins with their exact Table 1 rows
    results = verify.run_checks(text)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 22


def test_killing_trace_ratio_fails_on_a_non_orthogonal_basis():
    # negative control: one basis row moved onto the span of two, so the
    # trace Gram has an off-diagonal entry; the check fails, it does not
    # fall back to a general Gram
    ctx = verify._Context(parse_flag_spec("B:3:[3]:-"))
    assert "constant ratio" in verify._check_killing_trace_ratio(ctx)
    basis = list(ctx.model.basis)
    basis[0] = dataclasses.replace(basis[0], matrix=basis[0].matrix + basis[1].matrix)
    ctx.model = types.SimpleNamespace(
        basis=basis, killing_matrix=ctx.model.killing_matrix, family=ctx.model.family
    )
    with pytest.raises(verify._Failure, match="off-diagonal entry"):
        verify._check_killing_trace_ratio(ctx)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_frame_independence_fails_when_the_explicit_route_lowers_with_p(monkeypatch, text):
    # negative control: the explicit route lowers the last slot of T with
    # P = V V^T = A^-1 in place of R = W W^T = A, which is wrong at every
    # metric but the normal one; the rotated-frame Ricci form then differs
    ctx = verify._Context(parse_flag_spec(text))
    assert "random rotated frame" in verify._check_frame_independence(ctx)
    curvature_module = importlib.import_module("einflag.curvature")
    real = curvature_module._gram_sum
    monkeypatch.setattr(
        curvature_module, "_gram_sum", lambda space, slots, P, R: real(space, slots, P, P)
    )
    with pytest.raises(verify._Failure, match="Ricci depends on the frame"):
        verify._check_frame_independence(verify._Context(parse_flag_spec(text)))


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_ambient_ad_invariance_sees_one_perturbed_constant(text):
    # negative control: every structure constant is checked, exactly, so a
    # change of 2^-40 in one of them fails the check
    ctx = verify._Context(parse_flag_spec(text))
    assert "0 exactly on all" in verify._check_ambient_ad_invariance(ctx)
    model = copy.copy(ctx.model)
    I, J, K, C = model.structure_index
    C = C.copy()
    C[len(C) // 2] += 2.0**-40
    model.structure_index = (I, J, K, C)
    ctx.model = model
    with pytest.raises(verify._Failure, match=r"\(\[e_i,e_j\],e_k\)"):
        verify._check_ambient_ad_invariance(ctx)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_solve_and_checks_never_read_the_dense_structure(cold_caches, monkeypatch, text):
    # every memo is cold, so the space, the reduced engine, the exact counts
    # and the checks are all built under the refusing property
    def refuse(self):
        raise AssertionError("the dense structure tensor was read")

    monkeypatch.setattr(invariant.MetricSpace, "structure", property(refuse))
    assert einstein.solve(text).solutions
    results = verify.run_checks(text)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 22


def _pairwise_oracle(model):
    """The old one-pair-at-a-time pairing of every basis pair."""
    mats = [e.matrix for e in model.basis]
    return np.array([[dense_oracle.ambient_inner_matrices(model, x, y) for y in mats] for x in mats])


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 4), ("C", 5), ("D", 5)])
def test_orthogonal_basis_pairs_every_basis_pair(family, rank):
    # the stacked pairing against the one-pair form, on every pair
    model = build_algebra(family, rank)
    mats = np.array([e.matrix for e in model.basis])
    G = dense_oracle.ambient_inner_matrices(model, mats, mats)
    assert G.shape == (model.n, model.n)
    assert np.array_equal(G, _pairwise_oracle(model))
    assert dense_oracle.ambient_inner_matrices(model, mats[0], mats[1:]).shape == (model.n - 1,)
    assert isinstance(dense_oracle.ambient_inner_matrices(model, mats[0], mats[0]), float)


def test_orthogonal_basis_sees_one_pair_out_of_52650(monkeypatch):
    # A:25 has 325 basis elements: the old check sampled 500 of their 52650
    # pairs, the stacked one sees a single pair that is not orthogonal
    ctx = verify._Context(parse_flag_spec("A:25:[20,3,3]:-"))
    assert "52650 pairs" in verify._check_orthogonal_basis(ctx)
    model = copy.copy(ctx.model)
    model.basis = list(model.basis)
    model.basis[300] = dataclasses.replace(
        model.basis[300], matrix=model.basis[300].matrix + 1e-6 * model.basis[17].matrix
    )
    ctx.model = model
    with pytest.raises(verify._Failure, match="off-diagonal ambient pairing"):
        verify._check_orthogonal_basis(ctx)


@pytest.mark.parametrize(
    "text,target,source",
    [("C:5:[1,4]:+", 24, 0), ("C:5:[1,4]:+", 5, 20), ("D:5:[4,1]:-", 19, 12), ("D:5:[4,1]:-", 3, 15)],
)
def test_orthogonal_basis_sees_one_pair_through_the_bcd_partners(text, target, source):
    # the A:25 control on C and D: a u(i,j) (or C's u(k,k)) pairs through the
    # cross-block partner rule, a w(i,j) through the transpose; one pair
    # that is not orthogonal fails the check
    ctx = verify._Context(parse_flag_spec(text))
    n = ctx.model.n
    assert f"{n * (n - 1) // 2} pairs" in verify._check_orthogonal_basis(ctx)
    model = copy.copy(ctx.model)
    model.basis = list(model.basis)
    model.basis[target] = dataclasses.replace(
        model.basis[target], matrix=model.basis[target].matrix + 1e-6 * model.basis[source].matrix
    )
    ctx.model = model
    with pytest.raises(verify._Failure, match="off-diagonal ambient pairing"):
        verify._check_orthogonal_basis(ctx)


def test_orthogonal_basis_sees_a_wrong_gram_entry():
    # the join's diagonal is compared with model.gram exactly
    ctx = verify._Context(parse_flag_spec("C:5:[1,4]:+"))
    model = copy.copy(ctx.model)
    model.gram = model.gram.copy()
    model.gram[7] += 2.0**-40
    ctx.model = model
    with pytest.raises(verify._Failure, match="gram mismatch at index 7"):
        verify._check_orthogonal_basis(ctx)


def _with_constants(ctx, edit):
    """``ctx`` with a copy of its model whose structure constants V are
    replaced by ``edit(V, h)``, h the offset of each entry's (j, i, k) partner."""
    model = copy.copy(ctx.model)
    I, J, K, V = model.structure_index
    h = V.size // 2
    assert np.array_equal(I[h:], J[:h]) and np.array_equal(J[h:], I[:h]) and np.array_equal(K[h:], K[:h])
    model.structure_index = (I, J, K, edit(V.copy(), h))
    ctx.model = model
    return ctx


@pytest.mark.parametrize("text", ["A:3:[1,1,2]:-", "B:4:[4]:-", "C:5:[1,4]:+", "D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_jacobi_sees_one_constant_off_by_one(text):
    # negative control: C_ij^k + 1 and C_ji^k - 1, at three entries each;
    # the bracket stays antisymmetric and integral, and the exact cyclic sum
    # is nonzero at the check's own draws
    spec = parse_flag_spec(text)
    assert "exactly 0" in verify._check_jacobi(verify._Context(spec))

    def off_by_one(e):
        def edit(V, h):
            V[e] += 1
            V[e + h] -= 1
            return V
        return edit

    h = spec.algebra.structure_index[3].size // 2
    for e in (0, h // 2, h - 1):
        ctx = _with_constants(verify._Context(spec), off_by_one(e))
        with pytest.raises(verify._Failure, match="Jacobi cyclic sum"):
            verify._check_jacobi(ctx)


def test_jacobi_names_a_non_integral_constant():
    def edit(V, h):
        V[5] += 0.5
        V[5 + h] -= 0.5
        return V

    ctx = _with_constants(verify._Context(parse_flag_spec("D:5:[4,1]:-")), edit)
    I, J, K, V = ctx.model.structure_index
    labels = [ctx.model.basis[i].label for i in (I[5], J[5], K[5])]
    want = f"C[{I[5]}, {J[5]}, {K[5]}] = {V[5]!r} of [{labels[0]}, {labels[1]}] at {labels[2]} is not an integer"
    with pytest.raises(verify._Failure, match=re.escape(want)):
        verify._check_jacobi(ctx)


@pytest.mark.parametrize(
    "text,B,k,miss",
    [("A:25:[20,3,3]:-", 2**13, 4, "1.1e-15"), ("D:5:[4,1]:-", 2**14, 3, "7.7e-13")],
)
def test_jacobi_draws_are_exact_and_few(monkeypatch, text, B, k, miss):
    # B is the largest power of two with 3 (r v)^2 B^3 < 2^53, k the fewest
    # triples with (3 / 2B)^k < 1e-12; the detail prints no residual, so
    # another seed gives the same line
    model = parse_flag_spec(text).algebra
    _, _, K, V = model.structure_index
    r, v = int(np.bincount(K).max()), int(np.max(np.abs(V)))
    assert verify._jacobi_draws(r, v)[:2] == (B, k)
    assert 3 * (r * v) ** 2 * B**3 < 2**53 <= 3 * (r * v) ** 2 * (2 * B) ** 3
    assert (3 / (2 * B)) ** k < 1e-12 <= (3 / (2 * B)) ** (k - 1)
    detail = verify._check_jacobi(verify._Context(parse_flag_spec(text)))
    assert detail == (
        f"cyclic sum exactly 0 at {k} random integer triples in [-{B}, {B})^{model.n}; "
        f"a nonzero one passes with probability <= {miss}"
    )
    monkeypatch.setattr(verify, "_SEED", 7)
    assert verify._check_jacobi(verify._Context(parse_flag_spec(text))) == detail


def test_so2_passes_every_check():
    # so(2) is abelian: no structure constants, a vacuous Jacobi test
    results = verify.run_checks("A:1:[1,1]:-")
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 22
    jacobi = next(r for r in results if r.name == "jacobi-identity")
    assert jacobi.detail == "the bracket is zero: no structure constants, nothing to test"


def test_basis_entries_are_read_once_per_run(monkeypatch):
    # killing-trace-ratio and orthogonal-basis share one read of the basis
    # matrices, and a new model is read again
    calls = []
    real = verify._basis_entries
    monkeypatch.setattr(verify, "_basis_entries", lambda basis: calls.append(1) or real(basis))
    results = verify.run_checks("B:4:[4]:-")
    assert [r.name for r in results if not r.passed] == []
    assert len(calls) == 1
    ctx = verify._Context(parse_flag_spec("B:4:[4]:-"))
    ctx.basis_entries
    ctx.model = copy.copy(ctx.model)
    ctx.basis_entries
    assert len(calls) == 3


def _mixed_decomposition(dec, theta=0.3):
    """``dec`` with the first row of summand 0 turned towards summand 1."""
    subs = list(dec.submodules)
    r0, r1 = subs[0].orthonormal, subs[1].orthonormal
    rows = r0.copy()
    rows[0] = np.cos(theta) * r0[0] + np.sin(theta) * r1[0]
    subs[0] = dataclasses.replace(subs[0], orthonormal=rows)
    return dataclasses.replace(dec, submodules=subs)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "B:4:[4]:-", "A:25:[20,3,3]:-"])
def test_isotropy_stability_equals_the_dense_ad_products(monkeypatch, text):
    # the leak from one scatter of the structure entries, against the dense
    # ad(z) products on the same ten draws, on a decomposition whose first
    # summand is turned into the second, so that the leak is far from zero
    spec = parse_flag_spec(text)
    ctx = verify._Context(spec)
    assert "stays in W_i" in verify._check_isotropy_stability(ctx)
    dec = _mixed_decomposition(ctx.dec)
    monkeypatch.setattr(verify._Context, "dec", property(lambda self: dec))
    model = spec.algebra
    w = float(spec.inner_scale) * model.gram
    iso = list(dec.isotropy_indices)
    rng = np.random.default_rng(verify._SEED)
    worst = 0.0
    for _ in range(10):
        z = np.zeros(model.n)
        z[iso] = rng.standard_normal(len(iso))
        z /= np.linalg.norm(z)
        ad_z = ad_matrix(model, z)
        for sub in dec.submodules:
            B = sub.orthonormal @ ad_z
            resid = B - ((sub.orthonormal * w) @ B.T).T @ sub.orthonormal
            worst = max(worst, float(np.sqrt(np.sum((resid * w) * resid))))
    assert worst > 1e-3
    with pytest.raises(verify._Failure, match=f"leaks out of a summand: {worst:.2e}"):
        verify._check_isotropy_stability(verify._Context(spec))
