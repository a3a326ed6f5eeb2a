"""The variational check, probed through the reduced engine, the count
bounds read from the published table, and the block-wise isotropy checks of
the suite."""

import dataclasses
import types

import numpy as np
import pytest
from conftest import edit_first_generator

from einflag import verify
from einflag.algebra import build_algebra
from einflag.flag import parse_flag_spec
from einflag.invariant import metric_space


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


@pytest.mark.parametrize(
    "text,count,detail",
    [
        ("A:5:[2,2,2]:-", 4, "count 4 <= 4"),
        ("B:4:[2,2]:+", 3, "count 3 <= 3"),
        ("B:5:[3,2]:+", 1, "count 1 <= 4; existence inequality holds (q = 169 > 0)"),
        ("C:5:[2,3]:+", 0, "count 0 <= 2"),
        ("D:5:[4,1]:-", 9, "count 9; no published bound for this shape"),
    ],
)
def test_count_bounds_read_the_published_table(monkeypatch, text, count, detail):
    # the bound is Table 1's, from published_row; no solve runs here
    fake = [types.SimpleNamespace()] * count
    monkeypatch.setattr(verify._Context, "solutions", property(lambda self: fake))
    ctx = verify._Context(parse_flag_spec(text))
    assert verify._check_count_bounds(ctx) == detail


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
    got = verify._killing_trace_ratios(m)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("text", ["B:3:[3]:-", "D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_rotation_matches_expm_on_the_rep_blocks(text):
    linalg = pytest.importorskip("scipy.linalg")
    space = metric_space(parse_flag_spec(text))
    blocks = [G for G in verify._diagonal_blocks(space, space.reps) if len(G)]
    assert blocks
    for G in blocks:
        err = verify._max_abs(verify._rotation(G, 0.7) - linalg.expm(0.7 * G))
        assert err <= 1e-14


def test_rotation_matches_expm_at_a_zero_angle():
    # an odd-sized skew matrix has a zero eigenvalue, where the sinc term
    # reads t; the zero matrix has nothing else
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(7)
    for size in (1, 3, 5):
        A = rng.standard_normal((2, size, size))
        G = np.concatenate([A - np.swapaxes(A, 1, 2), np.zeros((1, size, size))])
        err = verify._max_abs(verify._rotation(G, 0.7) - linalg.expm(0.7 * G))
        assert err <= 1e-14
