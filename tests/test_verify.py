"""The variational check, probed through the reduced engine, the count
bounds read from the published table, and the block-wise isotropy checks of
the suite."""

import dataclasses
import types

import numpy as np
import pytest

from einflag import verify
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


def _broken_context(monkeypatch, text, perturb):
    # the first isotropy generator of the space replaced by perturb(G)
    sp = metric_space(parse_flag_spec(text))
    broken = dataclasses.replace(sp, reps=[perturb(sp.reps[0])] + sp.reps[1:])
    monkeypatch.setattr(verify._Context, "space", property(lambda self: broken))
    return verify._Context(sp.spec), broken


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_isotropy_checks_pass_block_by_block(text):
    ctx = verify._Context(parse_flag_spec(text))
    assert "invariant under isotropy" in verify._check_metric_invariance(ctx)
    assert "Ric(Ad(k)X" in verify._check_ricci_equivariance(ctx)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "B:4:[4]:-"])
def test_isotropy_checks_see_a_generator_leaving_a_summand(monkeypatch, text):
    def leak(G):
        G = G.copy()
        G[0, -1] += 0.3
        G[-1, 0] -= 0.3
        return G

    ctx, broken = _broken_context(monkeypatch, text, leak)
    assert broken.slices[-1].start > 0  # entry (0, -1) leaves the first summand
    with pytest.raises(verify._Failure, match="not isotropy-invariant"):
        verify._check_metric_invariance(ctx)
    with pytest.raises(verify._Failure, match="not isotropy-equivariant"):
        verify._check_ricci_equivariance(ctx)


def test_metric_invariance_sees_a_non_skew_block(monkeypatch):
    # a symmetric part inside the first summand block breaks G^T A + A G = 0
    # while the generator still preserves every summand
    def stretch(G):
        G = G.copy()
        G[0, 0] += 0.3
        return G

    ctx, _ = _broken_context(monkeypatch, "D:5:[4,1]:-", stretch)
    with pytest.raises(verify._Failure, match="not isotropy-invariant"):
        verify._check_metric_invariance(ctx)
