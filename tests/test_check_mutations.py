"""Mutations that the exact decomposition checks must fail.

Each mutation changes the data a check reads, never the check's body: the
decomposition that ``verify._Context.dec`` hands the checks (a summand's
span or frame rows), a catalogue record, a span entry, a structure
constant of a copy of the algebra, or an entry of the algebra's integer
Killing form, which the tangent Killing form must refuse as well.  ``_verify_decomposition``
reads the same certificate and must refuse the same data.
"""

import copy
import dataclasses

import numpy as np
import pytest

from einflag import flag, verify
from einflag.errors import InvariantViolation
from einflag.flag import _verify_decomposition, decompose_isotropy, parse_flag_spec


def checks(spec, dec, monkeypatch):
    """Run the three decomposition checks on ``dec``; return the failure
    message of each, or None where it passes."""
    monkeypatch.setattr(verify._Context, "dec", property(lambda self: dec))
    ctx = verify._Context(spec)
    out = {}
    for name, fn in verify._CHECKS:
        if name in ("tangent-complement", "isotropy-stability", "summand-dimensions"):
            try:
                fn(ctx)
                out[name] = None
            except verify._Failure as exc:
                out[name] = str(exc)
    return out


def with_summand(dec, k, span, orthonormal):
    subs = list(dec.submodules)
    subs[k] = dataclasses.replace(subs[k], span=span, orthonormal=orthonormal)
    return dataclasses.replace(dec, submodules=subs)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_unmutated_decomposition_passes(text, monkeypatch):
    spec = parse_flag_spec(text)
    assert checks(spec, decompose_isotropy(spec), monkeypatch) == dict.fromkeys(
        ["tangent-complement", "isotropy-stability", "summand-dimensions"]
    )


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-", "C:5:[2,3]:+"])
def test_a_dropped_tangent_row_fails_tangent_complement(text, monkeypatch):
    spec = parse_flag_spec(text)
    dec = decompose_isotropy(spec)
    s = dec.submodules[-1]
    short = with_summand(dec, len(dec.submodules) - 1, s.span[1:], s.orthonormal[1:])
    failed = checks(spec, short, monkeypatch)
    n, iso = spec.algebra.n, len(dec.isotropy_indices)
    assert failed["tangent-complement"] == f"dim mismatch: {n - iso - 1} tangent + {iso} isotropy != {n}"
    assert failed["summand-dimensions"].startswith("dims ")
    with pytest.raises(InvariantViolation, match="submodule dimensions sum to"):
        _verify_decomposition(short)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "B:5:[2,3]:+"])
def test_a_record_dimension_off_by_one_fails_summand_dimensions(text, monkeypatch):
    spec = parse_flag_spec(text)
    key = spec.shape
    record = flag._RECORDS[key]
    dims = record.dims

    def off_by_one(l, p):
        out = dict(dims(l, p))
        first = next(iter(out))
        out[first] += 1
        return out

    monkeypatch.setitem(flag._RECORDS, key, dataclasses.replace(record, dims=off_by_one))
    results = {r.name: r for r in verify.run_checks(text)}
    assert not results["summand-dimensions"].passed
    assert "do not match the block-size formulas" in results["summand-dimensions"].detail
    assert [r.name for r in results.values() if not r.passed] == ["summand-dimensions"]


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:8:[3,3,3]:-", "B:4:[4]:-"])
def test_a_span_row_leaking_into_another_summand_fails_isotropy_stability(text, monkeypatch):
    # the first row of summand 0 takes on the first row of summand 1
    spec = parse_flag_spec(text)
    dec = decompose_isotropy(spec)
    s0, s1 = dec.submodules[:2]
    span = s0.span.copy()
    span[0] += s1.span[0]
    leaky = with_summand(dec, 0, span, flag._orthonormalize(spec, span))
    failed = checks(spec, leaky, monkeypatch)
    assert failed["isotropy-stability"].startswith("bracket leaks out of a summand: ")
    assert failed["tangent-complement"].startswith(f"declared rows of {s0.name} and {s1.name} pair to ")
    with pytest.raises(InvariantViolation, match=f"submodules {s0.name} and {s1.name} of .* are not orthogonal"):
        _verify_decomposition(leaky)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-", "C:5:[2,3]:+"])
def test_a_span_entry_off_by_one_fails(text, monkeypatch):
    # a zero of the first row of summand 0, at a coordinate of summand 1,
    # becomes 1; the frame rows stay as they were
    spec = parse_flag_spec(text)
    dec = decompose_isotropy(spec)
    s0, s1 = dec.submodules[:2]
    span = s0.span.copy()
    span[0, np.flatnonzero(s1.span[0])[0]] += 1
    off = with_summand(dec, 0, span, s0.orthonormal)
    failed = checks(spec, off, monkeypatch)
    assert failed["tangent-complement"].startswith(f"declared rows of {s0.name} and {s1.name} pair to ")
    with pytest.raises(InvariantViolation, match="are not orthogonal"):
        _verify_decomposition(off)


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-"])
def test_a_span_entry_on_an_isotropy_coordinate_fails(text, monkeypatch):
    spec = parse_flag_spec(text)
    dec = decompose_isotropy(spec)
    s0 = dec.submodules[0]
    span = s0.span.copy()
    span[0, dec.isotropy_indices[0]] += 1
    off = with_summand(dec, 0, span, s0.orthonormal)
    label = spec.algebra.basis[dec.isotropy_indices[0]].label
    failed = checks(spec, off, monkeypatch)
    assert failed["tangent-complement"].startswith(f"declared rows of {s0.name} and isotropy coordinate {label} pair to ")
    with pytest.raises(InvariantViolation, match=f"submodule {s0.name} of .* leaves the tangent space"):
        _verify_decomposition(off)


def test_a_repeated_span_row_fails_the_rank(monkeypatch):
    spec = parse_flag_spec("D:5:[4,1]:-")
    dec = decompose_isotropy(spec)
    s0 = dec.submodules[0]
    span = s0.span.copy()
    span[1] = span[0]
    with pytest.raises(InvariantViolation, match="declared submodule span is degenerate"):
        flag._orthonormalize(spec, span)
    repeated = with_summand(dec, 0, span, s0.orthonormal)
    failed = checks(spec, repeated, monkeypatch)
    assert failed["summand-dimensions"] == f"{s0.name}: rank {s0.dim - 1} != dim {s0.dim}"
    assert failed["tangent-complement"].startswith("dim mismatch: ")
    with pytest.raises(InvariantViolation, match=f"submodule {s0.name} of .* has rank {s0.dim - 1} < {s0.dim}"):
        _verify_decomposition(repeated)


@pytest.mark.parametrize("text", ["B:4:[4]:-", "D:5:[1,4]:+"])
def test_a_structure_constant_off_by_one_fails(text, monkeypatch):
    # on a copy of the algebra, one constant [e_p, e_j] at e_k, p isotropic
    # and j, k in the support of the second summand, whose rows combine two
    # coordinates each, is off by 1; the certificate is derived anew
    spec = parse_flag_spec(text)
    dec = decompose_isotropy(spec)
    model = copy.copy(spec.algebra)
    I, J, K, V = model.structure_index
    support = np.any(dec.submodules[1].span != 0, axis=0)
    e = np.flatnonzero(np.isin(I, dec.isotropy_indices) & support[J] & support[K])[0]
    model.structure_index = (I, J, K, np.where(np.arange(V.size) == e, V + 1, V))
    off = dataclasses.replace(dec, spec=dataclasses.replace(spec, algebra=model))
    failed = checks(spec, off, monkeypatch)
    assert failed["isotropy-stability"].startswith(f"bracket leaks out of a summand: [{model.basis[I[e]].label}, ")
    with pytest.raises(InvariantViolation, match="is not ad-invariant"):
        _verify_decomposition(off)
    assert dec.certificate.leaks[0].size == 0


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "A:25:[20,3,3]:-", "C:5:[2,3]:+"])
def test_a_killing_entry_off_by_one_fails_killing_trace_ratio(text, monkeypatch):
    spec = parse_flag_spec(text)
    ctx = verify._Context(spec)
    assert "constant ratio" in verify._check_killing_trace_ratio(ctx)
    I, J, V = ctx.model.killing_index
    e = np.flatnonzero(I == J)[-1]
    monkeypatch.setattr(ctx.model, "killing_index", (I, J, np.where(np.arange(V.size) == e, V + 1, V)))
    limit = {"A": 1, "B": 2, "C": 2, "D": 1}[spec.family]
    with pytest.raises(verify._Failure, match=f"distinct Killing/trace ratios, expected <= {limit}"):
        verify._check_killing_trace_ratio(ctx)


@pytest.mark.parametrize("text", ["A:25:[20,3,3]:-", "C:5:[2,3]:+", "D:5:[4,1]:-"])
def test_a_killing_entry_off_by_one_fails_the_tangent_killing_form(text):
    # on a copy of the algebra, one diagonal Killing entry on a coordinate
    # that only one summand of several rows touches is off by 1, and then
    # one entry joining the first two summands: the span traces are no
    # longer a multiple of the Gram on every block, or leave the blocks
    from einflag import invariant

    spec = parse_flag_spec(text)
    sp = invariant.metric_space(spec)
    spans = [s.span for s in sp.dec.submodules]
    model = copy.copy(spec.algebra)
    I, J, V = model.killing_index

    def mutated(index):
        model.killing_index = index
        dec = dataclasses.replace(sp.dec, spec=dataclasses.replace(spec, algebra=model))
        return dataclasses.replace(sp, dec=dec)

    touch = np.array([np.any(s != 0, axis=0) for s in spans])
    only = (touch.sum(axis=0) == 1) & touch[[len(s) > 1 for s in spans]].any(axis=0)
    j = np.flatnonzero(only)[0]
    e = np.flatnonzero((I == j) & (J == j))[0]
    with pytest.raises(InvariantViolation, match="is no multiple of the background metric on"):
        invariant._tangent_killing(mutated((I, J, np.where(np.arange(V.size) == e, V + 1, V))))
    j, k = np.flatnonzero(spans[0][0])[0], np.flatnonzero(spans[1][0])[0]
    index = (np.r_[I, j, k], np.r_[J, k, j], np.r_[V, 1, 1])
    with pytest.raises(InvariantViolation, match="off its blocks|is no multiple"):
        invariant._tangent_killing(mutated(index))
    assert np.array_equal(invariant._tangent_killing(sp), sp.killing)


@pytest.mark.parametrize("text, unprojected", [("A:25:[20,3,3]:-", 0), ("C:5:[2,3]:+", 0), ("C:6:[3,3]:-", 2)])
def test_misscaled_or_unprojected_frame_rows_fail_tangent_complement(text, unprojected, monkeypatch):
    # the frame rows of one summand divided by twice their squared norm, or,
    # where its integer Gram is not diagonal, each row over its own norm with
    # no projection: tangent-complement compares them with the plain loop
    spec = parse_flag_spec(text)
    dec = decompose_isotropy(spec)
    scale = float(spec.inner_scale)
    count = 0
    for k, s in enumerate(dec.submodules):
        norm2 = (s.span * s.span) @ spec.algebra.gram
        mutants = [s.span / np.sqrt(2 * scale * norm2)[:, None]]
        alone = s.span / np.sqrt(scale * norm2)[:, None]
        if not np.array_equal(alone, s.orthonormal):
            mutants.append(alone)
            count += 1
        for rows in mutants:
            failed = checks(spec, with_summand(dec, k, s.span, rows), monkeypatch)
            assert failed["tangent-complement"] == f"frame rows of {s.name} are not its declared rows orthonormalized"
    assert count == unprojected


def test_a_pair_with_unequal_grams_fails_the_tangent_killing_form():
    # the second summand of D:5:[4,1]:-'s pair declared at twice its rows:
    # every span trace is still a multiple of the first side's Gram, but
    # the two sides' Grams differ, so their orthonormal rows are no longer
    # the same combinations of the declared ones
    from einflag import invariant

    sp = invariant.metric_space(parse_flag_spec("D:5:[4,1]:-"))
    (i, j, _), = sp.pairs
    s = sp.dec.submodules[j]
    doubled = dataclasses.replace(sp, dec=with_summand(sp.dec, j, 2 * s.span, s.orthonormal))
    with pytest.raises(InvariantViolation, match="is no multiple of the background metric on"):
        invariant._tangent_killing(doubled)
