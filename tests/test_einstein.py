import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest

import einflag.einstein
from einflag.cli import _table_rows
from einflag.curvature import ReducedRicci, curvature
from einflag.einstein import (
    CONSTANT_RTOL,
    DEFECT_TOL,
    TableExpectation,
    closed_form_solutions,
    numeric_solutions,
    published_row,
    solve,
    table1_row,
)
from einflag.errors import InvariantViolation, NoCatalogEntry, TooManyParameters
from einflag.flag import parse_flag_spec
from einflag.invariant import make_metric, metric_space
from einflag.verify import run_checks


def coeff_rows(solutions):
    return sorted(tuple(round(c, 9) for c in s.coeffs) for s in solutions)


def match_sets(left, right, rtol):
    """Greedy bijection between two coefficient lists under relative rtol."""
    assert len(left) == len(right)
    remaining = list(right)
    for vec in left:
        hits = [
            j
            for j, other in enumerate(remaining)
            if np.allclose(vec, other, rtol=rtol, atol=rtol)
        ]
        assert hits, f"{vec} unmatched among {remaining}"
        remaining.pop(hits[0])


# ---------------------------------------------------------------------------
# closed-form catalog


def test_b_minus_two_branches():
    for l in (3, 5, 6):
        sols = closed_form_solutions(parse_flag_spec(f"B:{l}:[{l}]:-"))
        rows = coeff_rows(sols)
        assert rows == sorted([(0.5, 1.0), (round(l / (2 * l - 4), 9), 1.0)])
        for s in sols:
            assert s.defect < DEFECT_TOL


def test_b4_exceptional_branches():
    sols = closed_form_solutions(parse_flag_spec("B:4:[4]:-"))
    assert coeff_rows(sols) == [(0.5, 1.0, 1.0), (1.0, 1.0, 1.0)]
    for s in sols:
        assert s.defect < DEFECT_TOL


def test_b_plus_depth_one_ratio():
    for l in (3, 4, 5, 6):
        (sol,) = closed_form_solutions(parse_flag_spec(f"B:{l}:[1,{l - 1}]:+"))
        rho, mu = sol.coeffs
        assert mu == pytest.approx(1.0)
        assert rho == pytest.approx((l - 2) / (l - 1), rel=1e-12)
        assert sol.defect < DEFECT_TOL


def test_c_minus_proven_empty():
    for l in (3, 4, 5):
        assert closed_form_solutions(parse_flag_spec(f"C:{l}:[{l}]:-")) == []


def test_c_plus_depth_one_double_ratio():
    for l in (3, 4, 5):
        (sol,) = closed_form_solutions(parse_flag_spec(f"C:{l}:[1,{l - 1}]:+"))
        mu0, mu21 = sol.coeffs
        assert mu0 == pytest.approx(2 * mu21, rel=1e-12)
        assert sol.defect < DEFECT_TOL


def test_d_sphere_product_branches():
    # two equal-radius factors at l = 4, a single ray beyond
    sols = closed_form_solutions(parse_flag_spec("D:4:[4]:-"))
    assert coeff_rows(sols) == [(1.0, 1.0)]
    sols = closed_form_solutions(parse_flag_spec("D:5:[5]:-"))
    assert coeff_rows(sols) == [(1.0,)]


def test_d_corner_flag_lambda_formulas():
    l = 5
    sols = closed_form_solutions(parse_flag_spec(f"D:{l}:[{l - 1},1]:-"))
    assert len(sols) == 6
    assert sorted(s.rule_id for s in sols) == ["F1", "F2", "F3", "F4", "F5", "F6"]
    by_id = {s.rule_id: s for s in sols}
    s_val = math.sqrt(l * l - 5 * l + 4) / (2 * (l - 1))
    for rule, sign in (("F1", -1.0), ("F2", 1.0)):
        gamma, lam1, lam2, b = by_id[rule].coeffs
        assert b == pytest.approx(0.0, abs=1e-12)
        assert lam1 == pytest.approx((1 + sign * s_val) * gamma, rel=1e-10)
        assert lam2 == pytest.approx((1 - sign * s_val) * gamma, rel=1e-10)
    for s in sols:
        assert s.defect < DEFECT_TOL


def test_d4_corner_flag_collapses_to_five():
    sols = closed_form_solutions(parse_flag_spec("D:4:[3,1]:-"))
    assert len(sols) == 5
    assert "F2" not in {s.rule_id for s in sols}


def test_a3_special_flags():
    sols = closed_form_solutions(parse_flag_spec("A:3:[2,2]:-"))
    assert coeff_rows(sols) == [(1.0, 1.0)]
    # the projective spaces have one summand: the normal metric, one slot
    for text in ("A:3:[3,1]:-", "A:3:[1,3]:-"):
        assert coeff_rows(closed_form_solutions(parse_flag_spec(text))) == [(1.0,)]
    sols = closed_form_solutions(parse_flag_spec("A:3:[2,1,1]:-"))
    assert sorted(s.rule_id for s in sols) == ["E1", "E2", "E3", "E4", "E5"]
    mixed = [s for s in sols if abs(s.coeffs[-1]) > 1e-12]
    assert len(mixed) == 4
    for s in sols:
        assert s.defect < DEFECT_TOL


@pytest.mark.parametrize(
    "text,count",
    [
        ("A:6:[1,3,3]:-", 2),
        ("A:8:[3,3,3]:-", 4),
        ("A:13:[4,5,5]:-", 3),
        ("A:25:[20,3,3]:-", 2),
    ],
)
def test_a_three_block_catalog_counts(text, count):
    sols = closed_form_solutions(parse_flag_spec(text))
    assert len(sols) == count
    for s in sols:
        assert s.defect < DEFECT_TOL


def test_uncatalogued_shape_raises():
    with pytest.raises(NoCatalogEntry):
        closed_form_solutions(parse_flag_spec("B:5:[2,3]:+"))
    with pytest.raises(NoCatalogEntry):
        closed_form_solutions(parse_flag_spec("D:5:[2,3]:+"))


# ---------------------------------------------------------------------------
# numeric route


def test_numeric_matches_catalog_on_small_flags():
    for text in ("B:3:[3]:-", "C:3:[1,2]:+", "A:6:[1,3,3]:-"):
        spec = parse_flag_spec(text)
        closed = [s.coeffs for s in closed_form_solutions(spec)]
        numeric = [s.coeffs for s in numeric_solutions(spec)]
        match_sets(closed, numeric, rtol=1e-7)


def test_numeric_confirms_no_solution():
    assert numeric_solutions(parse_flag_spec("C:3:[3]:-")) == []
    assert numeric_solutions(parse_flag_spec("C:4:[4]:-")) == []


def test_numeric_bound_only_families():
    # no closed form exists for these; counts stay within the proven bounds
    assert len(solve("B:5:[2,3]:+").solutions) == 1
    assert len(solve("B:6:[3,3]:+").solutions) == 2
    assert len(solve("C:5:[2,3]:+").solutions) == 2
    assert len(solve("C:6:[4,2]:+").solutions) == 0


def test_too_many_parameters():
    with pytest.raises(TooManyParameters):
        numeric_solutions(parse_flag_spec("A:4:[1,1,1,2]:-"))


def test_numeric_solutions_are_certified():
    for sol in numeric_solutions(parse_flag_spec("B:4:[4]:-")):
        assert sol.provenance == "numeric"
        assert sol.defect < DEFECT_TOL
        n_sub = sol.metric.space.n_sub
        assert sol.coeffs[n_sub - 1] == pytest.approx(1.0, abs=1e-9)


def count_exact_counts(monkeypatch):
    """Record every exact count the einstein module runs, by stage."""
    calls = []
    for stage in ("diagonal", "mixed"):
        count = getattr(einflag.einstein, f"{stage}_count")

        def counted(engine, count=count, stage=stage):
            calls.append(stage)
            return count(engine)

        monkeypatch.setattr(einflag.einstein, f"{stage}_count", counted)
    return calls


def count_engine_readouts(monkeypatch):
    """Record every scalar curvature read off a reduced engine."""
    readouts = []
    scalar = ReducedRicci.scalar

    def counted(engine, coeffs):
        readouts.append(coeffs)
        return scalar(engine, coeffs)

    monkeypatch.setattr(ReducedRicci, "scalar", counted)
    return readouts


def test_check_suite_reuses_the_numeric_route(monkeypatch):
    solve("A:3:[2,1,1]:-")
    calls = count_exact_counts(monkeypatch)
    certified = []
    solution = einflag.einstein._solution

    def counted(space, coeffs, provenance, rule_id):
        certified.append(coeffs)
        return solution(space, coeffs, provenance, rule_id)

    # the catalog is memoised like the numeric route: after solve, the
    # check suite certifies nothing again through the einstein module
    monkeypatch.setattr(einflag.einstein, "_solution", counted)
    results = run_checks("A:3:[2,1,1]:-")
    assert all(r.passed for r in results)
    assert calls == []
    assert certified == []
    # the memo hands out copies: a caller's edit does not reach the next one
    first = numeric_solutions("A:3:[2,1,1]:-")
    first.clear()
    assert len(numeric_solutions("A:3:[2,1,1]:-")) == 5
    assert calls == []


def test_certificate_failure_raises(cold_search, monkeypatch):
    # the engine certificate is the only gate a root meets after the exact
    # count: with a zero tolerance it must raise, not drop the roots
    monkeypatch.setattr(einflag.einstein, "DEFECT_TOL", 0.0)
    with pytest.raises(InvariantViolation):
        numeric_solutions("B:3:[3]:-")


@pytest.mark.parametrize("text, stages", [
    ("B:3:[3]:-", ["diagonal"]),
    ("D:5:[4,1]:-", ["diagonal", "mixed"]),
])
def test_counter_sees_a_cold_solve(cold_search, monkeypatch, text, stages):
    # positive control of the counter above: a cold solve counts each
    # stage once, and runs no grid search
    calls = count_exact_counts(monkeypatch)
    numeric_solutions(text)
    assert calls == stages


def test_one_certificate_per_root(cold_search, monkeypatch):
    readouts = count_engine_readouts(monkeypatch)
    roots = numeric_solutions("B:3:[3]:-")
    assert len(roots) == 2
    assert len(readouts) == len(roots)


# ---------------------------------------------------------------------------
# solve


def test_solve_labels_the_roots_by_the_catalog():
    # every catalog entry names the root it matches, in catalog order; the
    # solve and the roots agree coefficient by coefficient
    spec = parse_flag_spec("B:3:[3]:-")
    both = solve(spec)
    assert [s.rule_id for s in both.solutions] == ["mu-half", "mu-upper"]
    assert {s.provenance for s in both.solutions} == {"closed-form"}
    match_sets(
        [s.coeffs for s in both.solutions],
        [s.coeffs for s in numeric_solutions(spec)],
        rtol=1e-7,
    )


def test_one_certificate_per_reported_solution(cold_search, monkeypatch):
    # a root that repeats a catalog entry is not certified a second time:
    # a cold solve reads the engine once per solution it returns
    readouts = count_engine_readouts(monkeypatch)
    monkeypatch.setattr(
        einflag.einstein,
        "_closed_cached",
        lru_cache(maxsize=None)(einflag.einstein._closed_cached.__wrapped__),
    )
    for text, count in (("D:5:[4,1]:-", 6), ("B:5:[2,3]:+", 1), ("A:3:[2,1,1]:-", 5)):
        readouts.clear()
        assert solve(text).count == count
        assert len(readouts) == count, text


@pytest.mark.parametrize("text", ["D:5:[4,1]:-", "C:5:[1,4]:+", "A:25:[20,3,3]:-"])
def test_solve_builds_no_frame_plan(cold_caches, text):
    # solve and table1 read every number off the reduced engine: neither
    # builds the frame route's plan, which a curvature report does build
    spec = parse_flag_spec(text)
    assert solve(spec).count > 0
    table1_row(spec)
    # the fresh memo's space, not the shared one that other tests reach
    space = einflag.einstein.metric_space(spec)
    assert "frame_plan" not in vars(space)
    curvature(solve(spec).solutions[0].metric)
    assert "frame_plan" in vars(space)


def test_solve_gauge_and_distinctness():
    st = solve("A:3:[2,1,1]:-")
    assert len(st.solutions) == 5
    for sol in st.solutions:
        n_sub = sol.metric.space.n_sub
        assert sol.coeffs[n_sub - 1] == pytest.approx(1.0, abs=1e-9)
    rows = coeff_rows(st.solutions)
    for a, b in zip(rows, rows[1:]):
        assert not np.allclose(a, b, rtol=1e-6)


def test_solution_constants_consistent():
    for sol in solve("B:5:[1,4]:+").solutions:
        rep = curvature(sol.metric)
        d = rep.ricci_tangent.shape[0]
        assert sol.scalar == pytest.approx(sol.constant * d, rel=1e-12)
        assert rep.scalar == pytest.approx(sol.constant * d, rel=1e-9)
        det = np.linalg.det(sol.metric.matrix)
        assert sol.normalized_constant == pytest.approx(
            sol.constant * det ** (1.0 / d), rel=CONSTANT_RTOL
        )


def test_engine_certificates_agree_with_the_frame_route():
    # solve certifies on the reduced engine alone; the independent frame
    # route must find every solution of every `table1 --max-l 10` flag
    # Einstein, with the same c, c-hat and scalar curvature
    solutions = 0
    for spec in _table_rows(10):
        for sol in solve(spec).solutions:
            rep = curvature(sol.metric)
            assert rep.einstein_defect < DEFECT_TOL, (str(spec), sol.rule_id)
            assert sol.defect < DEFECT_TOL, (str(spec), sol.rule_id)
            assert sol.constant == pytest.approx(rep.einstein_constant, rel=1e-10, abs=0)
            assert sol.normalized_constant == pytest.approx(
                rep.normalized_constant, rel=1e-10, abs=0
            )
            assert sol.scalar == pytest.approx(rep.scalar, rel=1e-10, abs=0)
            solutions += 1
    assert solutions == 612


# ---------------------------------------------------------------------------
# published table rows


def test_published_row_exact_entries():
    cases = {
        "A:3:[2,2]:-": ("1", 1, True),
        "A:3:[2,1,1]:-": ("5", 5, False),
        "B:5:[5]:-": ("2", 2, False),
        "B:4:[4]:-": ("2", 2, True),
        "B:5:[1,4]:+": ("1", 1, False),
        "C:4:[4]:-": ("0", 0, False),
        "C:4:[1,3]:+": ("1", 1, False),
        "D:4:[4]:-": ("1", 1, True),
        "D:4:[3,1]:-": ("5", 5, True),
        "D:5:[4,1]:-": ("6", 6, False),
        "D:6:[5,1]:-": ("6", 6, False),
    }
    for text, (display, exact, normal) in cases.items():
        row = published_row(text)
        assert row is not None, text
        assert (row.display, row.exact, row.normal) == (display, exact, normal), text


def test_published_row_bound_entries():
    cases = {
        "A:8:[3,3,3]:-": 4,
        "B:6:[2,4]:+": 3,
        "B:6:[3,3]:+": 4,
        "C:5:[2,3]:+": 2,
    }
    for text, bound in cases.items():
        row = published_row(text)
        assert row.exact is None and row.bound == bound, text
        assert row.matches(bound, True) is True
        assert row.matches(bound + 1, False) is False


def test_published_row_outside_table():
    assert published_row("D:5:[1,4]:+") is None
    assert published_row("A:5:[2,4]:-") is None
    assert published_row("D:5:[5]:-") is None
    # the A3 pair flags' row does not hold for the irreducible [3,1]
    assert published_row("A:3:[3,1]:-") is None
    assert published_row("A:3:[1,3]:-") is None


def test_expectation_matching():
    exact = TableExpectation("2", exact=2, normal=False)
    assert exact.matches(2, False) is True
    assert exact.matches(2, True) is False
    assert exact.matches(1, False) is False
    unbounded = TableExpectation("n/a")
    assert unbounded.matches(3, True) is None


def test_table1_row_fields():
    row = table1_row("A:3:[2,2]:-")
    assert row.summands == 2
    assert row.has_equivalent is False
    assert row.count == 1
    assert row.normal_is_einstein is True
    assert published_row(row.spec).matches(row.count, row.normal_is_einstein)

    row = table1_row("C:4:[4]:-")
    assert (row.count, row.normal_is_einstein) == (0, False)

    row = table1_row("A:3:[2,1,1]:-")
    assert row.has_equivalent is True
    assert row.count == 5
    assert row.normal_is_einstein is False


def test_normal_verdict_matches_the_curvature_defect():
    # oracle of the exact verdict: the Einstein defect of the normal
    # metric's frame-route report, on every `table1 --max-l 6` flag
    verdicts = set()
    for spec in _table_rows(6):
        space = metric_space(spec)
        normal = np.zeros(space.dim)
        normal[: space.n_sub] = 1.0
        defect = curvature(make_metric(space, normal)).einstein_defect
        assert table1_row(spec).normal_is_einstein == (defect < DEFECT_TOL), spec
        verdicts.add(defect < DEFECT_TOL)
    assert verdicts == {True, False}


def test_memoised_solutions_are_immutable():
    first = solve("B:3:[3]:-")
    count = first.count
    with pytest.raises(AttributeError):
        first.solutions.pop()
    with pytest.raises(ValueError):
        first.solutions[0].metric.coeffs[0] = 9.0
    with pytest.raises(ValueError):
        first.solutions[0].metric.matrix[0, 0] = 9.0
    with pytest.raises(ValueError):
        first.solutions[0].metric.spectrum[0] = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.solutions[0].rule_id = "edited"
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.solutions[0].constant = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.solutions[0].metric.coeffs = np.zeros(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.groups[0].tag = "edited"
    again = solve("B:3:[3]:-")
    assert again.count == count == 2
    assert again.solutions[0].coeffs[0] != 9.0
    assert again.solutions[0].rule_id != "edited"
    assert isinstance(again.solutions, tuple) and isinstance(again.groups, tuple)
