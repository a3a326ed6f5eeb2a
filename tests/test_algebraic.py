"""The exact diagonal count on every flag, its certificate and its gates."""

import copy
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import einflag.algebraic as algebraic
import einflag.einstein
from einflag.cli import _table_rows, main
from einflag.curvature import reduced_ricci
from einflag.einstein import numeric_solutions, solve
from einflag.errors import ConvergenceGap, NoExactCount
from einflag.flag import parse_flag_spec
from einflag.invariant import metric_space

# every `table1 --max-l 6` flag, plus the large three-summand flag
FLAGS = [str(s) for s in _table_rows(6)] + ["A:25:[20,3,3]:-"]


def engine(text):
    return reduced_ricci(parse_flag_spec(text))


@pytest.mark.parametrize("text", FLAGS)
def test_every_diagonal_stage_is_counted(text):
    eng = engine(text)
    system = algebraic.diagonal_system(eng)
    # two summands: one equation of degree <= 2; three: plane curves of
    # total degree <= 4
    if eng.n_sub == 2:
        assert len(system) == 1 and len(system[0]) <= 3
    else:
        assert len(system) == 2
        assert all(max(i + j for i, j in f) <= 4 for f in system)
    count = algebraic.diagonal_count(eng)
    assert count.shear in (None, 2)
    assert len(count.points) == len(count.multiplicities)


@pytest.mark.parametrize("text", ["A:5:[2,2,2]:-", "D:4:[3,1]:-", "D:4:[1,3]:-", "D:4:[1,2,1]:+"])
def test_double_root_flags_read_the_normal_metric_exactly(text):
    # the normal metric is an intersection of multiplicity 4, where the
    # first subresultant vanishes; it is substituted as a rational
    count = algebraic.diagonal_count(engine(text))
    assert count.points == ((1.0, 1.0),)
    assert count.multiplicities == (4,)


@pytest.mark.parametrize("text", ["C:5:[5]:-", "C:6:[6]:-"])
def test_rounding_noise_in_the_killing_term_fits_as_zero(text):
    # kappa carries an entry of about 3e-16 that is exactly zero; it is
    # judged against the largest entry of its array
    *_, kappa = engine(text).diagonal_terms()
    assert 0 < min(map(abs, kappa)) < 1e-15
    (fitted,) = algebraic._fit([kappa], "kappa")
    assert 0 in fitted and all(isinstance(v, Fraction) for v in fitted)


@pytest.mark.parametrize("text", FLAGS)
def test_exact_roots_reach_the_answer_unpolished(text):
    # the diagonal solutions are the exact count's floats, bit for bit,
    # with the gauged coefficient and zero mixing coefficients appended
    eng = engine(text)
    s, dim = eng.n_sub, metric_space(parse_flag_spec(text)).dim
    pad = (1.0,) + (0.0,) * (dim - s)
    want = sorted(point + pad for point in algebraic.diagonal_count(eng).points)
    got = [tuple(map(float, sol.coeffs)) for sol in numeric_solutions(text)]
    assert sorted(vec for vec in got if not any(vec[s:])) == want


def test_certificates_in_the_solution_set():
    (diag,) = solve("B:4:[4]:-").completeness
    assert (diag.stage, diag.status, diag.shear, diag.multiplicities) == (
        "diagonal", "certified", 2, (1, 1))
    diag, mixed = solve("D:5:[4,1]:-").completeness
    assert diag.status == "certified" and mixed.status.startswith("grid-only: ")
    assert solve("B:3:[3]:-", mode="closed-form").completeness == ()


# ---------------------------------------------------------------------------
# fallback: an engine entry that is no small rational


def with_entry(eng, value):
    """A copy of the engine whose first nonzero M1 entry is ``value``."""
    bad = copy.copy(eng)
    bad._m1 = eng._m1.copy()
    bad._m1.flat[np.flatnonzero(eng._m1)[0]] = value
    return bad


@pytest.mark.parametrize("value, reason", [
    (math.pi, "M1 entry 3.14159"),
    (math.nan, "M1 has an entry that is not finite"),
])
def test_unfit_entry_raises_no_exact_count(value, reason):
    with pytest.raises(NoExactCount, match=reason):
        algebraic.diagonal_count(with_entry(engine("B:4:[4]:-"), value))


def grid_only_solve(text, monkeypatch):
    """Solve with π injected into the exact count's engine, recording how
    many grid levels each batched search runs."""
    count = einflag.einstein.diagonal_count
    monkeypatch.setattr(
        einflag.einstein, "diagonal_count", lambda eng: count(with_entry(eng, math.pi))
    )
    levels = []
    fused = einflag.einstein._level_roots

    def recorded(fun, grids):
        levels.append(len(grids))
        return fused(fun, grids)

    monkeypatch.setattr(einflag.einstein, "_level_roots", recorded)
    return solve(text, mode="numeric"), levels


def test_unfit_entry_marks_the_stage_grid_only(cold_search, monkeypatch):
    # the exact count sees the injected entry; the grids see the true
    # engine, run both levels, and find the usual two metrics
    result, levels = grid_only_solve("B:4:[4]:-", monkeypatch)
    assert result.count == 2 and levels == [2]
    (diag,) = result.completeness
    assert diag.status.startswith("grid-only: M1 entry 3.14159")
    assert diag.shear is None and diag.multiplicities == ()


def test_unfit_entry_on_a_pair_flag(cold_search, monkeypatch):
    # the grid-only diagonal stage runs both of its levels, the mixed stage
    # both of its own, and the six metrics of the flag are all found
    result, levels = grid_only_solve("D:5:[4,1]:-", monkeypatch)
    assert result.count == 6 and levels == [2, 2]
    diag, mixed = result.completeness
    assert diag.status.startswith("grid-only: M1 entry 3.14159")
    assert mixed.status.startswith("grid-only: ")


# ---------------------------------------------------------------------------
# mutation: one integer coefficient of the exact system alone, raised by one


@pytest.fixture(params=[("B:3:[3]:-", 0), ("A:4:[1,2,2]:-", (1, 0))])
def mutated(request, cold_search, monkeypatch):
    """Add one to one integer coefficient of the flag's exact system."""
    text, key = request.param
    build = algebraic.diagonal_system

    def perturbed(eng):
        system = build(eng)
        system[0][key] += 1
        return system

    monkeypatch.setattr(algebraic, "diagonal_system", perturbed)
    return text


def test_mutated_system_disagrees_with_the_grid(mutated):
    with pytest.raises(ConvergenceGap, match="exact count"):
        numeric_solutions(mutated)


def test_mutated_system_fails_the_cli_cleanly(mutated, capsys):
    assert main(["solve", mutated]) == 1
    err = capsys.readouterr().err
    assert err.startswith("einflag: invariant failure: ") and "exact count" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the module stays standard-library only


def test_import_loads_no_numeric_package():
    # the package __init__ imports the numeric modules, so the module is
    # imported under a bare package object that only provides its path
    src = Path(einflag.einstein.__file__).parent
    code = (
        "import sys, types\n"
        f"pkg = types.ModuleType('einflag'); pkg.__path__ = [{str(src)!r}]\n"
        "sys.modules['einflag'] = pkg\n"
        "import einflag.algebraic\n"
        "bad = sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('numpy', 'scipy', 'sympy'))\n"
        "assert not bad, bad\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
