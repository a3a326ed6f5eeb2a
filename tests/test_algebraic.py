"""The exact counts on every flag, their certificates and their gates."""

import copy
import dataclasses
import importlib
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import einflag.algebraic as algebraic
import einflag.einstein
import grid_oracle
from conftest import FLAGS, PAIR_FLAGS
from einflag.cli import main
from einflag.curvature import reduced_ricci
from einflag.einstein import _stage, numeric_solutions, solve
from einflag.errors import InvariantViolation, NoExactCount
from einflag.flag import parse_flag_spec
from einflag.invariant import metric_space

curvature_module = importlib.import_module("einflag.curvature")


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
    # the Killing trace of the flat summand is exactly zero, as the form is
    # scattered from exact traces (the dense float product left about
    # 3e-16); that much noise is judged against the largest trace of the
    # array, so that summand's Ricci coefficient still has no term at all
    space = metric_space(parse_flag_spec(text))
    traces = [np.trace(space.killing[sl, sl]) for sl in space.slices]
    assert traces[0] == 0.0 and abs(traces[1]) > 1
    noisy = dataclasses.replace(space)
    noisy.killing = space.killing.copy()
    noisy.killing[space.slices[0], space.slices[0]] += 3e-16 * np.eye(space.dims[0])
    for eng in (engine(text), curvature_module.ReducedRicci(noisy)):
        assert eng._k.tolist() == [0, round(traces[1])]
        # no bracket of two tangent directions has a tangent part here, so
        # rho_r = -k_r / (2 |O_r|^2)
        assert not eng._G.any()
        size = space.slices[1].stop - space.slices[1].start
        assert eng.terms() == ({}, {(0, 0): Fraction(-round(traces[1]), 2 * size)})


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


def test_pair_flags_are_those_of_the_table():
    assert [t for t in FLAGS if metric_space(parse_flag_spec(t)).pairs] == [
        t for t in PAIR_FLAGS if int(t.split(":")[1]) <= 6
    ]


@pytest.mark.parametrize("text", PAIR_FLAGS)
def test_every_mixed_stage_is_counted(text):
    # x_3 = 1, B = b^2: the mixing equation is
    # B (2 x1 - x2 + 1) + x1^2 - 2 x1 x2 + x2^2 - x2, up to its sign, and the
    # mixed metrics are (2/3, 1/3, 1, +-1/3) and (2, 3, 1, +-1) on every flag
    f1, f2, mix = algebraic.mixed_system(engine(text))
    want = {(0, 0, 1): 1, (1, 0, 1): 2, (0, 1, 1): -1, (2, 0, 0): 1,
            (1, 1, 0): -2, (0, 2, 0): 1, (0, 1, 0): -1}
    assert mix in (want, {e: -c for e, c in want.items()})
    count = algebraic.mixed_count(engine(text))
    third = 1 / 3
    assert count.points == (
        (2 * third, third, -third), (2 * third, third, third),
        (2.0, 3.0, -1.0), (2.0, 3.0, 1.0))
    assert count.multiplicities == (1, 1, 1, 1) and count.shear == 2


def test_monomial_content_removes_the_curve_at_x1_zero():
    # on A:3 every point with x1 = 0 and B = x2 solves the rebuilt system;
    # the eliminated curves share the factor x1 there, and dividing out
    # their monomial content leaves a countable system
    f1, f2, mix = algebraic.mixed_system(engine("A:3:[2,1,1]:-"))
    for x2 in (Fraction(2), Fraction(5, 2)):
        B = x2
        for f in (f1, f2, mix):
            assert sum(c * 0**i * x2**j * B**k for (i, j, k), c in f.items()) == 0
    assert len(algebraic.mixed_count(engine("A:3:[2,1,1]:-")).points) == 4


def test_certificates_in_the_solution_set():
    (diag,) = solve("B:4:[4]:-").completeness
    assert (diag.stage, diag.status, diag.shear, diag.multiplicities) == (
        "diagonal", "certified", 2, (1, 1))
    diag, mixed = solve("D:5:[4,1]:-").completeness
    assert (mixed.stage, mixed.status, mixed.shear, mixed.multiplicities) == (
        "mixed", "certified", 2, (1, 1, 1, 1))
    assert diag.status == "certified"


# ---------------------------------------------------------------------------
# a block sum that is no integer, and a structure constant flipped


def with_block_sum(monkeypatch, shift):
    """Make every engine built from now on read its first nonzero block sum
    ``v`` as ``shift(v)``.  Returns a list that gets the refusal message
    naming that entry, one per build."""
    sums = curvature_module._block_sums
    messages = []

    def patched(space, blocks):
        G = sums(space, blocks)
        at = np.unravel_index(np.flatnonzero(G)[0], G.shape)
        G[at] = shift(G[at])
        index = ", ".join(str(i) for i in at)
        messages.append(f"block sum G[{index}] = {float(G[at])!r} is no integer")
        return G

    monkeypatch.setattr(curvature_module, "_block_sums", patched)
    return messages


SHIFTS = {"half": lambda v: v + 0.5, "nan": lambda v: math.nan}


@pytest.mark.parametrize("count", [algebraic.diagonal_count, algebraic.mixed_count])
@pytest.mark.parametrize("shift", SHIFTS)
def test_unfit_entry_raises_no_exact_count(monkeypatch, count, shift):
    # the engine checks its integers once, when it is built, so no count
    # ever reads an entry that is not one
    messages = with_block_sum(monkeypatch, SHIFTS[shift])
    space = metric_space(parse_flag_spec("D:5:[4,1]:-"))
    with pytest.raises(NoExactCount) as refused:
        count(curvature_module.ReducedRicci(space))
    assert str(refused.value) == messages[0]
    assert ("nan" if shift == "nan" else ".5 is no integer") in messages[0]


@pytest.mark.parametrize("text, stage", [("B:4:[4]:-", "diagonal"), ("D:5:[4,1]:-", "mixed")])
def test_unfit_entry_fails_the_solve(cold_caches, monkeypatch, text, stage):
    # no grid stands in for a stage the exact count does not cover, and the
    # count of the stage never runs on the refused engine
    messages = with_block_sum(monkeypatch, SHIFTS["half"])

    def unreached(eng):
        raise AssertionError(f"the {stage} count ran")

    monkeypatch.setattr(einflag.einstein, f"{stage}_count", unreached)
    with pytest.raises(NoExactCount) as refused:
        solve(text)
    assert str(refused.value) == messages[0]


def test_unfit_killing_trace_raises_no_exact_count():
    # a Killing trace off an integer by 1e-9 of the largest is refused by name
    space = metric_space(parse_flag_spec("D:5:[4,1]:-"))
    killing = space.killing.copy()
    killing[0, 0] += 1e-9 * max(abs(np.trace(killing[sl, sl])) for sl in space.slices)
    bad = dataclasses.replace(space)
    bad.killing = killing
    with pytest.raises(NoExactCount, match=r"block Killing trace k\[0\] = .* is no integer"):
        curvature_module.ReducedRicci(bad)


def flipped_space(text, which):
    """The metric space of a flag over a copy of its algebra with one
    structure constant negated.

    The constant is ``C[I, J, K] = -C[J, I, K]`` of the ``which``-th bracket
    of two tangent basis elements I < J with a tangent part K other than
    both; its two stored entries are negated together, and the Killing
    form's nonzeros are rebuilt.  The cached model is left as it is.
    """
    space = metric_space(parse_flag_spec(text))
    model = copy.copy(space.spec.algebra)
    I, J, K, V = model.structure_index
    tangent = np.any(space.basis != 0, axis=0)
    e = np.flatnonzero(tangent[I] & tangent[J] & tangent[K] & (I < J) & (K != I) & (K != J))[which]
    pair = ((I == I[e]) & (J == J[e])) | ((I == J[e]) & (J == I[e]))
    model.structure_index = (I, J, K, np.where(pair & (K == K[e]), -V, V))
    model.killing_index = model._build_killing()
    dec = dataclasses.replace(space.dec, spec=dataclasses.replace(space.spec, algebra=model))
    # replace copies no cached property: the copy derives t and K anew
    return space, dataclasses.replace(space, dec=dec)


@pytest.mark.parametrize("text", ["B:3:[3]:-", "A:4:[1,2,2]:-", "C:5:[2,3]:+", "D:5:[4,1]:-"])
@pytest.mark.parametrize("which", [0, 1])
def test_flipped_structure_constant_changes_the_diagonal_system(text, which):
    # the exact route must not round one changed constant away: either the
    # engine refuses it or the diagonal system changes.  The flip reaches
    # the system only through the rebuilt Killing form, whose span traces
    # are then no multiple of the Gram on some operator block, and the
    # tangent Killing form refuses that
    cached = metric_space(parse_flag_spec(text)).spec.algebra.structure_index[3]
    values = cached.copy()
    space, flipped = flipped_space(text, which)
    assert not np.array_equal(flipped.spec.algebra.structure_index[3], values)
    want = algebraic.diagonal_system(engine(text))
    try:
        got = algebraic.diagonal_system(curvature_module.ReducedRicci(flipped))
    except NoExactCount:
        got = None
    except InvariantViolation as exc:
        assert str(exc).startswith(f"the Killing form of {text} ")
        got = None
    assert got != want
    assert np.array_equal(cached, values)


def test_mixed_count_covers_one_pair_of_three_summands():
    with pytest.raises(NoExactCount, match="2 summands and 0 pairs"):
        algebraic.mixed_count(engine("B:3:[3]:-"))


# ---------------------------------------------------------------------------
# mutation: one integer coefficient of the exact system alone, moved by one


def exact_and_grid(text, stage):
    """The roots of one stage's exact count, and both of its grid levels."""
    spec = parse_flag_spec(text)
    space, eng = metric_space(spec), engine(text)
    diagonal, _ = _stage(space, "diagonal", algebraic.diagonal_count(eng))
    if stage == "diagonal":
        exact = diagonal
    else:
        mixed, _ = _stage(space, "mixed", algebraic.mixed_count(eng))
        exact = diagonal + mixed
    return exact, grid_oracle.grid_levels(space, eng, diagonal)[stage]


def agrees(text, exact, levels):
    try:
        for level in levels:
            grid_oracle._require_same(text, "the exact count and the grid", level, exact)
    except grid_oracle.ConvergenceGap:
        return False
    return True


def mutate(monkeypatch, name, equation, key, step):
    """Move one coefficient of an exact system by ``step`` in magnitude,
    which changes the equation alike whatever its overall sign."""
    build = getattr(algebraic, name)

    def perturbed(eng):
        system = build(eng)
        c = system[equation][key]
        system[equation][key] = c + (step if c > 0 else -step)
        return system

    monkeypatch.setattr(algebraic, name, perturbed)


MUTATIONS = [
    ("B:3:[3]:-", "diagonal_system", 0, 0),
    ("A:4:[1,2,2]:-", "diagonal_system", 0, (1, 0)),
    ("D:5:[4,1]:-", "mixed_system", 0, (1, 2, 0)),
    ("A:3:[2,1,1]:-", "mixed_system", 1, (0, 1, 0)),
]


@pytest.fixture(params=MUTATIONS, ids=[f"{t}-{n}" for t, n, _, _ in MUTATIONS])
def mutated(request, cold_search, monkeypatch):
    """Move one integer coefficient of the flag's exact system one step
    toward zero."""
    text, name, equation, key = request.param
    stage = name.removesuffix("_system")
    exact, levels = exact_and_grid(text, stage)
    assert agrees(text, exact, levels)
    mutate(monkeypatch, name, equation, key, -1)
    return text, stage


def test_mutated_system_disagrees_with_the_grid(mutated):
    text, stage = mutated
    assert not agrees(text, *exact_and_grid(text, stage))


def test_mutated_system_fails_the_certificate(mutated):
    # the roots of the mutated system are no Einstein metrics: the engine
    # certificate of the answer refuses them
    with pytest.raises(InvariantViolation, match="Einstein defect"):
        numeric_solutions(mutated[0])


def test_mutated_system_fails_the_cli_cleanly(mutated, capsys):
    assert main(["solve", mutated[0]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("einflag: invariant failure: ") and "Einstein defect" in err
    assert "Traceback" not in err


def test_vanishing_b2_coefficient_at_a_root_raises(monkeypatch):
    # growing the x2 coefficient of the mixing equation by one puts a root of
    # the eliminated curves on the line where the B coefficient vanishes
    mutate(monkeypatch, "mixed_system", 2, (0, 1, 0), 1)
    with pytest.raises(NoExactCount, match="coefficient of the mixing equation vanishes"):
        algebraic.mixed_count(engine("D:5:[4,1]:-"))


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
