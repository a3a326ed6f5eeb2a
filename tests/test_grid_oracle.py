"""The multi-start grid search against the exact counts, and its own parts.

``solve`` takes its roots from the exact counts alone; the grid search of
:mod:`grid_oracle` is the independent route that must find the same roots,
on both grid levels of both stages.
"""

import numpy as np
import pytest

import grid_oracle
from conftest import FLAGS, PAIR_FLAGS
from einflag.curvature import reduced_ricci
from einflag.einstein import numeric_solutions
from einflag.flag import parse_flag_spec
from einflag.invariant import metric_space
from grid_oracle import (
    _LEVELS,
    _batched_roots,
    _difference_jacobian,
    _einstein_residual,
    _require_same,
    _stage_roots,
    grid_levels,
)

# the flags of ranks 7-10 with an equivalent pair
RANK_7_TO_10 = [text for text in PAIR_FLAGS if int(text.split(":")[1]) >= 7]


def exact_roots(text):
    """The answer's roots, all and diagonal, as coefficient vectors."""
    space = metric_space(parse_flag_spec(text))
    roots = [sol.coeffs for sol in numeric_solutions(text)]
    return roots, [c for c in roots if not np.any(c[space.n_sub :])]


@pytest.mark.parametrize("text", FLAGS + RANK_7_TO_10)
def test_both_grid_levels_find_the_exact_roots(text):
    spec = parse_flag_spec(text)
    roots, diagonal = exact_roots(text)
    space = metric_space(spec)
    levels = grid_levels(space, reduced_ricci(spec), diagonal)
    assert space.pairs or text not in RANK_7_TO_10
    assert set(levels) == ({"diagonal", "mixed"} if space.pairs else {"diagonal"})
    want = {"diagonal": diagonal, "mixed": roots}
    for stage, found in levels.items():
        assert len(found) == 2
        for k, level in enumerate(found):
            what = f"the exact count and grid level {k} of the {stage} stage"
            _require_same(text, what, level, want[stage])


def test_grid_disagreement_is_reported():
    # positive control of the comparison: one root dropped from a level
    roots, _ = exact_roots("D:5:[4,1]:-")
    with pytest.raises(grid_oracle.ConvergenceGap, match="6 vs 5"):
        _require_same("D:5:[4,1]:-", "the routes", roots, roots[1:])


# ---------------------------------------------------------------------------
# the parts of the search


def random_stack(space, rng, rows):
    """Positive definite coefficient rows of a metric space."""
    s = space.n_sub
    stack = np.exp(rng.uniform(-1.0, 1.0, (rows, space.dim)))
    for k, (i, j, _) in enumerate(space.pairs):
        stack[:, s + k] = rng.uniform(-0.8, 0.8, rows) * np.sqrt(
            stack[:, i] * stack[:, j]
        )
    return stack


@pytest.mark.parametrize("text", ["B:4:[4]:-", "A:3:[2,1,1]:-", "D:5:[4,1]:-"])
def test_batched_residual_matches_rows(text):
    spec = parse_flag_spec(text)
    engine = reduced_ricci(spec)
    stack = random_stack(metric_space(spec), np.random.default_rng(3), 8)
    rows = np.array([_einstein_residual(engine, c) for c in stack])
    batched = _einstein_residual(engine, stack)
    assert np.max(np.abs(batched - rows)) <= 1e-14 * np.max(np.abs(rows))


@pytest.mark.parametrize("text", ["A:8:[3,3,3]:-", "D:5:[4,1]:-"])
def test_difference_jacobian_matches_central_differences(text):
    spec = parse_flag_spec(text)
    space = metric_space(spec)
    engine = reduced_ricci(spec)
    s = space.n_sub

    def fun(u):
        # log diagonal coordinates, last one gauged; mixing kept as given
        logs = np.concatenate([u[..., : s - 1], np.zeros_like(u[..., :1])], axis=-1)
        coeffs = np.concatenate([np.exp(logs), u[..., s - 1 :]], axis=-1)
        return _einstein_residual(engine, coeffs)

    stack = random_stack(space, np.random.default_rng(5), 6)
    stack /= stack[:, s - 1 : s]
    u = np.concatenate([np.log(stack[:, : s - 1]), stack[:, s:]], axis=1)
    J = _difference_jacobian(fun, u, fun(u))
    h = 1e-5
    for b, row in enumerate(u):
        for j in range(len(row)):
            e = np.zeros(len(row))
            e[j] = h
            central = (fun(row + e) - fun(row - e)) / (2 * h)
            assert np.max(np.abs(J[b, :, j] - central)) <= 1e-6 * np.max(np.abs(J[b]))


@pytest.mark.parametrize("text, stage", [("B:4:[4]:-", "diagonal"), ("D:5:[4,1]:-", "mixed")])
def test_fused_levels_match_separate_searches(monkeypatch, text, stage):
    # both levels of a stage run in one pass, and each level's rows of the
    # pass are those of a search of its own
    seen = []
    fused = grid_oracle._level_roots

    def recorded(fun, grids):
        rows = fused(fun, grids)
        seen.append((fun, grids, rows))
        return rows

    monkeypatch.setattr(grid_oracle, "_level_roots", recorded)
    spec = parse_flag_spec(text)
    _stage_roots(metric_space(spec), reduced_ricci(spec), _LEVELS[stage])
    ((fun, grids, rows),) = seen
    assert len(grids) == len(rows) == 2
    for grid, got in zip(grids, rows):
        u, converged = _batched_roots(fun, grid)
        want = u[converged]
        assert len(want) and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
