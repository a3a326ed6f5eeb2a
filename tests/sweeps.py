"""The checks that CI runs beyond the Tier-1 ranks, one function per sweep:
each takes flags or ``(family, rank)`` pairs and returns its summary lines,
and ``python tests/sweeps.py NAME`` runs one on its set in :data:`SWEEPS`.
Only numpy and einflag load with this module; memos are read off their
modules, so that a test's fresh memos reach them."""

import contextlib
import functools
import importlib
import io
import itertools
import math
import resource
import sys
import time
import tracemalloc
import types

import numpy as np

from einflag import algebraic, cli, einstein, flag, invariant, schur, verify
from einflag.algebra import _MIN_RANK, build_algebra
from einflag.cli import _drop_flag_memos, _rank_specs
from einflag.curvature import curvature
from einflag.einstein import DEFECT_TOL
from einflag.errors import UnimplementedCase
from einflag.flag import enumerate_small_flags, make_flag, parse_flag_spec
from einflag.invariant import Frame, make_metric, orthonormal_frame

# the package exports its function ``curvature`` under the module's name
curvature_module = importlib.import_module("einflag.curvature")


def table_rows(max_l):
    """Every flag of ``einflag table1 --max-l max_l`` in one list, in table order."""
    return [spec for specs in _rank_specs(max_l) for spec in specs]


def pair_flags(ranks):
    """The three D flags with an equivalent pair at each rank."""
    return [text for l in ranks for text in (f"D:{l}:[{l - 1},1]:-", f"D:{l}:[1,{l - 1}]:-", f"D:{l}:[1,{l - 2},1]:+")]


def _ranks(specs):
    return f"{min(s.rank for s in specs)}-{max(s.rank for s in specs)}"


def _peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _traced(call):
    """``call()`` and the bytes it traced at its peak."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def algebras(pairs):
    """Each algebra, past its memo: entries, pairing join and exact Jacobi test."""
    import dense_oracle

    pairs, worst = list(pairs), 0.0
    for family, rank in pairs:
        model = build_algebra.__wrapped__(family, rank)
        assert [e.label for e in model.basis] == dense_oracle.basis_labels(family, rank), (family, rank)
        mats = dense_oracle.basis_matrices(family, rank)
        elem, row, col, val = model.entries
        N = model.ambient_dim
        dense = np.zeros((model.n, N * N), dtype=np.int64)
        dense[elem, row * N + col] = val
        assert np.array_equal(dense.reshape(model.n, N, N), mats), (family, rank)
        # +-1, read-only, element by element in (row, col) order
        assert np.all(np.diff((elem * N + row) * N + col) > 0) and np.all(np.abs(val) == 1), (family, rank)
        assert not any(a.flags.writeable for a in model.entries), (family, rank)
        two = {f"u({k},{k})" for k in range(1, rank + 1)}
        count = [2 if family == "A" or e.label in two else 4 for e in model.basis]
        assert np.bincount(elem, minlength=model.n).tolist() == count, (family, rank)
        want = np.asarray(dense_oracle.ambient_inner_matrices(model, mats, mats), dtype=float)
        diag, (e, f, sums) = model.pair_entries(elem, row * N + col, val)
        got = np.diag(diag)
        got[e, f] = sums
        assert np.array_equal(got.view(np.int64), (want + 0.0).view(np.int64)), (family, rank)
        assert np.array_equal(model.gram.view(np.int64), np.diag(want).copy().view(np.int64)), (family, rank)
        ctx = types.SimpleNamespace(model=model, rng=np.random.default_rng(verify._SEED))
        detail = verify._check_jacobi(ctx)
        worst = max(worst, float(detail.rsplit("<= ", 1)[1]) if "<=" in detail else 0.0)
    return [
        f"{len(pairs)} algebras of ranks {min(r for _, r in pairs)}-{max(r for _, r in pairs)}: "
        "the entries equal the dense basis oracle,",
        "the pairing join equals the dense pairing,",
        f"and every cyclic sum is exactly 0 at the check's draws (miss bound <= {worst:.1e})",
    ]


def planned_cases(space, rng):
    """``(fraction, coefficients)`` of one flag: two metrics without a pair,
    else b = 0, 1e-15 and two mixed b, as fractions of ``sqrt(x_i x_j)``."""
    x = rng.uniform(0.5, 2.0, space.n_sub)
    if not space.pairs:
        return [(None, x), (None, rng.uniform(0.5, 2.0, space.n_sub))]
    scale = np.array([np.sqrt(x[i] * x[j]) for i, j, _ in space.pairs])
    return [(f, np.r_[x, f * scale]) for f in [0.0, 1e-15, *rng.uniform(-0.85, 0.85, 2)]]


def reports_agree(space, rng):
    """The report part of :func:`engine`, against the dense oracle and the
    engine; returns the largest engine gap and the oracle's seconds."""
    import dense_oracle

    reduced, text = curvature_module.reduced_ricci(space.spec), str(space.spec)
    worst, seconds = 0.0, 0.0
    for frac, c in planned_cases(space, rng):
        metric = make_metric(space, c)
        report = curvature(metric)
        full = report.coefficients
        gap = float(np.max(np.abs(reduced(c) - full))) / (1.0 + float(np.max(np.abs(full))))
        assert gap <= 1e-10, (text, frac, gap)
        worst = max(worst, gap)
        start = time.perf_counter()
        bad = dense_oracle.report_mismatches(report, dense_oracle.canonical_report(metric), frac)
        seconds += time.perf_counter() - start
        assert bad == [], (text, frac, bad)
    return worst, seconds


def _counts(space, engine):
    found = [algebraic.diagonal_count(engine)]
    if space.pairs:
        found.append(algebraic.mixed_count(engine))
    return [(c.shear, c.multiplicities, [[float.hex(v) for v in p] for p in c.points]) for c in found]


def engine(flags):
    """The engine and report (:func:`reports_agree`), the exact counts against
    a null guess, and the frame certificate of every root."""
    flags = list(flags)
    worst, seconds, points, oracle_seconds = 0.0, 0.0, 0, 0.0
    roots, worst_defect, worst_c = 0, 0.0, 0.0
    guess = algebraic._float_guess
    for spec in flags:
        space = invariant.metric_space(spec)
        gap, spent = reports_agree(space, np.random.default_rng(list(str(spec).encode())))
        worst, oracle_seconds = max(worst, gap), oracle_seconds + spent
        reduced = curvature_module.reduced_ricci(spec)
        start = time.perf_counter()
        want = _counts(space, reduced)
        seconds += time.perf_counter() - start
        algebraic._float_guess = lambda root: math.nan
        try:
            got = _counts(space, reduced)
        finally:
            algebraic._float_guess = guess
        assert got == want, str(spec)
        points += sum(len(p) for _, _, p in want)
        for sol in einstein.numeric_solutions(spec):
            rep = curvature(sol.metric)
            gap = abs(sol.constant - rep.einstein_constant) / abs(rep.einstein_constant)
            assert rep.einstein_defect < DEFECT_TOL, (str(spec), sol.rule_id, rep.einstein_defect)
            assert gap <= 1e-10, (str(spec), sol.rule_id, gap)
            roots += 1
            worst_defect, worst_c = max(worst_defect, rep.einstein_defect), max(worst_c, gap)
        _drop_flag_memos()
    return [
        f"{len(flags)} flags of ranks {_ranks(flags)}: every block sum and Killing trace is an integer,",
        f"and the engine's terms match the frame route to {worst:.1e};",
        f"the exact counts ({points} points) took {seconds:.2f} s and are bit-identical",
        "with a null guess, which leaves plain bisection to refine every root;",
        f"the frame route certifies all {roots} roots: defect <= {worst_defect:.1e},",
        f"Einstein constant within {worst_c:.1e} of the engine's;",
        f"every report field meets the dense oracle's rule ({oracle_seconds:.2f} s)",
    ]


def schur_certificates(flags):
    """The Schur certificate against the X^2 oracle on the same probes."""
    import schur_oracle

    flags, zero, nonzero = list(flags), 0.0, np.inf
    for spec in flags:
        text, space = str(spec), invariant.metric_space(spec)
        signs = space.signs  # exact +-1 diagonals
        assert np.array_equal(signs.row, signs.col) and np.all(np.abs(signs.value) == 1), text
        probes = schur._probes(space.reps, space.signs, space.tangent_dim)
        found, homs, margin = schur._schur_certificate(probes, space.slices)
        want, want_homs, _ = schur_oracle.certificate(probes, space.slices)
        pairs = [(i, j) for i in range(space.n_sub) for j in range(i + 1, space.n_sub)]
        hom = [len(homs.get(p, [])) for p in pairs]
        assert hom == [len(want_homs.get(p, [])) for p in pairs], text
        assert found - sum(hom) == want - sum(hom) == space.n_sub and sum(hom) == len(space.pairs), text
        assert margin == space.certificate_margin and margin[0] <= 1e-11 and margin[1] >= 1e-7, (text, margin)
        oracle = schur_oracle.metric_space(spec).operators
        assert oracle.shape == space.operators.shape, text
        assert np.array_equal(oracle.view(np.int64), space.operators.view(np.int64)), text
        for _, _, B0 in space.pairs:
            assert np.array_equal(B0.view(np.int64), np.eye(len(B0)).view(np.int64)), text
        zero, nonzero = max(zero, margin[0]), min(nonzero, margin[1])
        _drop_flag_memos()
    return [
        f"{len(flags)} flags of ranks {_ranks(flags)}: the certificate equals the X^2 oracle;",
        f"zero Gram eigenvalues <= {zero:.1e}, nonzero >= {nonzero:.1e} of the norm",
    ]


def exact_decisions(dec):
    """The decisions of the decomposition's exact certificate, keyed as
    :func:`decomposition_oracle.decisions`, with the three checks that read it."""
    cert, m = dec.certificate, len(dec.submodules)
    owner, (a, b, _) = cert.owner, cert.gram
    cross = owner[a] < owner[b]
    ctx = types.SimpleNamespace(dec=dec, model=dec.spec.algebra, spec=dec.spec)
    verdicts = []
    for check in (verify._check_tangent_complement, verify._check_isotropy_stability):
        try:
            check(ctx)
            verdicts.append(True)
        except verify._Failure:
            verdicts.append(False)
    return {
        "within_tangent": not np.any(cross & (owner[b] == m)),
        "orthogonal": not np.any(cross & (owner[b] < m)),
        "ranks": cert.ranks.tolist(),
        "invariant": cert.leaks[0].size == 0,
        "stable": verdicts[1],
        "complement": verdicts[0],
    }


def decomposition(flags):
    """The exact decomposition decisions against the float oracle, on each
    flag and on the flag with one span row leaking into another summand,
    and the orthonormal rows against the Gram-Schmidt loop, bit for bit."""
    import dataclasses

    import decomposition_oracle

    flags, start, rows, checked = list(flags), time.perf_counter(), 0, 0
    for spec in flags:
        text = str(spec)
        assert flag.split_reductive(spec) == decomposition_oracle.split_reductive(spec), text
        dec = flag.decompose_isotropy(spec)
        rng = np.random.default_rng(list(text.encode()))
        want = decomposition_oracle.decisions(dec, rng)
        assert exact_decisions(dec) == want, (text, want)
        assert want["ranks"] == [s.dim for s in dec.submodules] and all(v for k, v in want.items() if k != "ranks"), text
        for s in dec.submodules:
            loop = decomposition_oracle.gram_schmidt_loop(spec, s.span)
            assert np.array_equal(s.orthonormal.view(np.int64), loop.view(np.int64)), (text, s.name)
            rows += s.dim
        # the first row of summand 0 takes on the first row of summand 1
        s0, s1 = dec.submodules[:2]
        span = s0.span.copy()
        span[0] += s1.span[0]
        subs = [dataclasses.replace(s0, span=span, orthonormal=flag._orthonormalize(spec, span)), *dec.submodules[1:]]
        leaky = dataclasses.replace(dec, submodules=subs)
        assert exact_decisions(leaky)["orthogonal"] is decomposition_oracle.orthogonal(leaky) is False, text
        checked += 1
        _drop_flag_memos()
    return [
        f"{len(flags)} flags of ranks {_ranks(flags)}: the exact split, orthogonality, ranks, ad-invariance",
        "and the three decomposition checks decide as the float oracle, also with one",
        f"span row leaking ({checked} refused as not orthogonal by both); all {rows} orthonormal rows",
        f"equal the Gram-Schmidt loop's bit for bit ({time.perf_counter() - start:.1f} s)",
    ]


def block_flags(top):
    """Every flag of at most four blocks, through ``make_flag``, at the ranks
    above each family's least through ``top``.  At the least ranks each B,
    C and D flag is refused whole, and A:1 has one summand."""
    flags = []
    for family, low in _MIN_RANK.items():
        for rank in range(low + 1, top + 1):
            model, n = build_algebra(family, rank), rank + (family == "A")
            for blocks in range(1, 5):
                for cut in itertools.combinations(range(1, n), blocks - 1):
                    parts = [b - a for a, b in zip((0,) + cut, cut + (n,))]
                    lasts = [False] if family == "A" else [False, True]
                    flags += [make_flag(model, parts, last) for last in lasts]
    return flags


def pairs_aligned(flags, expect):
    """Each flag's metric space, built with every pair aligned, its B0 the
    exact identity, or refused as uncatalogued; ``expect`` holds the counts
    ``(built, pairs, refused)``."""
    flags, built, pairs, refused = list(flags), 0, 0, 0
    start = time.perf_counter()
    for spec in flags:
        try:
            space = invariant.metric_space(spec)
        except UnimplementedCase:
            refused += 1
        else:
            for _, _, B0 in space.pairs:
                assert np.array_equal(B0.view(np.int64), np.eye(len(B0)).view(np.int64)), str(spec)
            built, pairs = built + 1, pairs + len(space.pairs)
        _drop_flag_memos()
    assert (built, pairs, refused) == expect, (built, pairs, refused)
    return [
        f"{len(flags)} flags of at most four blocks of ranks {_ranks(flags)}: {built} metric spaces "
        f"with {pairs} pairs, every one aligned, and {refused} refused ({time.perf_counter() - start:.1f} s)"
    ]


def as_set(maps):
    """The coefficient maps as a set of int64 byte strings."""
    return {np.asarray(L, dtype=np.int64).tobytes() for L in maps}


def dense_candidates(perm, sign):
    """The ``(m, N, N)`` matrices of candidates given as ``(perm, sign)``."""
    m, N = perm.shape
    O = np.zeros((m, N, N))
    O[np.arange(m)[:, None], np.arange(N), perm] = sign
    return O


def witnesses(flags):
    """The candidates, exact maps and groups against the float screen oracle."""
    import screen_oracle

    flags = list(flags)
    start, maps, (peak, heaviest) = time.perf_counter(), 0, (0.0, "")
    for spec in flags:
        text = str(spec)
        invariant.metric_space(spec)
        exact, traced = _traced(lambda: einstein._witness_maps(spec))
        traced /= 1e6
        assert traced < 30, f"_witness_maps('{text}') traced {traced:.1f} MB"
        peak, heaviest = max((peak, heaviest), (traced, text))
        perm, sign = einstein._ambient_candidates(spec)
        old = screen_oracle.ambient_candidates(spec)
        assert perm.dtype == sign.dtype == np.int64 and len(perm) == len(old), text
        assert all(np.array_equal(a, b) for a, b in zip(dense_candidates(perm, sign), old)), text
        assert as_set(exact) == as_set(screen_oracle.coefficient_maps(spec, old)), text
        sols = einstein.solve(spec).solutions
        want = screen_oracle.oracle_screen(spec, sols, old)
        assert sorted((g.indices, g.tag) for g in einstein.equivalence_screen(spec, sols)) == want, text
        assert sorted((g.indices, g.tag) for g in einstein.solve(spec).groups) == want, text
        maps += len(exact)
        _drop_flag_memos()
    return [
        f"{len(flags)} flags: the {maps} exact witness maps equal the oracle's as sets,",
        f"and both screens group alike ({time.perf_counter() - start:.1f} s);",
        f"_witness_maps('{heaviest}') traced {peak:.1f} MB after metric_space",
    ]


def frame_cases(space, rng):
    """Coefficients for the frame oracle: without a pair, two random metrics;
    with pairs, b unmixed (below 1e-14), near it and mixed at x and x with
    x_i and x_j swapped, +-1.5e-14 where one side's entry in the rows of
    summand i is below 1e-12 and its entry in those of summand j is not,
    x_i = x_j, and x scaled by 1e26."""
    x = rng.uniform(0.5, 2.0, space.n_sub)
    if not space.pairs:
        return [x, rng.uniform(0.5, 2.0, space.n_sub)]
    i, j = np.array([p[:2] for p in space.pairs]).T
    swapped = x.copy()
    swapped[i], swapped[j] = x[j], x[i]
    scale = np.sqrt(x[i] * x[j])
    fracs = [0.0, 1e-15, 5e-15, -5e-15, 2e-14, -2e-14, 0.4, -0.4, rng.uniform(-0.85, 0.85)]
    cases = [np.r_[z, f * scale] for z in (x, swapped) for f in fracs]
    for u, v in ((i, j), (j, i)):
        far = x.copy()
        far[v] = 4 * x[u]
        cases += [np.r_[far, np.full(i.size, b)] for b in (1.5e-14, -1.5e-14)]
    equal = x.copy()
    equal[j] = x[i]
    cases.append(np.r_[equal, 0.3 * x[i]])
    return cases + [np.r_[1e26 * z, np.full(i.size, 1e12)] for z in (x, swapped)]


def frames_agree(space, rng):
    """The body of :func:`frames`, bit for bit at each frame case, with a mixed
    column led by its entry in the rows of summand j on each side of each
    pair; returns the case count."""
    import dense_oracle

    cases, leads = frame_cases(space, rng), set()
    for coeffs in cases:
        metric = make_metric(space, coeffs)
        frame = orthonormal_frame(metric)
        V, v, w = dense_oracle.orthonormal_frame(metric)
        _, got_v, got_w = frame.sparse
        assert np.array_equal(got_v.view(np.int64), v.view(np.int64)), coeffs
        assert np.array_equal(got_w.view(np.int64), w.view(np.int64)), coeffs
        assert np.array_equal(frame.vectors, V), coeffs
        for k, (a, b, _) in enumerate(space.pairs):
            si, sj = space.slices[a], space.slices[b]
            for side, (eye, other) in enumerate(((V[si, si], V[sj, si]), (V[si, sj], V[sj, sj]))):
                small = np.max(np.abs(np.diag(eye))) <= 1e-12 < np.min(np.max(np.abs(other), 0))
                if abs(coeffs[space.n_sub + k]) >= 1e-14 and small:
                    leads.add((k, side))
    assert len(leads) == 2 * len(space.pairs), leads
    return len(cases)


def frames(flags):
    """The canonical frame against the dense construction on pair flags."""
    flags, metrics = list(flags), 0
    for spec in flags:
        space = invariant.metric_space(spec)
        assert space.pairs, str(spec)
        metrics += frames_agree(space, np.random.default_rng(list(str(spec).encode())))
        _drop_flag_memos()
    return [
        f"{len(flags)} pair flags of ranks {_ranks(flags)}: the canonical frame equals the",
        f"dense construction bit for bit at {metrics} metrics, signed zeros included",
    ]


def listing(pairs):
    """``einflag list FAMILY RANK`` peaks below 150 MB; run it in a fresh process."""
    lines = []
    for family, rank in pairs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["list", family, str(rank)])
        assert rc == 0, rc
        assert _peak_mb() < 150, f"list {family} {rank} peaked at {_peak_mb():.0f} MB"
        lines.append(f"list {family} {rank}: peak {_peak_mb():.0f} MB")
    return lines


def check_memory(flags):
    """Solve, check and 201 reports stay small in memory (in a fresh process):
    at C:25 one d^3 array is 474 MB."""
    lines = []
    for spec in flags:
        flag = str(spec)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["solve", flag])
        assert rc == 0, rc
        assert _peak_mb() < 300, f"solve peaked at {_peak_mb():.0f} MB"
        results = verify.run_checks(flag)
        failed = [r.name for r in results if not r.passed]
        assert len(results) == 22 and not failed, failed
        assert _peak_mb() < 500, f"check peaked at {_peak_mb():.0f} MB"
        space = invariant.metric_space(spec)
        d = space.tangent_dim
        rng = np.random.default_rng(0)
        worst = 0
        tracemalloc.start()
        for _ in range(200):
            x = rng.uniform(0.5, 2.0, space.n_sub)
            mixing = [rng.uniform(-0.5, 0.5) * np.sqrt(x[i] * x[j]) for i, j, _ in space.pairs]
            metric = make_metric(space, np.r_[x, mixing])
            rep = None
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            rep = curvature(metric)
            worst = max(worst, tracemalloc.get_traced_memory()[1] - start)
            gap = abs(rep.scalar - rep.scalar_direct)
            assert gap <= 1e-10 * max(1.0, abs(rep.scalar)), (rep.coefficients, gap)
        tracemalloc.stop()
        assert worst < 3.5 * 8 * d * d, f"a report allocated {worst / (8 * d * d):.2f} d^2 floats"
        rotated = Frame(metric, orthonormal_frame(metric).vectors @ np.linalg.qr(rng.standard_normal((d, d)))[0])
        other, explicit = _traced(lambda: curvature(metric, frame=rotated))
        assert explicit <= 10 * 8 * d * d, f"an explicit-frame report peaked at {explicit / (8 * d * d):.2f} d^2 floats"
        gap = float(np.max(np.abs(other.ricci_tangent - rep.ricci_tangent)))
        assert gap <= 1e-10, f"the explicit frame changes the Ricci form by {gap:.2e}"
        assert _peak_mb() < 500, f"reports peaked at {_peak_mb():.0f} MB"
        read = _traced(lambda: space.structure)[1]
        assert read < 1e6, f"reading space.structure traced {read / 1e6:.1f} MB"
        ctx = verify._Context(spec)
        ctx.isotropy_groups
        equivariance = _traced(lambda: verify._check_ricci_equivariance(ctx))[1]
        assert equivariance < 15e6, f"ricci-equivariance traced {equivariance / 1e6:.1f} MB"
        lines += [
            f"{flag}: solve, 22/22 checks and 201 reports, peak {_peak_mb():.0f} MB,",
            f"one report at most {worst / (8 * d * d):.2f} d^2 floats, the explicit-frame",
            f"report {explicit / (8 * d * d):.2f} d^2 floats and {gap:.1e} from the canonical one;",
            f"reading space.structure traced {read / 1e6:.2f} MB, ricci-equivariance {equivariance / 1e6:.1f} MB",
        ]
    return lines


# each name's sweep, the size of its fixed set and that set
SWEEPS = {
    "algebras": (algebras, 96, lambda: [(f, r) for f, low in _MIN_RANK.items() for r in range(low, 26)]),
    "engine": (engine, 764, lambda: [s for s in table_rows(16) if s.rank > 10]),
    "schur": (schur_certificates, 764, lambda: [s for s in table_rows(16) if s.rank > 10]),
    "witnesses": (witnesses, 604, lambda: [s for s in table_rows(16) if s.rank > 10 and s.family in "AD"]
                  + [parse_flag_spec(text) for text in ("D:25:[24,1]:-", "A:25:[20,3,3]:-")]),
    "witnesses-17-25": (witnesses, 2118, lambda: [
        s for family in "AD" for rank in range(17, 26) for s in enumerate_small_flags(family, rank)]),
    "frames": (frames, 45, lambda: [parse_flag_spec(text) for text in pair_flags(range(11, 26))]),
    "pairs-aligned": (functools.partial(pairs_aligned, expect=(947, 1865, 251)), 1198, lambda: block_flags(8)),
    "decomposition": (decomposition, 767, lambda: [s for s in table_rows(16) if s.rank > 10]
                      + [parse_flag_spec(text) for text in ("A:25:[20,3,3]:-", "C:25:[12,13]:+", "D:25:[24,1]:-")]),
    "list-memory": (listing, 1, lambda: [("A", 25)]),
    "c25-memory": (check_memory, 1, lambda: [parse_flag_spec("C:25:[12,13]:+")]),
}


def main(argv):
    if len(argv) != 1 or argv[0] not in SWEEPS:
        print(f"usage: python tests/sweeps.py NAME, one of: {', '.join(SWEEPS)}", file=sys.stderr)
        return 2
    sweep, count, fixed = SWEEPS[argv[0]]
    flags = fixed()
    assert len(flags) == count, len(flags)
    print("\n".join(sweep(flags)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
