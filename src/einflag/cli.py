"""Command-line surface: enumerate flags, solve, tabulate, verify.

Exit codes: 0 on success, 1 when a verified invariant fails (a failed
check, a root of an exact count that fails its Einstein-defect gate, a
bracket or isotropy generator that breaks the construction, or a table row
that contradicts the published count), 2 for unsupported or malformed
inputs (a rank above 25 among them, a metric family of more than four
parameters, and an Einstein system that the exact count does not cover),
for an output file that cannot be written, and when memory runs out.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import lru_cache

from . import __version__
from .algebra import _MAX_RANK, build_algebra
from .einstein import published_row, solve, table1_row
from .errors import (
    BadFlag,
    BadPartition,
    EinflagError,
    NoExactCount,
    TooManyParameters,
    UnimplementedCase,
    UnsupportedRank,
)
from .flag import decompose_isotropy, enumerate_small_flags, manifold_name, parse_flag_spec
from .invariant import metric_space

__all__ = ["main"]

_USAGE_ERRORS = (BadFlag, BadPartition, UnsupportedRank)
_UNSUPPORTED_ERRORS = (UnimplementedCase, TooManyParameters, NoExactCount)


def _round(v):
    """Stable 12-significant-digit float for byte-reproducible reports."""
    return float(f"{float(v):.12g}")


def _cannot_write(path, exc):
    print(f"einflag: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _parse_spec_or_exit(parser, text):
    try:
        return parse_flag_spec(text)
    except (*_USAGE_ERRORS, ValueError) as exc:
        parser.error(f"bad flag spec {text!r}: {exc}")


def _cmd_list(args, parser):
    try:
        specs = enumerate_small_flags(args.family, args.rank)
    except _USAGE_ERRORS as exc:
        parser.error(str(exc))
    rows = []
    for spec in specs:
        # the catalogued decomposition, checked by its construction; solve
        # and check run the Schur certificate of the metric space.  It is
        # not memoised: a listing needs two numbers of each flag, not its spans
        dec = decompose_isotropy.__wrapped__(spec)
        rows.append(
            (
                str(spec),
                manifold_name(spec),
                str(len(dec.submodules)),
                "yes" if dec.equiv_classes else "no",
            )
        )
    if not rows:
        print(f"no two- or three-summand flags for {args.family}:{args.rank}")
        return 0
    widths = [max(len(r[k]) for r in rows) for k in range(4)]
    header = ("flag", "manifold", "summands", "equiv")
    widths = [max(w, len(h)) for w, h in zip(widths, header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for r in rows:
        print(fmt.format(*r))
    return 0


def _solution_entry(space, index, sol, group_index):
    coeffs = {n: _round(c) for n, c in zip(space.names, sol.coeffs)}
    return {
        "index": index,
        "rule_id": sol.rule_id,
        "provenance": sol.provenance,
        "coefficients": coeffs,
        "einstein_constant": _round(sol.constant),
        "normalized_constant": _round(sol.normalized_constant),
        "scalar_curvature": _round(sol.scalar),
        "defect": _round(sol.defect),
        "group": group_index,
    }


def _solve_report(argv_echo, spec, sol_set, elapsed):
    space = metric_space(spec)
    group_of = {}
    for gi, g in enumerate(sol_set.groups):
        for i in g.indices:
            group_of[i] = gi
    dec = space.dec
    return {
        "schema_version": 3,
        "tool": "einflag",
        "version": __version__,
        "command": argv_echo,
        "flag": str(spec),
        "manifold": manifold_name(spec),
        "summands": [{"name": s.name, "dim": s.dim} for s in dec.submodules],
        "equivalent_pairs": [
            [dec.submodules[i].name, dec.submodules[j].name]
            for i, j, _ in space.pairs
        ],
        "coefficients": list(space.names),
        "count": len(sol_set.solutions),
        "solutions": [
            _solution_entry(space, i, s, group_of.get(i))
            for i, s in enumerate(sol_set.solutions)
        ],
        "equivalence_groups": [
            {
                "indices": list(g.indices),
                "normalized_constant": _round(g.constant),
                "relation": g.tag,
            }
            for g in sol_set.groups
        ],
        "completeness": [
            {
                "stage": c.stage,
                "status": c.status,
                "shear": c.shear,
                "multiplicities": list(c.multiplicities),
            }
            for c in sol_set.completeness
        ],
        "timing_seconds": round(elapsed, 3),
    }


def _cmd_solve(args, parser, argv_echo):
    spec = _parse_spec_or_exit(parser, args.flag)
    t0 = time.perf_counter()
    sol_set = solve(spec)
    elapsed = time.perf_counter() - t0
    report = _solve_report(argv_echo, spec, sol_set, elapsed)
    if args.json:
        try:
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            return _cannot_write(args.json, exc)
    space = metric_space(spec)
    print(f"{spec} = {manifold_name(spec)}")
    print(f"coefficients: {', '.join(space.names)}")
    if not sol_set.solutions:
        print("no invariant Einstein metric")
    for i, s in enumerate(sol_set.solutions):
        vals = ", ".join(f"{n}={_round(c):g}" for n, c in zip(space.names, s.coeffs))
        print(
            f"  [{i}] {s.rule_id} ({s.provenance}): {vals}; "
            f"c-hat={s.normalized_constant:.8f}, defect={s.defect:.1e}"
        )
    for g in sol_set.groups:
        ids = ", ".join(sol_set.solutions[i].rule_id for i in g.indices)
        print(f"  group {{{ids}}}: c-hat={g.constant:.8f} -> {g.tag}")
    if args.json:
        print(f"report written to {args.json}")
    return 0


def _rank_specs(max_l):
    """The table's flags up to rank ``max_l``, one list per family and rank
    in table order, leaving out the ranks that have no catalogued flags."""
    for family in "ABCD":
        for rank in range(1, max_l + 1):
            try:
                yield enumerate_small_flags(family, rank)
            except (UnsupportedRank, UnimplementedCase):
                continue


def _drop_flag_memos():
    """Empty the memos that a table row fills, each read from its own module at
    the call; the memo of ``build_algebra``, shared by a rank's flags, stays."""
    from .curvature import reduced_ricci
    from .einstein import _closed_cached, _exact_roots, _solve_cached, _witness_maps
    from .flag import decompose_isotropy
    from .invariant import metric_space
    for memo in (decompose_isotropy, metric_space, reduced_ricci, _closed_cached,
                 _exact_roots, _witness_maps, _solve_cached):
        memo.cache_clear()


def _table_line(spec):
    """The printed fields of one flag's table row, its memos dropped after it."""
    row = table1_row(spec)
    _drop_flag_memos()
    exp = published_row(spec)
    if exp is None:
        expected, match = "n/a", "n/a"
    else:
        expected = exp.display
        match = "MATCH" if exp.matches(row.count, row.normal_is_einstein) else "MISMATCH"
    return (
        str(spec),
        str(row.summands),
        "yes" if row.has_equivalent else "no",
        str(row.count),
        "yes" if row.normal_is_einstein else "no",
        expected,
        match,
    )


def _cmd_table1(args, parser):
    if args.max_l < 1:
        parser.error(f"table1 requires --max-l >= 1, got {args.max_l}")
    if args.max_l > _MAX_RANK:
        parser.error(f"table1 requires --max-l <= {_MAX_RANK}, got {args.max_l}")
    header = (
        "flag",
        "summands",
        "equiv",
        "count",
        "normal_einstein",
        "expected_count",
        "match",
    )
    table = []
    for specs in _rank_specs(args.max_l):
        table.extend(_table_line(spec) for spec in specs)
        # the rank's flags are the last holders of its algebra: drop both
        # before the next rank's is built
        del specs
        build_algebra.cache_clear()
    widths = [max(len(h), *(len(r[k]) for r in table)) if table else len(h) for k, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for r in table:
        print(fmt.format(*r))
    matched = sum(1 for r in table if r[6] == "MATCH")
    checked = sum(1 for r in table if r[6] != "n/a")
    print(f"# {len(table)} rows, {matched}/{checked} published expectations matched")
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(table)
        except OSError as exc:
            return _cannot_write(args.csv, exc)
        print(f"# csv written to {args.csv}")
    return 1 if any(r[6] == "MISMATCH" for r in table) else 0


def _cmd_check(args, parser):
    # the check suite loads only for this command
    from .verify import run_checks

    spec = _parse_spec_or_exit(parser, args.flag)
    results = run_checks(spec)
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name}: {r.detail}")
    print(
        f"# {spec}: {len(results) - len(failed)}/{len(results)} checks passed"
    )
    return 1 if failed else 0


@lru_cache(maxsize=None)
def _build_parser():
    """The command-line parser, built once per process: a parse reads it and
    changes nothing in it, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="einflag",
        description=(
            "Invariant Einstein metrics on real flag manifolds of split "
            "classical Lie groups."
        ),
    )
    parser.add_argument("--version", action="version", version=f"einflag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate the 2/3-summand flags of one family and rank")
    p_list.add_argument("family", choices=["A", "B", "C", "D"])
    p_list.add_argument("rank", type=int)

    p_solve = sub.add_parser("solve", help="find all invariant Einstein metrics of one flag")
    p_solve.add_argument("flag", help="flag spec, e.g. A:3:[2,1,1]:-")
    p_solve.add_argument("--json", metavar="FILE", help="write a JSON report to FILE")

    p_table = sub.add_parser("table1", help="summarize every 2/3-summand flag up to a rank")
    p_table.add_argument("--max-l", type=int, default=6, dest="max_l", metavar="N")
    p_table.add_argument("--csv", metavar="FILE", help="also write the rows to FILE")

    p_check = sub.add_parser("check", help="run the invariant verification suite for one flag")
    p_check.add_argument("flag", help="flag spec, e.g. B:3:[3]:-")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    argv_echo = "einflag " + " ".join(argv)
    try:
        if args.command == "list":
            return _cmd_list(args, parser)
        if args.command == "solve":
            return _cmd_solve(args, parser, argv_echo)
        if args.command == "table1":
            return _cmd_table1(args, parser)
        if args.command == "check":
            return _cmd_check(args, parser)
    except _UNSUPPORTED_ERRORS as exc:
        print(f"einflag: unsupported case: {exc}", file=sys.stderr)
        return 2
    except EinflagError as exc:
        # every other package error is a failed invariant: a root that fails
        # its certificate or a construction step whose verification failed
        print(f"einflag: invariant failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"einflag: out of memory: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
