import csv
import gc
import importlib
import json
import subprocess
import sys
import weakref
from itertools import groupby
from pathlib import Path

import pytest

import einflag.algebra
import einflag.cli
import einflag.einstein
from einflag import __version__
from einflag.cli import main
from einflag.invariant import metric_space
from einflag.errors import ClosureViolation, NoExactCount
from einflag.verify import CHECK_NAMES
from sweeps import table_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, argv):
    """``(exit code, stdout, stderr)`` of one ``main`` call, usage errors
    and ``--help`` included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once(capsys):
    # main shares one parser per process: each command's exit code, output
    # and error must be those of a parser built for that command alone
    commands = [
        ("list", "B", "4"),
        ("solve", "B:3:[3]:-"),
        ("check", "A:3:[2,2]:-"),
        ("list", "E", "4"),
        ("solve", "--help"),
        ("--version",),
    ]
    fresh = []
    for argv in commands:
        einflag.cli._build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    einflag.cli._build_parser.cache_clear()
    shared = [outcome(capsys, argv) for argv in commands]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0]
    info = einflag.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(commands) - 1)


# ---------------------------------------------------------------------------
# solve


def test_solve_two_branch_summary(capsys):
    code, out, err = run(capsys, "solve", "B:3:[3]:-")
    assert code == 0 and err == ""
    assert "(SO(3)xSO(4))/SO(3)" in out
    assert "mu-half" in out and "mu-upper" in out
    assert "c-hat=" in out and "defect=" in out
    assert "ProvenDistinct" in out


def test_solve_empty_is_success(capsys):
    code, out, err = run(capsys, "solve", "C:4:[4]:-")
    assert code == 0 and err == ""
    assert "no invariant Einstein metric" in out


def test_solve_json_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "A:3:[2,1,1]:-", "--json", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == 3
    assert doc["tool"] == "einflag"
    assert doc["version"] == __version__
    assert doc["flag"] == "A:3:[2,1,1]:-"
    assert doc["command"].startswith("einflag solve A:3:[2,1,1]:-")
    assert doc["count"] == 5
    assert [s["rule_id"] for s in doc["solutions"]] == ["E1", "E2", "E3", "E4", "E5"]
    for sol in doc["solutions"]:
        assert set(sol["coefficients"]) == {"mu_0", "mu_1", "mu_2", "b"}
        assert sol["defect"] < 1e-9
    relations = {g["relation"] for g in doc["equivalence_groups"]}
    assert relations == {"ProvenDistinct", "WitnessedEquivalent"}
    # both stages are counted exactly
    assert doc["completeness"] == [
        {"stage": "diagonal", "status": "certified", "shear": 2, "multiplicities": [1]},
        {"stage": "mixed", "status": "certified", "shear": 2, "multiplicities": [1, 1, 1, 1]},
    ]
    assert isinstance(doc["timing_seconds"], float)


def strip_timing(text):
    return "\n".join(
        line for line in text.splitlines() if '"timing_seconds"' not in line
    )


def test_solve_json_deterministic(tmp_path, capsys):
    target = tmp_path / "report.json"
    run(capsys, "solve", "B:4:[4]:-", "--json", str(target))
    first = target.read_text()
    run(capsys, "solve", "B:4:[4]:-", "--json", str(target))
    second = target.read_text()
    assert strip_timing(first) == strip_timing(second)
    assert first.endswith("\n")


def test_solve_route_options_are_unknown(capsys):
    # solve has one route: the former route options are usage errors
    for option in ("--numeric", "--closed-form"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "B:3:[3]:-", option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_without_catalog_reports_the_roots(capsys):
    code, out, err = run(capsys, "solve", "B:5:[2,3]:+")
    assert code == 0 and err == ""
    assert "numeric-1 (numeric)" in out
    assert "mode" not in out


# ---------------------------------------------------------------------------
# error handling


def test_malformed_spec_is_usage_error(capsys):
    for bad in ("garbage", "X:3:[2]:-", "A:3:[2,2]", "A:0:[1]:-"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", bad])
        assert exc.value.code == 2
        capsys.readouterr()


def test_rank_two_b_flag_unsupported(capsys):
    code, _, err = run(capsys, "solve", "B:2:[2]:-")
    assert code == 2
    assert "unsupported case" in err


def test_too_many_parameters_unsupported(capsys):
    code, _, err = run(capsys, "solve", "A:4:[1,1,1,2]:-")
    assert code == 2
    assert "unsupported case" in err


def test_no_exact_count_unsupported(cold_search, monkeypatch, capsys):
    # a stage the exact count does not cover has no fallback: exit 2 with
    # one line on stderr and nothing on stdout
    def uncounted(engine):
        raise NoExactCount("the mixing equation is not linear in b^2")

    monkeypatch.setattr(einflag.einstein, "mixed_count", uncounted)
    code, out, err = run(capsys, "solve", "D:5:[4,1]:-")
    assert code == 2 and out == ""
    assert err == "einflag: unsupported case: the mixing equation is not linear in b^2\n"


@pytest.mark.parametrize("error", [ClosureViolation])
def test_construction_failure_is_invariant_error(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("synthetic construction failure")

    monkeypatch.setattr("einflag.cli.solve", broken)
    code, _, err = run(capsys, "solve", "B:3:[3]:-")
    assert code == 1
    assert "Traceback" not in err
    assert err.splitlines() == [
        "einflag: invariant failure: synthetic construction failure"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "A", "10000000000"],
        ["solve", "A:1000000:[999998,1,1]:-"],
        ["check", "A:1000000:[999998,1,1]:-"],
    ],
)
def test_oversized_rank_is_usage_error(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError("the model was constructed")

    monkeypatch.setattr("einflag.algebra.AlgebraModel", refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "exceeds the supported maximum 25" in err
    assert "Traceback" not in err


def test_memory_error_is_one_line(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("einflag.cli.solve", exhausted)
    code, out, err = run(capsys, "solve", "B:3:[3]:-")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "einflag: out of memory: Unable to allocate 7.28 TiB for an array"
    ]


# ---------------------------------------------------------------------------
# list


def test_list_enumerates_flags(capsys):
    code, out, _ = run(capsys, "list", "B", "4")
    assert code == 0
    assert "B:4:[4]:-" in out and "B:4:[1,3]:+" in out and "B:4:[2,2]:+" in out
    assert "(SO(4)xSO(5))/SO(4)" in out


def test_list_columns_agree_with_the_metric_space(capsys):
    # list prints the catalogued decomposition; the certified metric space
    # of each flag must have as many summands, and a pair exactly when the
    # decomposition declares one
    for (family, rank), specs in groupby(table_rows(10), lambda s: (s.family, s.rank)):
        code, out, _ = run(capsys, "list", family, str(rank))
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        specs = list(specs)
        assert [r[0] for r in rows] == [str(s) for s in specs]
        for row, spec in zip(rows, specs):
            space = metric_space(spec)
            assert row[-2:] == [str(space.n_sub), "yes" if space.pairs else "no"]


def test_list_keeps_no_decomposition(cold_caches, capsys):
    # a listing reads two numbers of each flag; keeping every decomposition
    # held all their dense spans (339 MB after `list A 25`)
    memo = einflag.cli.decompose_isotropy
    before = memo.cache_info().currsize
    code, out, _ = run(capsys, "list", "A", "6")
    assert code == 0 and "A:6:[1,1,5]:-" in out
    assert memo.cache_info().currsize == before


def test_list_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["list", "Q", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# check


def test_check_reports_every_invariant(capsys):
    code, out, _ = run(capsys, "check", "A:3:[2,2]:-")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(CHECK_NAMES)
    assert all(ln.startswith("PASS") for ln in lines)
    assert f"{len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed" in out


def test_check_of_too_many_parameters_is_unsupported(capsys):
    # as solve on the same flag: exit 2 and one stderr line, not FAIL lines
    code, out, err = run(capsys, "check", "A:3:[1,1,1,1]:-")
    assert code == 2
    assert out == ""
    assert err.startswith("einflag: unsupported case: A:3:[1,1,1,1]:- has a 9-parameter")
    assert err.count("\n") == 1
    assert run(capsys, "solve", "A:3:[1,1,1,1]:-")[2] == err


# ---------------------------------------------------------------------------
# table1


@pytest.mark.parametrize("bound", ["26", "10000000000"])
def test_table1_rejects_rank_bound_above_the_maximum(monkeypatch, capsys, bound):
    monkeypatch.setattr("einflag.cli.table1_row", None)  # no row is computed
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--max-l", bound])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"einflag: error: table1 requires --max-l <= 25, got {bound}"
    )


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_table1_rejects_rank_bound_below_one(capsys, bound):
    # an empty table is not a result: a bound below one is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--max-l", bound])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"einflag: error: table1 requires --max-l >= 1, got {bound}"
    )


def test_table1_small_cutoff(capsys):
    code, out, _ = run(capsys, "table1", "--max-l", "2")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("A:2")]
    assert len(rows) == 1
    assert "MATCH" in rows[0]
    assert "# 1 rows" in out


FLAG_MEMOS = [
    ("flag", "decompose_isotropy"),
    ("invariant", "metric_space"),
    ("curvature", "reduced_ricci"),
    ("einstein", "_closed_cached"),
    ("einstein", "_exact_roots"),
    ("einstein", "_witness_maps"),
    ("einstein", "_solve_cached"),
]


def test_table1_keeps_no_flag_memo(cold_caches, monkeypatch, capsys):
    # a survey drops each flag's memos once its row is done (`--max-l 16`
    # held 1123 MB of them), and the algebra memo after each rank.  The
    # memos are the fresh ones of cold_caches, looked up in their modules
    memos = {
        name: getattr(importlib.import_module(f"einflag.{module}"), name)
        for module, name in FLAG_MEMOS
    }
    filled = dict.fromkeys(memos, 0)
    table1_row = einflag.cli.table1_row

    def recorded(spec):
        row = table1_row(spec)
        for name, memo in memos.items():
            filled[name] = max(filled[name], memo.cache_info().currsize)
        return row

    monkeypatch.setattr(einflag.cli, "table1_row", recorded)
    code, out, _ = run(capsys, "table1", "--max-l", "4")
    assert code == 0 and "MISMATCH" not in out
    assert all(filled.values()), filled
    left = {name: memo.cache_info().currsize for name, memo in memos.items()}
    assert not any(left.values()), left
    assert einflag.algebra.build_algebra.cache_info().currsize == 0


def test_table1_holds_one_algebra_at_a_time(cold_caches, monkeypatch, capsys):
    # the survey enumerates and solves one (family, rank) at a time and
    # drops the rank's flags and algebra before the next rank's is built:
    # then no algebra of an earlier rank is alive, before a collection (no
    # flag refers to itself, so each is freed when its last holder lets go)
    # and after one
    built, alive = [], []
    model = einflag.algebra.AlgebraModel

    def recorded(family, rank):
        before = [key for key, ref in built if ref() is not None]
        gc.collect()
        alive.append((before, [key for key, ref in built if ref() is not None]))
        out = model(family, rank)
        built.append(((family, rank), weakref.ref(out)))
        return out

    monkeypatch.setattr(einflag.algebra, "AlgebraModel", recorded)
    code, out, _ = run(capsys, "table1", "--max-l", "6")
    assert code == 0 and "MISMATCH" not in out
    assert out == (Path(__file__).parent / "golden" / "table1_max_l6.txt").read_text()
    # every rank the catalogue lists is built once, in table order; A:1
    # has no row, and B:2, C:2 and D:3 are refused before any build
    ranks = [key for key, _ in built]
    rows = {tuple(line.split(":")[:2]) for line in out.splitlines()[1:-1]}
    assert ranks == sorted(set(ranks)) and len(ranks) == 17
    assert sorted((family, int(rank)) for family, rank in rows) == ranks[1:]
    assert alive == [([], [])] * len(ranks)


# a fresh interpreter runs `table1 --max-l 9`, 250 rows, and prints the
# number of rows and its ru_maxrss (MB) after row 20 and after the last one
SURVEY = """
import contextlib, io, resource, sys
sys.path.insert(0, {src!r})
from einflag import cli
peaks = []
row = cli.table1_row
def recorded(spec):
    out = row(spec)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out
cli.table1_row = recorded
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["table1", "--max-l", "9"])
print(code, len(peaks), peaks[19], peaks[-1])
"""


def test_survey_memory_stays_flat():
    # with each flag's memos dropped after its row and each rank's algebra
    # after the rank, the 230 rows after the first 20 grow the peak by a few
    # MB; with the flag memos kept they grow it by about 46 MB
    src = str(Path(einflag.cli.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", SURVEY.format(src=src)], check=True, capture_output=True, text=True
    ).stdout.split()
    code, rows, early, last = int(out[0]), int(out[1]), float(out[2]), float(out[3])
    assert code == 0 and rows >= 200
    assert last - early < 20, (early, last)


def test_table1_csv_columns(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "table1", "--max-l", "2", "--csv", str(target))
    assert code == 0
    with target.open(newline="") as fh:
        header, row = list(csv.reader(fh))
    assert header == [
        "flag",
        "summands",
        "equiv",
        "count",
        "normal_einstein",
        "expected_count",
        "match",
    ]
    flag, summands, equiv, count, normal, expected, match = row
    assert flag == "A:2:[1,1,1]:-"
    assert (summands, equiv, count) == ("3", "no", "1")
    assert normal == "yes"
    assert expected == "<=4"
    assert match == "MATCH"


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("flag", ["A:1:[2]:-", "A:4:[5]:-", "C:3:[3]:+", "D:5:[5]:+"])
def test_point_quotient_is_unsupported(capsys, command, flag):
    # one block holding every simple root leaves no tangent summand
    code, out, err = run(capsys, command, flag)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("einflag: unsupported case:")
    assert err.count("\n") == 1


def test_solve_unwritable_json_path(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "solve", "B:3:[3]:-", "--json", str(target))
    assert code == 2
    assert err.startswith(f"einflag: cannot write {target}")
    assert err.count("\n") == 1
    assert not target.exists()


def test_table1_unwritable_csv_path(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.csv"
    code, _, err = run(capsys, "table1", "--max-l", "2", "--csv", str(target))
    assert code == 2
    assert err.startswith(f"einflag: cannot write {target}")
    assert err.count("\n") == 1
    assert not target.exists()


# ---------------------------------------------------------------------------
# misc


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
