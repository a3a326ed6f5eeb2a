"""The JSON report of every `table1 --max-l 6` flag against a golden file.

The file holds one line per flag: the flag and the sha256 of its
``einflag solve --json`` report, written as the command writes it but with
the ``command`` field fixed to ``einflag solve FLAG`` and the
``timing_seconds`` field dropped, so the hash depends on the solutions,
their screening and the stage certificates alone.  Regenerate it with

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden/solve_reports_max_l6.txt
"""

import hashlib
import json
from pathlib import Path

from einflag.cli import _solve_report, _table_rows
from einflag.einstein import solve

GOLDEN = Path(__file__).parent / "golden" / "solve_reports_max_l6.txt"


def report_digest(spec):
    report = _solve_report(f"einflag solve {spec}", spec, solve(spec), 0.0)
    del report["timing_seconds"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def render():
    return "".join(f"{spec}  {report_digest(spec)}\n" for spec in _table_rows(6))


def test_reports_match_the_golden_file():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render(), end="")
