"""The exact counts of every `table1 --max-l 10` flag and four large flags
against a golden file.

The file holds, per flag, one line per stage of the exact counts (the
diagonal one, and the mixed one on a flag with an equivalent pair) with its
shear and the multiplicity of each solution, then one line per solution
with ``float.hex`` of every coordinate, so any bit of any point shows.
Regenerate it with

    PYTHONPATH=src python tests/test_golden_exact_counts.py > tests/golden/exact_counts_max_l10.txt
"""

from pathlib import Path

from einflag import algebraic
from einflag.cli import _drop_flag_memos
from einflag.curvature import reduced_ricci
from einflag.flag import parse_flag_spec
from einflag.invariant import metric_space
from sweeps import table_rows

GOLDEN = Path(__file__).parent / "golden" / "exact_counts_max_l10.txt"
LARGE = ["A:25:[20,3,3]:-", "C:25:[12,13]:+", "B:18:[9,9]:+", "D:25:[24,1]:-"]


def _stage(name, count):
    mult = ",".join(map(str, count.multiplicities)) or "-"
    lines = [f"  {name} shear={count.shear} mult={mult}"]
    lines += ["    " + " ".join(float.hex(c) for c in point) for point in count.points]
    return lines


def render():
    lines = []
    for spec in [*table_rows(10), *map(parse_flag_spec, LARGE)]:
        engine = reduced_ricci(spec)
        lines.append(str(spec))
        lines += _stage("diagonal", algebraic.diagonal_count(engine))
        if metric_space(spec).pairs:
            lines += _stage("mixed", algebraic.mixed_count(engine))
        # each large flag's memos are dropped after it, as table1 drops them
        if spec.rank > 10:
            _drop_flag_memos()
    return "\n".join(lines) + "\n"


def test_exact_counts_match_the_golden_file():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render(), end="")
