"""Every solution of every `table1 --max-l 6` flag against a golden file.

The file holds, per flag, one line with the certificate of each stage of
the exact counts and one line per solution of ``solve(flag)``: rule id, provenance,
coefficients and normalized Einstein constant to 9 significant digits,
and the screening tag of its group.  Regenerate it with

    PYTHONPATH=src python tests/test_golden_solutions.py > tests/golden/solutions_max_l6.txt
"""

from pathlib import Path

from einflag.einstein import solve
from sweeps import table_rows

GOLDEN = Path(__file__).parent / "golden" / "solutions_max_l6.txt"


def _stage(cert):
    text = f"{cert.stage}={cert.status}"
    if cert.shear is not None:
        text += f" shear={cert.shear}"
    if cert.multiplicities:
        text += " mult=" + ",".join(map(str, cert.multiplicities))
    return text


def render():
    lines = []
    for spec in table_rows(6):
        result = solve(spec)
        stages = "; ".join(_stage(c) for c in result.completeness)
        lines.append(f"{spec}  {stages}")
        tag = {i: g.tag for g in result.groups for i in g.indices}
        for i, sol in enumerate(result.solutions):
            coeffs = " ".join(f"{c:.9g}" for c in sol.coeffs)
            lines.append(
                f"  {sol.rule_id} {sol.provenance} [{coeffs}] "
                f"c-hat={sol.normalized_constant:.9g} {tag[i]}"
            )
    return "\n".join(lines) + "\n"


def test_solutions_match_the_golden_file():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render(), end="")
