"""The isotropy decomposition of every `table1 --max-l 10` flag against a golden file.

The file holds one line per flag: the flag and the sha256 of its
decomposition, the name, shape and little-endian float64 bytes of each
summand's span in catalogue order, then the equivalence classes, so the
hash changes with any name, span bit or declared equivalence.  Regenerate
it with

    PYTHONPATH=src python tests/test_golden_decompositions.py > tests/golden/decompositions_max_l10.txt
"""

import hashlib
from pathlib import Path

import numpy as np

from einflag.flag import decompose_isotropy
from sweeps import table_rows

GOLDEN = Path(__file__).parent / "golden" / "decompositions_max_l10.txt"


def decomposition_digest(spec):
    dec = decompose_isotropy(spec)
    h = hashlib.sha256()
    for s in dec.submodules:
        h.update(f"{s.name} {s.span.shape}\n".encode())
        h.update(np.ascontiguousarray(s.span, dtype="<f8").tobytes())
    h.update(repr([tuple(c) for c in dec.equiv_classes]).encode())
    return h.hexdigest()


def render():
    return "".join(f"{spec}  {decomposition_digest(spec)}\n" for spec in table_rows(10))


def test_decompositions_match_the_golden_file():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render(), end="")
