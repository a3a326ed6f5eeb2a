"""The sweeps of :mod:`sweeps` that no other Tier-1 test calls, on small
sets, the memory sweeps in a fresh interpreter; and the command line."""

import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import einflag.einstein
import sweeps
from einflag.flag import parse_flag_spec

TESTS = Path(__file__).parent
# a child of this process takes its peak RSS as its own ru_maxrss; a child
# of a bare interpreter does not
HOP = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def fresh(*argv):
    """Run ``python *argv`` in the tests directory, from a bare interpreter."""
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    return subprocess.run([sys.executable, "-c", HOP, sys.executable, *argv], capture_output=True, text=True, env=env, cwd=TESTS)


def test_engine_sweep_on_the_max_l6_flags(kept_memos):
    lines = sweeps.engine(sweeps.table_rows(6))
    assert len(lines) == 7 and lines[0].startswith("90 flags of ranks 2-6: ")


def test_frame_sweep_on_the_pair_flags_of_ranks_4_to_6(kept_memos):
    lines = sweeps.frames(map(parse_flag_spec, sweeps.pair_flags(range(4, 7))))
    assert lines[1] == "dense construction bit for bit at 225 metrics, signed zeros included"


@pytest.fixture(scope="module")
def fresh_sweeps():
    """One fresh interpreter's lines: the scipy or pytest that ``import sweeps`` loads, then the memory
    sweeps on ``list A 4`` and on A:8:[3,3,3]:- (d = 27, where every bound of the C:25 step holds)."""
    out = fresh("-c", "import sys, sweeps\n"
                "print({m.partition('.')[0] for m in sys.modules} & {'scipy', 'pytest'})\n"
                "print(*sweeps.listing([('A', 4)]))\n"
                "print(*sweeps.check_memory([sweeps.parse_flag_spec('A:8:[3,3,3]:-')]))")
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_importing_the_sweeps_loads_no_scipy_and_no_pytest(fresh_sweeps):
    assert fresh_sweeps[0] == "set()"


def test_list_memory_sweep_in_a_fresh_interpreter(fresh_sweeps):
    assert re.fullmatch(r"list A 4: peak \d+ MB", fresh_sweeps[1])


def test_check_memory_sweep_in_a_fresh_interpreter(fresh_sweeps):
    assert fresh_sweeps[2].startswith("A:8:[3,3,3]:-: solve, 22/22 checks and 201 reports, peak ")


def test_an_unknown_sweep_exits_2_and_lists_the_names():
    out = fresh("sweeps.py", "nonesuch")
    assert out.returncode == 2 and all(name in out.stderr for name in sweeps.SWEEPS)


def test_every_sweep_step_of_ci_names_a_sweep():
    ci = (TESTS.parent / ".github" / "workflows" / "tier1.yml").read_text()
    names = re.findall(r"python tests/sweeps\.py (\S+)", ci)
    assert "<<" not in ci and set(names) <= set(sweeps.SWEEPS) and len(set(names)) == len(names) == 7


def flipped(witness_maps):
    """``witness_maps`` with the sign of the first pair entry of its maps flipped."""

    @lru_cache(maxsize=None)
    def maps(spec):
        L, n_sub = np.array(witness_maps(spec)), einflag.einstein.metric_space(spec).n_sub
        w, row, col = np.nonzero(L[:, n_sub:, :])
        L[w[0], n_sub + row[0], col[0]] *= -1
        return L

    return maps


def test_a_flipped_pair_sign_fails_the_witness_sweep(monkeypatch):
    monkeypatch.setattr(einflag.einstein, "_witness_maps", flipped(einflag.einstein._witness_maps))
    with pytest.raises(AssertionError, match=re.escape("D:5:[4,1]:-")):
        sweeps.witnesses([parse_flag_spec("D:5:[4,1]:-")])


def test_a_flipped_pair_sign_fails_the_witness_command():
    # the command's own set reaches its first pair flag after hundreds of A
    # flags, so the set is swapped for that one flag here
    out = fresh("-c", "import sys, einflag.einstein as e, sweeps, test_sweeps\n"
                "e._witness_maps = test_sweeps.flipped(e._witness_maps)\n"
                "sweeps.SWEEPS['witnesses'] = (sweeps.witnesses, 1, lambda: [sweeps.parse_flag_spec('D:5:[4,1]:-')])\n"
                "sys.exit(sweeps.main(['witnesses']))")
    assert out.returncode == 1 and "AssertionError: D:5:[4,1]:-" in out.stderr
