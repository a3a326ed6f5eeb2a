"""The runtime needs numpy alone; scipy is a test-only reference, the
cold path never loads ``numpy.ma``, and ``solve`` never loads the check
suite."""

import subprocess
import sys
from pathlib import Path

import einflag


def test_solve_and_check_load_no_scipy():
    src = Path(einflag.__file__).parent.parent
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import einflag\n"
        "from einflag import cli\n"
        "einflag.solve('D:5:[4,1]:-')\n"
        "assert all(r.passed for r in einflag.run_checks('D:5:[4,1]:-'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['check', 'B:3:[3]:-']) == 0\n"
        "bad = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not bad, bad\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_solve_loads_no_check_suite():
    # einflag.verify loads for `check` and for einflag.run_checks only
    src = Path(einflag.__file__).parent.parent
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import einflag.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert einflag.cli.main(['solve', 'D:5:[4,1]:-']) == 0\n"
        "assert 'einflag.verify' not in sys.modules\n"
        "from einflag import run_checks\n"
        "assert 'einflag.verify' in sys.modules and run_checks.__module__ == 'einflag.verify'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
