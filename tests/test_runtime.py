"""The runtime needs numpy alone; scipy is a test-only reference, and the
cold path never loads ``numpy.ma``."""

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
