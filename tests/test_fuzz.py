"""Property tests: every well-formed flag string builds, solves or fails cleanly."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from einflag.cli import main  # noqa: E402
from einflag.errors import EinflagError  # noqa: E402
from einflag.flag import parse_flag_spec  # noqa: E402
from einflag.invariant import metric_space  # noqa: E402


@st.composite
def flag_strings(draw, max_rank=6):
    """``FAMILY:RANK:[BLOCKS]:SIGN`` with rank <= max_rank, any composition."""
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(min_value=1, max_value=max_rank))
    remaining = rank + 1 if family == "A" else rank
    parts = []
    while remaining:
        part = draw(st.integers(min_value=1, max_value=remaining))
        parts.append(part)
        remaining -= part
    sign = draw(st.sampled_from("+-"))
    return f"{family}:{rank}:[{','.join(map(str, parts))}]:{sign}"


@settings(max_examples=60, deadline=None, database=None)
@given(flag_strings())
def test_flag_strings_build_or_raise_package_errors(text):
    try:
        metric_space(parse_flag_spec(text))
    except EinflagError:
        pass


@settings(max_examples=40, deadline=None, database=None)
@given(flag_strings(max_rank=5))
def test_cli_solve_exits_with_a_documented_code(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["solve", text])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (text, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
