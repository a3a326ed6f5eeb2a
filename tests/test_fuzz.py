"""Property test: every well-formed flag string either builds or fails cleanly."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from einflag.errors import EinflagError  # noqa: E402
from einflag.flag import parse_flag_spec  # noqa: E402
from einflag.invariant import metric_space  # noqa: E402


@st.composite
def flag_strings(draw):
    """``FAMILY:RANK:[BLOCKS]:SIGN`` with rank <= 6 and any composition."""
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(min_value=1, max_value=6))
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
