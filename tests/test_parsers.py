"""Fuzzing of the text parsers that read files from outside the
program: the code bank, the channel profile and the reconfiguration
script. Whatever bytes a file holds, a parser returns a result or
raises FormatError (or OSError for the file system), never anything
else, so the CLI maps every bad file to exit 2 or 3.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbphy import (
    FormatError,
    ThParams,
    load_code_file,
    load_profile_file,
    load_reconfig_script,
)

PARSERS = {
    "code": lambda path: load_code_file(path, ThParams(t_c=10e-9, n_c=8)),
    "profile": load_profile_file,
    "script": load_reconfig_script,
}

# Lines in the shape of each grammar, so that examples get past the
# line shape to the values: numbers that break int or float conversion
# (more digits than int() accepts, 1e400, nan) or the value checks, a
# non-ASCII digit, and bytes that are not UTF-8.
VALUES = st.sampled_from([
    b"", b"0", b"12", b"-3", b"0.5", b"nan", b"inf", b"1e400", b"9" * 4400,
    b"\xd9\xa3", b"a", b"\xff",
])
KEYS = st.sampled_from([
    b"tc", b"nc", b"code", b"signal", b"ray_decay", b"max_excess_delay",
    b"speed",
])
LINES = st.one_of(
    st.builds(
        lambda frame, fields: b"@" + frame + b" set " + b" ".join(
            key + b"=" + value for key, value in fields
        ),
        VALUES,
        st.lists(st.tuples(KEYS, VALUES), max_size=4),
    ),
    st.builds(lambda key, value: key + b" = " + value, KEYS, VALUES),
    st.builds(
        lambda name, offsets: b"code " + name + b": " + b",".join(offsets),
        VALUES,
        st.lists(VALUES, min_size=1, max_size=4),
    ),
    st.binary(max_size=20),
)
CONTENTS = st.binary() | st.lists(LINES, max_size=5).map(b"\n".join)


@pytest.mark.parametrize("parser", sorted(PARSERS))
@settings(max_examples=200)
@given(data=CONTENTS)
def test_any_bytes_give_a_result_or_a_format_error(
    parser, data, tmp_path_factory
):
    # a fresh file per example: truncating a written file can stall for
    # a disk flush on some file systems
    path = tmp_path_factory.getbasetemp() / f"fuzz-{parser}.txt"
    path.write_bytes(data)
    try:
        PARSERS[parser](path)
    except (FormatError, OSError):
        pass
    finally:
        path.unlink()
