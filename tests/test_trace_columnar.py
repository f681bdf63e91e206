"""The columnar ``borg-csv`` reader against the row pipeline.

``borg_csv_reference.py`` keeps the row-by-row pipeline.  Every
generated file and scaling spec must give identical records (values,
types and order) or an identical ``TraceError`` message.  The chunk
size shrinks to a few dozen characters, so chunk cuts fall everywhere:
inside the header, between CR and LF, right after the limit-th kept
row.
"""

import csv
import io
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borg_csv_reference import build_borg_csv as reference_borg_csv
from borg_csv_reference import iter_borg_csv as reference_rows
from repro.errors import TraceError
from repro.trace import Trace, loader, resolve_trace

HEADER = "job_id,submit,duration,assigned,max"
FLOAT_STYLES = (
    repr,
    "{:.6f}".format,
    "{:e}".format,
    "{:.3g}".format,
    "{:E}".format,
    "+{!r}".format,
    " {!r}\t".format,
    "{:.0f}.".format,
    lambda value: repr(value).lstrip("0") or "0",
)
INT_STYLES = (str, "+{}".format, " {} ".format, "{:06d}".format)
#: Lines the row pipeline accepts that NumPy's parse may not take.
UNUSUAL = (
    "",
    "# a comment",
    "  # x,y,z",
    '1,"2.5",3.0,0.1,0.2',
    "1_0,2.0,3.0,0.1,0.2",
    "１２,2.0,3.0,0.1,0.2",
    "9223372036854775808,2.0,3.0,0.1,0.2",
    " 1 , 2.0 ,\t3.0, 0.1 ,0.2 ",
)
#: One malformed row of each kind: arity, parse (a NUL byte too), range,
#: non-finite.
MALFORMED = (
    " ",
    "1,2.0,3.0,0.1",
    "1,2.0,3.0,0.1,0.2,0.3",
    "1,2.0\x00,3.0,0.1,0.2",
    "zap,2.0,3.0,0.1,0.2",
    "1,zap,3.0,0.1,0.2",
    "1,,3.0,0.1,0.2",
    "1.0,2.0,3.0,0.1,0.2",
    "1e3,2.0,3.0,0.1,0.2",
    "7\x1c,2.0,3.0,0.1,0.2",
    "1,1.5\x1c,3.0,0.1,0.2",
    "1,-1.0,3.0,0.1,0.2",
    "1,2.0,0.0,0.1,0.2",
    "1,2.0,3.0,1.5,0.2",
    "1,2.0,3.0,0.1,-0.2",
    "1,nan,3.0,0.1,0.2",
    "1,inf,3.0,0.1,0.2",
    "1,2.0,Infinity,0.1,0.2",
    "1,2.0,3.0,NaN,0.2",
)
LINE_ENDS = ("\n", "\r\n", "\r")


def _number(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def valid_rows(draw):
    job_id = draw(st.sampled_from(INT_STYLES))(draw(st.integers(0, 10**6)))
    values = (
        draw(_number(0.0, 400.0)),
        draw(_number(1.0, 600.0)),
        draw(_number(0.0, 1.0)),
        draw(_number(0.0, 1.0)),
    )
    fields = [draw(st.sampled_from(FLOAT_STYLES))(v) for v in values]
    return ",".join([job_id, *fields])


@st.composite
def borg_files(draw):
    lines = draw(st.lists(st.sampled_from(("", "# lead")), max_size=2))
    if draw(st.booleans()):
        lines.append(HEADER)
    rows = st.one_of(valid_rows(), st.sampled_from(UNUSUAL))
    lines += [draw(rows) for _ in range(draw(st.integers(0, 30)))]
    if draw(st.booleans()):
        position = draw(st.integers(0, len(lines)))
        lines.insert(position, draw(st.sampled_from(MALFORMED)))
    ending = draw(st.sampled_from((*LINE_ENDS, "mixed")))
    text = ""
    for line in lines:
        end = ending
        if ending == "mixed":
            end = draw(st.sampled_from(LINE_ENDS))
        text += line + end
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    return text


@st.composite
def scaling_options(draw):
    options = []
    for key, values in (
        ("start", st.integers(0, 300)),
        ("window", st.integers(1, 400)),
        ("limit", st.integers(1, 20)),
        ("renumber", st.sampled_from(("true", "false"))),
    ):
        if draw(st.booleans()):
            options.append(f"{key}={draw(values)}")
    downsample = draw(st.sampled_from((None, "stride", "sample")))
    if downsample == "stride":
        options.append(f"stride={draw(st.integers(1, 5))}")
    elif downsample == "sample":
        options.append(
            f"sample={draw(st.sampled_from(('1', '0.5', '0.3', '0.25')))}"
        )
    return "".join("," + option for option in options)


CHUNKS = st.one_of(st.integers(1, 96), st.just(loader._CHUNK_CHARS))


def _read(path):
    """The whole file through the columnar reader, unscaled."""
    return Trace(loader.iter_borg_csv(path))


def _outcome(build, *args):
    """Records with their field types, or the error and its message."""
    try:
        trace = build(*args)
    except (TraceError, csv.Error) as exc:
        return type(exc), str(exc)
    return "trace", [
        [(type(value), repr(value)) for value in astuple(job)]
        for job in trace
    ]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar") / "trace.csv"


class TestAgainstRowPipeline:
    @settings(max_examples=400, deadline=None)
    @given(content=borg_files(), options=scaling_options(), chunk=CHUNKS)
    # NumPy reads "1.5\x1c" as 1.5, float() refuses it: the allowlist.
    @example(content=f"{HEADER}\n0,1.5\x1c,60,0.1,0.1\n", options="", chunk=64)
    # The bad row follows the limit-th kept row: never checked.
    @example(
        content="0,0,60,0.1,0.1\n1,1,60,0.1,0.1\n2,zap,60,0.1,0.1\n",
        options=",limit=2",
        chunk=64 * 1024,
    )
    # ... nor is a csv error there (the row reader batches rows).
    @example(
        content='"0",0,60,0.1,0.1\n1,1,60,0.1,0.1\n'
        + "0" * csv.field_size_limit()
        + "2,2,60,0.1,0.1\n",
        options=",limit=2",
        chunk=64 * 1024,
    )
    # The window's origin is the file's first record, kept or not.
    @example(
        content="0,0,60,0.1,0.1\n1,100,60,0.1,0.1\n2,150,60,0.1,0.1\n",
        options=",start=50,window=60",
        chunk=16,
    )
    def test_same_records_or_error(self, csv_path, content, options, chunk):
        csv_path.write_bytes(content.encode("utf-8"))
        spec = f"borg-csv:path={csv_path}{options}"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loader, "_CHUNK_CHARS", chunk)
            assert _outcome(resolve_trace, spec) == _outcome(
                reference_borg_csv, spec
            )
            if not options:
                assert _outcome(_read, csv_path) == _outcome(
                    lambda path: Trace(reference_rows(path)), csv_path
                )

    def test_overlong_field_fails_as_in_the_row_pipeline(self, tmp_path):
        """``csv`` refuses a field past its size limit; NumPy would not."""
        path = tmp_path / "long.csv"
        path.write_text(
            "0,0.0,60.0,0.1,0.1\n"
            + "0" * csv.field_size_limit()
            + "1,1.0,60.0,0.1,0.1\n"
        )
        for build in (_read, lambda p: Trace(reference_rows(p))):
            with pytest.raises(csv.Error, match="field limit"):
                build(path)


FIELD_ALPHABET = "0123456789+-.eEnNaAiIfFtTyY \t"


def _numbers():
    def styled(styles, values):
        return st.builds(
            lambda style, value: style(value), st.sampled_from(styles), values
        )

    return st.one_of(
        styled(FLOAT_STYLES, st.floats()),
        styled(INT_STYLES, st.integers(-(2**64), 2**64)),
    )


def _numpy_field(text, column):
    fields = ["0", "0", "1", "0", "0"]
    fields[column] = text
    try:
        rows = np.loadtxt(
            io.StringIO(",".join(fields) + "\n"),
            dtype=loader._DTYPE,
            delimiter=",",
            comments=None,
            ndmin=1,
        )
    except ValueError:
        return None
    return rows.tolist()[0][column]


def _python_field(text, convert):
    try:
        return convert(text)
    except ValueError:
        return None


class TestParseFidelity:
    """Over the allowlist NumPy reads a field as ``int()``/``float()``
    do, or refuses it.  The one field NumPy refuses that Python reads
    is an integer outside int64, which costs only the fast path."""

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(st.text(FIELD_ALPHABET, max_size=12), _numbers()))
    def test_numpy_parses_fields_as_python_does(self, text):
        assert set(text) <= set(FIELD_ALPHABET)
        for column, convert in ((0, int), (1, float)):
            ours = _numpy_field(text, column)
            python = _python_field(text, convert)
            if ours is None:
                assert python is None or (
                    convert is int and not -(2**63) <= python < 2**63
                ), (text, python)
            elif isinstance(ours, float) and math.isnan(ours):
                assert math.isnan(python), text
            else:
                assert (type(ours), repr(ours)) == (
                    type(python),
                    repr(python),
                ), text
