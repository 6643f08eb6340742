"""Trace files: any one ends in a CSV or in one error line.

Every example calls ``cli.main`` in-process on a trace of at most 50
lines, so each run is cheap.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from afterimage.cli import main

# characters str.splitlines breaks on: kept out of the fields, so that a
# trace has exactly as many lines as it was drawn with
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# in range, at and beyond 2**64, and negative
_NUMBERS = st.one_of(st.integers(0, 2**64 - 1),
                     st.integers(2**64, 2**80),
                     st.sampled_from([2**64 - 1, 2**64, 2**64 + 1, -1]),
                     st.integers(-2**70, -1))


def _spell(n: int, hex_digits: bool, prefix: str, sign: str, pad: str) -> str:
    digits = format(abs(n), "x" if hex_digits else "d")
    sign = "-" if n < 0 else sign
    return f"{pad}{sign}{prefix}{digits}{pad}"


_FIELDS = st.one_of(
    st.builds(_spell, _NUMBERS, st.booleans(),
              st.sampled_from(["", "0x", "0X"]), st.sampled_from(["", "+"]),
              st.sampled_from(["", " ", "\t", "\x1f"])),
    st.sampled_from(["", "0x", "zz", "-0", "+", "0x_1", "1_0", "nan",
                     "٣", "0xFfFf", "#", " "]),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters=_BREAKS), max_size=6),
)

_IN_RANGE = st.integers(0, 2**64 - 1)

_LINES = st.one_of(
    st.lists(_FIELDS, max_size=5).map(",".join),
    # well-formed loads, so that whole traces also run
    st.builds("{:#x},{:x},{}".format, _IN_RANGE, _IN_RANGE, _IN_RANGE),
    st.sampled_from(["", "# ip_hex,vaddr_hex,domain_id", "  "]),
)


def _run(trace: bytes) -> tuple[int, str, list[str] | None]:
    """Run ``mitigate`` on a trace; return the exit code, the captured
    stderr and the written CSV's lines, or None when none was written."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "t.txt").write_bytes(trace)
        out = work / "out.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["mitigate", "--trace", str(work / "t.txt"),
                       "--output", str(out)])
        lines = out.read_text().splitlines() if out.exists() else None
    return rc, stderr.getvalue(), lines


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(_LINES, max_size=50), garbage=st.booleans())
@example(lines=["0x400100,0x10000,0", "0x400100,0x10000000000000000,0"],
         garbage=False)
@example(lines=["0x10000000000000000,0x10000,0"], garbage=False)
@example(lines=["0x400100,0x10000,18446744073709551616"], garbage=False)
@example(lines=["0x400100, 0x10000 ,\t1", "# done", ""], garbage=False)
@example(lines=["0x400100,\x1f0x10000,0"], garbage=False)
@example(lines=["1,2", "1,2,3,4"], garbage=False)
@example(lines=[], garbage=True)
def test_any_trace_ends_in_a_csv_or_one_error_line(lines, garbage):
    trace = "".join(f"{line}\n" for line in lines).encode()
    if garbage:
        trace += b"\xff\xfe\n"
    rc, stderr, csv = _run(trace)
    assert rc in (0, 1, 2)
    if rc == 0:
        assert stderr == "" and csv is not None
        # every line that is neither blank nor a comment is one load
        loads = sum(1 for line in lines
                    if line.strip() and not line.strip().startswith("#"))
        columns, values = [line for line in csv if not line.startswith("#")]
        assert dict(zip(columns.split(","), values.split(",")))[
            "loads"] == str(loads)
    else:
        assert len(stderr.splitlines()) == 1, stderr
        assert stderr.startswith("error: ")
        assert csv is None
