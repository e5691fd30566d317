"""Code-string assignments: encoding, comparison, files."""

import io

import pytest
from hypothesis import given, strategies as st

from cdgen import cli
from cdgen.lexcode import (
    Assignment,
    header_line,
    num_slots,
    parse_header,
    read_assignments,
)


def test_empty_assignment():
    a = Assignment(5, bytes(10))
    assert a.n == 5
    assert a.assigned_count == 0
    assert not a.is_complete
    assert a.encode() == "0" * 10


def test_from_string_round_trip():
    a = Assignment.from_string("4300", 4)
    assert a.encode() == "4300"
    assert a.assigned_count == 2
    assert list(a.codes) == [4, 3, 0, 0]


def test_code_digits_above_6_are_refused():
    for codes in (b"\x07\x00\x00\x00", b"\x04\x04\x04\xff"):
        with pytest.raises(ValueError, match="code digits must be 0..6"):
            Assignment(4, codes)
    with pytest.raises(ValueError, match="code digits must be 0..6"):
        Assignment.from_string("4447", 4)
    assert Assignment(4, b"\x06\x00\x01\x00").encode() == "6010"


def test_colex_prefix_detection():
    assert Assignment.from_string("4430", 4).is_colex_prefix()
    assert Assignment.from_string("0000", 4).is_colex_prefix()
    assert not Assignment.from_string("4040", 4).is_colex_prefix()


def test_lex_compare_examples():
    n = 4
    assert Assignment.from_string("4444", n) > Assignment.from_string("4443", n)
    assert Assignment.from_string("3444", n) < Assignment.from_string("4111", n)
    assert Assignment.from_string("4444", n) == Assignment.from_string("4444", n)
    assert Assignment.from_string("4444", n) <= Assignment.from_string("4444", n)


def test_lex_compare_rejects_mixed_n():
    for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(ValueError, match="assignments over different n: 4 vs 5"):
            compare(Assignment(4, bytes(4)), Assignment(5, bytes(10)))


def test_lex_compare_with_another_type_is_a_type_error():
    a = Assignment(3, b"\x04")
    for compare in (lambda x, y: x < y, lambda x, y: x <= y, lambda x, y: x > y, lambda x, y: x >= y):
        for other in (5, b"\x04", "4"):
            with pytest.raises(TypeError):
                compare(a, other)
            with pytest.raises(TypeError):
                compare(other, a)
    assert a != 5 and a != b"\x04"


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=10, max_size=10),
    st.lists(st.integers(min_value=0, max_value=6), min_size=10, max_size=10),
)
def test_lex_compare_is_a_total_order(xs, ys):
    a = Assignment(5, bytes(xs))
    b = Assignment(5, bytes(ys))
    # trichotomy: exactly one of <, ==, > holds, and > is < reversed
    assert [a < b, a == b, a > b].count(True) == 1
    assert (a > b) == (b < a)
    assert (a <= b) == (not a > b)
    # comparison agrees with the digit strings
    assert (a.encode() < b.encode()) == (a < b)


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
    st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
    st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
)
def test_lex_compare_is_transitive(xs, ys, zs):
    a, b, c = (Assignment(4, bytes(v)) for v in (xs, ys, zs))
    if a <= b and b <= c:
        assert a <= c


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=9),
    st.integers(min_value=1, max_value=6),
)
def test_extending_a_prefix_increases_lex_order(prefix_codes, next_code):
    n = 5
    k = len(prefix_codes)
    shorter = Assignment(n, bytes(prefix_codes) + bytes(num_slots(n) - k))
    longer = Assignment(n, bytes(prefix_codes) + bytes([next_code]) + bytes(num_slots(n) - k - 1))
    assert longer > shorter


def test_header_round_trip():
    line = header_line(8, (2, 3))
    assert line.startswith("# n=8 rules=1N3,2N1 order=colex codes=")
    assert parse_header(line) == (8, (2, 3))


def test_parse_header_rejects_junk():
    with pytest.raises(ValueError):
        parse_header("n=8 rules=1N3")
    with pytest.raises(ValueError):
        parse_header("# n=8 rules=1N3,2N1 order=lex codes=x")
    good = header_line(8, (2, 3))
    for value in ("x", "8.0", ""):
        with pytest.raises(ValueError, match=f"header field n={value!r} is not an integer"):
            parse_header(good.replace("n=8", f"n={value}"))


def test_file_round_trip(tmp_path, capsys):
    """read_assignments reads back the file that `cdgen generate --out` writes."""
    out = tmp_path / "n5.conds"
    assert cli.main(["generate", "--n", "5", "--rules", "2N3,2N1", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    with open(out) as fh:
        n, rules, back = read_assignments(fh)
    assert (n, rules) == (5, (3, 4))
    assert lines[0] == header_line(5, (3, 4))
    assert [a.encode() for a in back] == lines[1:]
    assert len(back) == 36 and back == sorted(back)


def test_read_assignments_rejects_wrong_length_line():
    buf = io.StringIO(header_line(4, (3, 4)) + "\n444\n")
    with pytest.raises(ValueError):
        read_assignments(buf)


def test_read_assignments_rejects_a_repeated_code_string():
    buf = io.StringIO(header_line(4, (3, 4)) + "\n4444\n4334\n\n4444\n")
    with pytest.raises(ValueError, match="line 5: 4444 repeats line 2"):
        read_assignments(buf)


def test_read_assignments_rejects_codes_outside_the_rules():
    for line, code in [("1111111111", "1"), ("3333333339", "9"), ("33333333x3", "x")]:
        buf = io.StringIO(header_line(5, (3, 4)) + "\n3333333333\n" + line + "\n")
        with pytest.raises(ValueError, match=f"line 3: {line} has code {code} outside rules=2N1,2N3"):
            read_assignments(buf)
    # unassigned slots still read: each command decides what an open slot means
    buf = io.StringIO(header_line(5, (3, 4)) + "\n4433000000\n")
    assert read_assignments(buf)[2] == [Assignment.from_string("4433000000", 5)]


def test_num_slots():
    assert [num_slots(n) for n in (3, 4, 5, 6)] == [1, 4, 10, 20]
