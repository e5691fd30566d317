"""Assignments of never conditions to triples, encoded as code strings.

An assignment over 1..n is a string of C(n,3) digits, one per triple in
co-lex order; digit 0 means the slot is unassigned, digits 1..6 are the
condition codes from :mod:`cdgen.core`.  Lexicographic comparison of two
assignments reads the digit strings left to right.  Comparisons are only
meaningful between assignments over the same n and the same allowed rule
set; the class enforces the first and leaves the second to callers.
"""

from __future__ import annotations

import functools
from math import comb

from . import core


def num_slots(n: int) -> int:
    if n < 3:
        raise ValueError(f"need at least 3 alternatives, got n={n}")
    return comb(n, 3)


@functools.total_ordering
class Assignment:
    """An immutable (possibly partial) assignment of conditions to triples."""

    __slots__ = ("n", "codes")

    def __init__(self, n: int, codes: bytes):
        if len(codes) != num_slots(n):
            raise ValueError(f"expected {num_slots(n)} slots for n={n}, got {len(codes)}")
        if max(codes, default=0) > 6:
            raise ValueError("code digits must be 0..6")
        self.n = n
        self.codes = bytes(codes)

    @classmethod
    def from_string(cls, digits: str, n: int) -> "Assignment":
        return cls(n, bytes(int(ch) for ch in digits))

    def encode(self) -> str:
        return "".join(str(c) for c in self.codes)

    def __repr__(self) -> str:
        return f"Assignment(n={self.n}, {self.encode()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self.n == other.n and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.n, self.codes))

    def __lt__(self, other: "Assignment") -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"assignments over different n: {self.n} vs {other.n}")
        return self.codes < other.codes

    @property
    def assigned_count(self) -> int:
        return len(self.codes) - self.codes.count(0)

    @property
    def is_complete(self) -> bool:
        return 0 not in self.codes

    def is_colex_prefix(self) -> bool:
        """True iff the assigned slots are exactly 0..k-1 for some k."""
        k = self.assigned_count
        return 0 not in self.codes[:k]


# ---------------------------------------------------------------------------
# Conditions file format: a header line followed by one code string per line.

CODE_LEGEND = ",".join(f"{core.CONDITION_NAMES[c]}:{c}" for c in core.ALL_CONDITIONS)


def header_line(n: int, rules: tuple[int, ...]) -> str:
    return f"# n={n} rules={core.rules_token(rules)} order=colex codes={CODE_LEGEND}"


def parse_header(line: str) -> tuple[int, tuple[int, ...]]:
    if not line.startswith("#"):
        raise ValueError("conditions file must start with a '#' header line")
    fields = dict(part.split("=", 1) for part in line[1:].split() if "=" in part)
    for key in ("n", "rules", "order", "codes"):
        if key not in fields:
            raise ValueError(f"header is missing the {key}= field")
    if fields["order"] != "colex":
        raise ValueError(f"unsupported triple order {fields['order']!r}")
    if fields["codes"] != CODE_LEGEND:
        raise ValueError("header code table does not match this package's code table")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ValueError(f"header field n={fields['n']!r} is not an integer") from None
    return n, core.parse_rules(fields["rules"])


def read_assignments(fh) -> tuple[int, tuple[int, ...], list[Assignment]]:
    header = fh.readline().rstrip("\n")
    n, rules = parse_header(header)
    allowed = set("0" + "".join(map(str, rules)))
    out: dict[str, int] = {}  # code string -> its line
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if len(line) != num_slots(n):
            raise ValueError(f"line {lineno}: expected {num_slots(n)} digits, got {len(line)}")
        if outside := set(line) - allowed:
            token = core.rules_token(rules)
            raise ValueError(f"line {lineno}: {line} has code {min(outside)} outside rules={token}")
        if line in out:
            raise ValueError(f"line {lineno}: {line} repeats line {out[line]}")
        out[line] = lineno
    return n, rules, [Assignment.from_string(line, n) for line in out]
