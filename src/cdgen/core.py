"""Alternatives, triples, linear orders and never conditions.

Alternatives are the integers 1..n.  A triple is an ascending 3-tuple of
alternatives.  Triples are indexed in co-lexicographic order: sort by the
largest element, then the middle, then the smallest.  This ordering is fixed
everywhere in the package; slot k of a code string always refers to
``triple_at(k, n)``.

A never condition "iNj" forbids the i-th smallest element of a triple from
taking rank j in the restriction of an order to that triple.  Only the six
conditions with i != j can hold in a domain containing the ascending order
1 2 .. n, and they are numbered by the fixed code table below.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations
from math import comb

# Code table for the six valid never conditions.  Code 0 is reserved for
# "no condition assigned" in code strings.
CONDITION_PAIRS = {1: (1, 2), 2: (1, 3), 3: (2, 1), 4: (2, 3), 5: (3, 1), 6: (3, 2)}
CONDITION_CODES = {pair: code for code, pair in CONDITION_PAIRS.items()}
CONDITION_NAMES = {code: f"{i}N{j}" for code, (i, j) in CONDITION_PAIRS.items()}
ALL_CONDITIONS = (1, 2, 3, 4, 5, 6)


def parse_condition(token: str) -> int:
    """Parse a token like '2N3' (case-insensitive) into a condition code."""
    t = token.strip().upper()
    parts = t.split("N")
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"malformed never condition {token!r}; expected e.g. '2N3'")
    i, j = int(parts[0]), int(parts[1])
    if not (1 <= i <= 3 and 1 <= j <= 3) or i == j:
        raise ValueError(
            f"{token!r} is not one of the six valid conditions "
            f"(1N2, 1N3, 2N1, 2N3, 3N1, 3N2)"
        )
    return CONDITION_CODES[(i, j)]


def parse_rules(spec: str) -> tuple[int, ...]:
    """Parse a comma-separated rule list like '2N3,2N1' into sorted codes.

    Duplicates collapse; the result is ascending and non-empty.
    """
    return check_rules(parse_condition(tok) for tok in spec.split(",") if tok.strip())


def rules_token(rules: tuple[int, ...]) -> str:
    """Canonical comma-separated token for a rule set, ascending by code."""
    return ",".join(CONDITION_NAMES[c] for c in sorted(rules))


def check_rules(rules) -> tuple[int, ...]:
    """Validate an iterable of condition codes, returning them sorted."""
    codes = sorted(set(rules))
    if not codes:
        raise ValueError("empty rule set")
    for c in codes:
        if c not in CONDITION_PAIRS:
            raise ValueError(f"invalid condition code {c!r}")
    return tuple(codes)


# ---------------------------------------------------------------------------
# Triples in co-lexicographic order.


@functools.cache
def _colex_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(combinations(range(1, n + 1), 3), key=lambda t: t[::-1]))


def triple_at(k: int, n: int) -> tuple[int, int, int]:
    """The triple with co-lex rank k among all triples over 1..n."""
    if not (0 <= k < comb(n, 3)):
        raise ValueError(f"triple rank {k} out of range for n={n}")
    return _colex_triples(n)[k]


def all_triples(n: int) -> list[tuple[int, int, int]]:
    """All triples over 1..n in co-lex order."""
    return list(_colex_triples(n))


# ---------------------------------------------------------------------------
# Linear orders and restriction patterns.


def check_order(order, n: int) -> tuple[int, ...]:
    o = tuple(order)
    if sorted(o) != list(range(1, n + 1)):
        raise ValueError(f"{order!r} is not a linear order on 1..{n}")
    return o


def parse_order(text: str, n: int) -> tuple[int, ...]:
    """Parse an order from '41325' (n <= 9) or '4,1,3,2,5' notation."""
    text = text.strip()
    if not text.isascii():  # int() would read other scripts' digits
        raise ValueError(f"{text!r} is not a linear order on 1..{n}")
    if "," in text:
        o = tuple(int(p) for p in text.split(","))
    else:
        o = tuple(int(ch) for ch in text)
    return check_order(o, n)


def format_order(order, n: int) -> str:
    """Digit-string notation for n <= 9, comma-separated beyond."""
    if n <= 9:
        return "".join(str(x) for x in order)
    return ",".join(str(x) for x in order)


def restrict(order, t) -> tuple[int, int, int]:
    """Pattern of a triple inside an order.

    Entry k (1-based) is i when the i-th smallest element of t is ranked
    k-th among the three inside the order.  restrict(41325, (1,3,4)) is
    (3, 1, 2): 4 comes first, then 1, then 3.
    """
    a, b, c = t
    pattern = []
    for x in order:
        if x == a:
            pattern.append(1)
        elif x == b:
            pattern.append(2)
        elif x == c:
            pattern.append(3)
    return tuple(pattern)


# The six patterns, and which conditions each satisfies.  A pattern violates
# iNj exactly when its j-th entry is i, so it violates one (i, j) cell per
# rank and satisfies 3 + (number of fixed points) of the six valid codes.
ALL_PATTERNS = tuple(permutations((1, 2, 3)))


def pattern_satisfies(pattern, code: int) -> bool:
    i, j = CONDITION_PAIRS[code]
    return pattern[j - 1] != i


# Bitmask over ALL_PATTERNS indices of the four patterns a condition allows.
SAT_MASKS = {
    code: sum(1 << k for k, p in enumerate(ALL_PATTERNS) if pattern_satisfies(p, code))
    for code in ALL_CONDITIONS
}


def satisfies(order, t, code: int) -> bool:
    """True iff the order's pattern on triple t does not violate the condition."""
    return pattern_satisfies(restrict(order, t), code)
