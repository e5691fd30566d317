"""Expansion of condition assignments into domains of linear orders.

A complete assignment describes the maximal set of linear orders that
satisfy every assigned condition; that set always has transitive pairwise
majorities.  Slots run in co-lex order, so the triples whose largest
alternative is m+1 form one block, slots C(m,3) to C(m+1,3).  ``replay``
turns any co-lex code prefix into rows by growing the orders one
alternative per block: ``extend_rows`` inserts alternative m+1 at every
position of every order of 1..m and records the patterns of the block's
triples, and the block's assigned codes then filter the rows, so an order
that an earlier block rules out is never extended.  The same replay
expands finished assignments for ``expand`` and ``stats``, seeds a
``--prefix`` search and seeds each pool worker's subtree.

Patterns are kept as pattern bits: entry [r, k] of the pattern matrix is
``1 << p`` for the index p (into core.ALL_PATTERNS) of row r's pattern on
slot k, and 0 while slot k lies outside the support.  The matrix is
C(n,3) columns padded to a multiple of 8, so ``pattern_sets`` ORs a row
set's columns together eight at a time as uint64 words.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

import numpy as np

from . import core
from .lexcode import Assignment, num_slots

# 1 << pattern index, keyed like core.RANKBITS_TO_PATTERN; cyclic keys give 0.
_RANK_BIT = np.array([0 if p == 255 else 1 << p for p in core.RANKBITS_TO_PATTERN], dtype=np.uint8)

# SAT[c]: the pattern bits condition code c allows.  SAT[0], the unassigned
# code, allows nothing.
SAT = np.array([core.SAT_MASKS.get(c, 0) for c in range(7)], dtype=np.uint8)


def root_rows(n):
    """The orders of 1..2 and their pattern bits for n alternatives (none live yet)."""
    width = -(-comb(n, 3) // 8) * 8
    return np.array([[1, 2], [2, 1]], dtype=np.int8), np.zeros((2, width), dtype=np.uint8)


def pattern_sets(pat):
    """The OR of every row's pattern bits: the patterns each slot still shows."""
    return np.bitwise_or.reduce(pat.view(np.uint64), axis=0).view(np.uint8)


def extend_rows(pd, pat, m):
    """Insert alternative m+1 at every position of every order of 1..m.

    pd holds one order per row and pat the pattern bits of each row on
    every triple over 1..m.  Returns both for 1..m+1, row r's insertion at
    position p in row r*(m+1) + p.  An insertion leaves the old patterns
    alone, so only the columns of the new triples are computed, from the
    old positions of a < b alone: a still precedes b as before, and it
    precedes the newcomer exactly when its old position is below p.
    """
    e = m + 1
    rows = pd.shape[0]
    # source[p, i]: the column of pd, or m for the newcomer, at position i after inserting at p
    i, p = np.arange(e), np.arange(e)[:, None]
    source = np.where(i < p, i, i - 1)
    np.fill_diagonal(source, m)
    pdn = np.concatenate([pd, np.full((rows, 1), e, dtype=np.int8)], axis=1)[:, source].reshape(rows * e, e)
    pos = np.empty_like(pd)
    np.put_along_axis(pos, pd.astype(np.intp) - 1, np.arange(m, dtype=np.int8)[None, :], axis=1)
    # the new triples (a+1, b+1, m+1) in co-lex order: b ascending, then a
    b, a = np.tril_indices(m, -1)
    pa, pb = pos[:, None, a], pos[:, None, b]
    at = np.arange(e, dtype=np.int8)[None, :, None]
    key = (pa < pb).view(np.uint8) << 2 | (pa < at).view(np.uint8) << 1 | (pb < at).view(np.uint8)
    patn = np.repeat(pat, e, axis=0)
    patn.reshape(rows, e, pat.shape[1])[:, :, comb(m, 3) : comb(e, 3)] = _RANK_BIT[key]
    return pdn, patn


def replay(n, codes):
    """Grow the orders through a co-lex code prefix, one alternative per block.

    Returns (m, pd, pat): m is the least m >= 2 with C(m,3) >= len(codes),
    pd the orders of 1..m that satisfy every code, and pat their pattern
    bits.  Each block's codes filter the rows at once; the filters AND
    together, so this keeps the rows a slot-by-slot filter keeps.
    """
    codes = np.frombuffer(codes, dtype=np.uint8)
    pd, pat = root_rows(n)
    m = 2
    while len(codes) > comb(m, 3):
        pd, pat = extend_rows(pd, pat, m)
        lo, hi = comb(m, 3), min(len(codes), comb(m + 1, 3))
        sel = ((pat[:, lo:hi] & SAT[codes[lo:hi]]) != 0).all(axis=1)
        pd, pat = pd[sel], pat[sel]
        m += 1
    return m, pd, pat


class Domain:
    """A set of linear orders over 1..n, kept sorted for determinism."""

    __slots__ = ("n", "orders", "source", "_members")

    def __init__(self, n: int, orders, source: Assignment | None = None):
        self.n = n
        self.orders = tuple(sorted(tuple(o) for o in orders))
        self.source = source
        self._members = frozenset(self.orders)

    def __len__(self) -> int:
        return len(self.orders)

    def __iter__(self):
        return iter(self.orders)

    def __contains__(self, order) -> bool:
        return tuple(order) in self._members

    def __eq__(self, other) -> bool:
        return isinstance(other, Domain) and self.n == other.n and self.orders == other.orders

    def __hash__(self) -> int:
        return hash((self.n, self.orders))

    def __repr__(self) -> str:
        return f"Domain(n={self.n}, size={len(self.orders)})"


def _rows(assignment: Assignment) -> np.ndarray:
    """The orders of a complete assignment as an int8 matrix, one per row."""
    if not assignment.is_complete:
        raise ValueError(f"incomplete assignment {assignment.encode()} cannot be expanded")
    return replay(assignment.n, assignment.codes)[1]


def expand(assignment: Assignment) -> Domain:
    """All linear orders satisfying every condition of a complete assignment."""
    return Domain(assignment.n, _rows(assignment).tolist(), source=assignment)


def expand_size(assignment: Assignment) -> int:
    """Domain size of a complete assignment, without building the Domain."""
    return len(_rows(assignment))


def is_unitary(domain: Domain) -> bool:
    """True iff the ascending order 1 2 .. n belongs to the domain."""
    return tuple(range(1, domain.n + 1)) in domain


def satisfied_cells(domain: Domain, t) -> set[tuple[int, int]]:
    """All (i, j) pairs, degenerate ones included, violated by no member."""
    cells = {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    for o in domain.orders:
        pattern = core.restrict(o, t)
        for j in (1, 2, 3):
            cells.discard((pattern[j - 1], j))
        if not cells:
            break
    return cells


def satisfied_conditions(domain: Domain, t) -> set[int]:
    """Codes of the six valid conditions that every member satisfies."""
    return {
        core.CONDITION_CODES[cell]
        for cell in satisfied_cells(domain, t)
        if cell in core.CONDITION_CODES
    }


def is_copious(domain: Domain) -> bool:
    """True iff every triple restriction realizes exactly 4 of the 6 patterns."""
    for k in range(num_slots(domain.n)):
        t = core.triple_at(k, domain.n)
        patterns = {core.restrict(o, t) for o in domain.orders}
        if len(patterns) != 4:
            return False
    return True


def is_maximal(domain: Domain) -> bool:
    """True iff no order can be added while keeping majorities transitive.

    An extension survives iff every triple still has some never condition
    satisfied by all members.  All nine (i, j) cells count; on a domain
    containing the ascending order the three degenerate ones are already
    ruled out, so only the six valid conditions remain.
    """
    n = domain.n
    if n > 9:
        raise ValueError("is_maximal enumerates all n! candidates and is capped at n <= 9")
    triples = core.all_triples(n)
    masks = [satisfied_cells(domain, t) for t in triples]
    if any(not m for m in masks):
        raise ValueError("not a Condorcet domain: some triple satisfies no condition")
    for cand in permutations(range(1, n + 1)):
        if cand in domain:
            continue
        fits = True
        for t, kept in zip(triples, masks):
            pattern = core.restrict(cand, t)
            violated = {(pattern[j - 1], j) for j in (1, 2, 3)}
            if kept <= violated:
                fits = False
                break
        if fits:
            return False
    return True


def histogram(assignments) -> dict[int, int]:
    """Map expanded-domain size -> class count, ascending by size."""
    counts: dict[int, int] = {}
    for a in assignments:
        size = expand_size(a)
        counts[size] = counts.get(size, 0) + 1
    return dict(sorted(counts.items()))


def format_histogram(counts: dict[int, int]) -> str:
    return "\n".join(f"{size}: {count}" for size, count in sorted(counts.items()))


def parse_histogram(text: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        size, count = line.split(":")
        counts[int(size)] = int(count)
    return counts


# ---------------------------------------------------------------------------
# Domain files: header with n and the source code string, one order per line.


def write_domain(fh, domain: Domain) -> None:
    source = domain.source.encode() if domain.source is not None else "unknown"
    fh.write(f"# n={domain.n} source={source}\n")
    for o in domain.orders:
        fh.write(core.format_order(o, domain.n) + "\n")


def read_domain(fh) -> Domain:
    header = fh.readline().strip()
    if not header.startswith("#"):
        raise ValueError("domain file must start with a '#' header line")
    fields = dict(part.split("=", 1) for part in header[1:].split() if "=" in part)
    if "n" not in fields:
        raise ValueError("domain header is missing the n= field")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ValueError(f"domain header field n={fields['n']!r} is not an integer") from None
    source = fields.get("source", "unknown")
    try:
        source = None if source == "unknown" else Assignment.from_string(source, n)
    except ValueError:
        raise ValueError(f"domain header field source={source!r} is not a code string for n={n}") from None
    orders: dict[tuple[int, ...], int] = {}  # order -> its line
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            order = core.parse_order(line, n)
        except ValueError:
            raise ValueError(f"line {lineno}: {line} is not a linear order on 1..{n}") from None
        if order in orders:
            raise ValueError(f"line {lineno}: order {line} repeats line {orders[order]}")
        orders[order] = lineno
    return Domain(n, orders, source=source)
