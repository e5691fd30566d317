"""Brute-force enumeration oracle for small n.

Enumerates every complete assignment over a rule set, keeps those whose
expanded domain realizes all four allowed patterns on every triple (the
copious ones; the others are artifacts of over-restriction, and two
different condition sets can collapse onto the same such domain), groups
the survivors into relabeling classes by applying all n! permutations,
and reports the lexicographically greatest member of each class.  This is
the ground truth the search engine is checked against.  Both the
relabeling action and the expansion are recoded from the definitions on
purpose and share nothing with :mod:`cdgen.iso` or :mod:`cdgen.domain`;
agreement between the implementations is part of the test surface, and
:func:`_relabeled`, which also relabels partial assignments by skipping
their unassigned slots, is the one reference for iso's action tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import comb, factorial

from . import core
from .lexcode import Assignment

ENUMERATION_GUARD = 10**7  # assignments times n!, the permutations each one is tried under


def _relabeled(codes: bytes, n: int, g: tuple[int, ...], allowed: frozenset[int]) -> bytes | None:
    """Image of an assignment under g, or None if it leaves the rules.

    Independent recoding of the action: for each triple, rank the images of
    its members, move the condition's position index through that ranking,
    and keep the rank bound unchanged.  Degenerate images (position index
    equal to the rank bound) also reject the permutation.  Unassigned slots
    (digit 0) are skipped and leave their image slot unassigned, so partial
    assignments relabel too.
    """
    out = bytearray(len(codes))
    for k in range(len(codes)):
        if not codes[k]:
            continue
        a, b, c = core.triple_at(k, n)
        images = (g[a - 1], g[b - 1], g[c - 1])
        lo, mid, hi = sorted(images)
        rank = {lo: 1, mid: 2, hi: 3}
        i, j = core.CONDITION_PAIRS[codes[k]]
        i2 = rank[images[i - 1]]
        if i2 == j:
            return None
        code2 = core.CONDITION_CODES[(i2, j)]
        if code2 not in allowed:
            return None
        out[comb(hi - 1, 3) + comb(mid - 1, 2) + (lo - 1)] = code2
    return bytes(out)


@dataclass(frozen=True)
class OrbitReport:
    canonical: Assignment
    orbit_size: int
    stabilizer_size: int
    acting_count: int  # permutations whose image stays inside the rules


@dataclass(frozen=True)
class CheckResult:
    n: int
    rules: tuple[int, ...]
    equal: bool
    class_count: int
    search_only: tuple[Assignment, ...]
    oracle_only: tuple[Assignment, ...]


def _all_assignments(n: int, rules: tuple[int, ...]):
    slots = comb(n, 3)
    total = len(rules) ** slots
    if total * factorial(n) > ENUMERATION_GUARD:
        raise ValueError(
            f"brute force would try {total} assignments x {n}! relabelings, "
            f"above its bound of {ENUMERATION_GUARD}"
        )
    for combo in product(sorted(rules), repeat=slots):
        yield bytes(combo)


def expanded_orders(codes: bytes, n: int) -> list[tuple[int, ...]]:
    """All orders satisfying a complete assignment, by filtering all n!."""
    triples = core.all_triples(n)
    return [
        order
        for order in permutations(range(1, n + 1))
        if all(core.satisfies(order, t, codes[k]) for k, t in enumerate(triples))
    ]


def realizes_four_patterns(codes: bytes, n: int) -> bool:
    """True iff the expanded domain shows 4 patterns on every triple.

    Each condition permits four of the six patterns, so four per triple is
    the ceiling; hitting it everywhere means no condition restricts more
    than it says, which is what makes assignments and domains interchange
    cleanly under relabeling.
    """
    orders = expanded_orders(codes, n)
    for t in core.all_triples(n):
        if len({core.restrict(o, t) for o in orders}) != 4:
            return False
    return True


def _images(codes: bytes, n: int, rules: tuple[int, ...]) -> dict[bytes, int]:
    """Each image of an assignment under the n! relabelings that keep it
    inside the rules, with how many relabelings reach it."""
    allowed = frozenset(rules)
    images: dict[bytes, int] = {}
    for g in permutations(range(1, n + 1)):
        img = _relabeled(codes, n, g, allowed)
        if img is not None:
            images[img] = images.get(img, 0) + 1
    return images


def orbit_of(codes: bytes, n: int, rules: tuple[int, ...]) -> OrbitReport:
    """Orbit data for one complete assignment.

    A single application suffices to reach every class member: composing two
    rule-respecting steps gives a permutation whose direct image is the same
    final assignment, which lies inside the rules by construction.
    """
    images = _images(codes, n, rules)
    return OrbitReport(
        canonical=Assignment(n, max(images)),
        orbit_size=len(images),
        stabilizer_size=images[codes],
        acting_count=sum(images.values()),
    )


def brute_force_orbits(n: int, rules: tuple[int, ...]) -> list[OrbitReport]:
    """One OrbitReport per relabeling class of the four-pattern assignments,
    ordered by canonical code string.

    The four-pattern screen commutes with relabeling, so its survivors are
    a union of whole classes and screening before grouping is exact.
    """
    rules = core.check_rules(rules)
    seen = set()
    reports = {}
    for codes in _all_assignments(n, rules):
        if codes in seen:
            continue
        if not realizes_four_patterns(codes, n):
            continue
        images = _images(codes, n, rules)
        seen.update(images)
        canonical = max(images)
        reports[canonical] = OrbitReport(
            canonical=Assignment(n, canonical),
            orbit_size=len(images),
            stabilizer_size=images[canonical],
            acting_count=sum(images.values()),
        )
    return [reports[key] for key in sorted(reports)]


def brute_force_classes(n: int, rules: tuple[int, ...]) -> list[Assignment]:
    """Canonical representatives of every class, ascending by code string."""
    return [r.canonical for r in brute_force_orbits(n, rules)]


def cross_check(n: int, rules: tuple[int, ...]) -> CheckResult:
    """Compare search output against the oracle on the same configuration."""
    from .search import SearchConfig, run_search

    rules = core.check_rules(rules)
    expected = brute_force_classes(n, rules)
    hits, _ = run_search(SearchConfig(n=n, rules=rules))
    got_set = {hit.assignment for hit in hits}
    exp_set = set(expected)
    return CheckResult(
        n=n,
        rules=rules,
        equal=got_set == exp_set,
        class_count=len(exp_set),
        search_only=tuple(sorted(got_set - exp_set)),
        oracle_only=tuple(sorted(exp_set - got_set)),
    )
