"""Relabeling action on condition assignments and canonicity tests.

A permutation g of the alternatives carries a never condition iNj on triple
t to a condition i'Nj on the sorted image triple, where i' is the position
that g gives to the i-th smallest element of t.  The rank j is untouched.
When i' == j the image is one of the degenerate conditions 1N1/2N2/3N3,
which no unitary domain can satisfy; such images are reported as code 0 and
reject the permutation wherever a valid image is required.

Permutations are written as tuples of images: g[x-1] is the image of
alternative x, and alternatives beyond len(g) are fixed.

Few relabelings matter to the canonicity tests.  Call g *acting* for
(n, rules) when every triple keeps some rule inside the rules under g; a
relabeling that is not acting maps no complete assignment into the rules,
so it can neither beat a complete assignment nor an open prefix.  The
acting set is built once per (n, rules) by a depth-first search over
partial permutations, without visiting all of S_n: at n=8 it has 2, 34
and 8 members for 2N3,2N1, 1N3,3N1 and 1N3,2N1, against 8! = 40320.  Both
canonicity tests are one dominance test over the rows of that set,
:func:`dominated`, which the search engine calls on its own codes.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from . import core
from .lexcode import Assignment

# Largest acting set that is tabulated.  No rule set exceeds it up to n=8,
# where S_8 itself has 8! members.  A rule set containing 1N2,3N2, 1N3,2N3
# or 2N1,3N1 keeps a rule on every triple under every relabeling, so from
# n=9 on its acting set is all of S_n and the tables would take gigabytes.
ACTING_CAP = factorial(8)


def apply_alt(g: tuple[int, ...], x: int) -> int:
    return g[x - 1] if x <= len(g) else x


def apply_to_triple(g: tuple[int, ...], t) -> tuple[int, int, int]:
    """Sorted image of a triple under g."""
    return tuple(sorted(apply_alt(g, x) for x in t))


def position_map(t, g: tuple[int, ...]) -> tuple[int, int, int]:
    """Where each in-triple position of t lands inside the image triple.

    Entry i-1 is the rank (1..3) of g(i-th smallest of t) within the sorted
    image.  The map is a permutation of (1, 2, 3).
    """
    images = [apply_alt(g, x) for x in t]
    ranked = sorted(images)
    return tuple(ranked.index(v) + 1 for v in images)


def induced_condition(t, code: int, g: tuple[int, ...]) -> int:
    """Image of a condition under g, or 0 when the image is degenerate."""
    i, j = core.CONDITION_PAIRS[code]
    i2 = position_map(t, g)[i - 1]
    if i2 == j:
        return 0
    return core.CONDITION_CODES[(i2, j)]


def transform(assignment: Assignment, g: tuple[int, ...], rules: tuple[int, ...]) -> Assignment | None:
    """Relabeled assignment, or None when any image leaves the rule set.

    Every assigned condition moves to the slot of its image triple; a
    degenerate image or an image outside ``rules`` rejects the whole
    permutation.
    """
    n = assignment.n
    allowed = set(rules)
    codes = bytearray(len(assignment.codes))
    for t, c in assignment.items():
        c2 = induced_condition(t, c, g)
        if c2 == 0 or c2 not in allowed:
            return None
        codes[core.triple_index(apply_to_triple(g, t), n)] = c2
    return Assignment(n, bytes(codes))


def is_partially_lex_max(assignment: Assignment, rules: tuple[int, ...]) -> bool:
    """Validating partial maximality test: :func:`dominated` on a checked prefix.

    A prefix of k assigned slots is dominated when some relabeling g

    a. maps every assigned condition to a valid image inside the rules;
    b. maps every allowed condition on every unassigned slot into the rules;
    c. keeps the assigned slots among themselves;

    and carries the prefix to a lexicographically greater one.  Then g maps
    every completion of the prefix into the rules, by (a) and (b), onto an
    assignment that starts with the greater prefix, by (c); no completion
    is canonical and the full search never needs to enter the prefix.
    Rules (a) and (b) make g acting, so only the rows of the acting set
    are tried.  The prefix passes when it is not dominated; with every slot
    assigned this is the exact canonicity test.
    """
    if not assignment.is_colex_prefix():
        raise ValueError("assigned slots must form a co-lex prefix")
    k = assignment.assigned_count
    if outside := set(assignment.codes[:k]) - set(rules):
        raise ValueError(f"assigned code {min(outside)} is outside the rule set")
    prefix = np.frombuffer(assignment.codes, dtype=np.uint8, count=k)
    return not dominated(prefix, acting_tables(assignment.n, rules))


def is_canonical_complete(assignment: Assignment, rules: tuple[int, ...]) -> bool:
    """Exact test: no rule-respecting relabeling is lexicographically greater.

    The dominance test of :func:`is_partially_lex_max` at full length,
    where rules (b) and (c) hold for every relabeling.
    """
    if not assignment.is_complete:
        raise ValueError("exact canonicity test needs a complete assignment")
    return is_partially_lex_max(assignment, rules)


def _keeps_some_rule(rules: tuple[int, ...]) -> list[bool]:
    """Whether a triple keeps some rule, keyed by how g orders its images.

    The key of images x, y, z of a triple's smallest, middle and largest
    member is 4*(x<y) + 2*(x<z) + (y<z), as in core.RANKBITS_TO_PATTERN;
    keys 2 and 5 are cyclic and never occur.
    """
    allowed = set(rules)
    out = []
    for key in range(8):
        xy, xz, yz = key >> 2 & 1, key >> 1 & 1, key & 1
        ranks = (3 - xy - xz, 2 + xy - yz, 1 + xz + yz)
        out.append(
            any(
                ranks[i - 1] != j and core.CONDITION_CODES[(ranks[i - 1], j)] in allowed
                for i, j in (core.CONDITION_PAIRS[c] for c in allowed)
            )
        )
    return out


def acting_set(n: int, rules: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every acting relabeling of 1..n, lexicographic by image sequence.

    Alternatives receive their images in the order 1, 2, .., n, and each
    triple is checked as soon as the image of its largest member is fixed,
    so a dead partial permutation is cut before it is completed.  Raises
    ValueError beyond ACTING_CAP members.
    """
    keeps = _keeps_some_rule(rules)
    pairs_below = [[(a, b) for b in range(2, x) for a in range(1, b)] for x in range(n + 1)]
    images = [0] * (n + 1)
    used = [False] * (n + 1)
    found: list[tuple[int, ...]] = []

    def place(x: int) -> None:
        if x > n:
            if len(found) == ACTING_CAP:
                raise ValueError(
                    f"n={n} with rules {core.rules_token(rules)} has more than "
                    f"{ACTING_CAP} acting relabelings, the cap of the canonicity tables"
                )
            found.append(tuple(images[1:]))
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            if all(
                keeps[4 * (images[a] < images[b]) + 2 * (images[a] < v) + (images[b] < v)]
                for a, b in pairs_below[x]
            ):
                used[v], images[x] = True, v
                place(x + 1)
                used[v] = False

    place(1)
    return found


def _transform_tables(perms: np.ndarray, n: int):
    """Image-slot and induced-code tables for permutations, one per row.

    slot_map[g, s] is the slot of the image of triple s under permutation g;
    code_map[g, s, c] is the induced code of condition c there, 0 when the
    image is degenerate.
    """
    triples = np.array(core.all_triples(n), dtype=np.int64)
    images = perms[:, triples - 1].astype(np.int64)  # (G, S, 3)
    ranks = (images[..., None] > images[..., None, :]).sum(axis=-1)  # 0..2
    srt = np.sort(images, axis=-1)
    c3 = np.array([comb(max(v - 1, 0), 3) for v in range(n + 1)])
    c2 = np.array([comb(max(v - 1, 0), 2) for v in range(n + 1)])
    slot_map = c3[srt[..., 2]] + c2[srt[..., 1]] + (srt[..., 0] - 1)
    code_map = np.zeros(images.shape[:2] + (7,), dtype=np.int8)
    for c, (x, y) in core.CONDITION_PAIRS.items():
        lut = np.array(
            [0] + [0 if i == y else core.CONDITION_CODES[(i, y)] for i in (1, 2, 3)],
            dtype=np.int8,
        )
        code_map[..., c] = lut[ranks[..., x - 1] + 1]
    return slot_map, code_map


_ACTING_CACHE = {}


def acting_tables(n: int, rules: tuple[int, ...]):
    """Dominance tables over the acting set of (n, rules), built once.

    Returns (source, code_map, candidates, in_rules).  source[g, s] is the
    slot that g carries onto slot s.  candidates[k] lists the rows that
    satisfy rules (b) and (c) for a prefix of k slots and move some
    alternative of its support; a row fixing the support yields the prefix
    itself, which is never greater.
    """
    key = (n, tuple(sorted(set(rules))))
    if key not in _ACTING_CACHE:
        perms = np.array(acting_set(*key), dtype=np.int8)
        slot_map, code_map = _transform_tables(perms, n)
        count, slots = slot_map.shape
        source = np.empty_like(slot_map)
        np.put_along_axis(source, slot_map, np.arange(slots)[None, :], axis=1)
        in_rules = np.zeros(7, dtype=bool)
        in_rules[list(key[1])] = True
        keeps_prefix = np.maximum.accumulate(slot_map, axis=1) < np.arange(1, slots + 1)
        rules_stay = in_rules[code_map[..., list(key[1])]].all(axis=-1)
        keeps_suffix = np.ones((count, slots + 1), dtype=bool)
        keeps_suffix[:, :-1] = np.logical_and.accumulate(rules_stay[:, ::-1], axis=1)[:, ::-1]
        fixes = np.logical_and.accumulate(perms == np.arange(1, n + 1), axis=1)
        candidates = [np.empty(0, dtype=np.intp)]
        for k in range(1, slots + 1):
            m = core.triple_at(k - 1, n)[2]
            rows = keeps_prefix[:, k - 1] & keeps_suffix[:, k] & ~fixes[:, m - 1]
            candidates.append(np.flatnonzero(rows))
        _ACTING_CACHE[key] = (source, code_map, candidates, in_rules)
    return _ACTING_CACHE[key]


def dominated(prefix: np.ndarray, tables) -> bool:
    """True when a candidate row of :func:`acting_tables` maps the uint8 code
    prefix, taken as valid, into the rules and onto a greater prefix."""
    source, code_map, candidates, in_rules = tables
    k = len(prefix)
    rows = candidates[k]
    if rows.size == 0:
        return False
    src = source[rows, :k]
    image = code_map[rows[:, None], src, prefix[src]]
    image = image[in_rules[image].all(axis=1)]
    first = (image != prefix).argmax(axis=1)
    return bool((image[np.arange(len(image)), first] > prefix[first]).any())
