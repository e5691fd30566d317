"""Relabeling action on condition assignments and canonicity tests.

A permutation g of the alternatives carries a never condition iNj on triple
t to a condition i'Nj on the sorted image triple, where i' is the position
that g gives to the i-th smallest element of t.  The rank j is untouched.
When i' == j the image is one of the degenerate conditions 1N1/2N2/3N3,
which no unitary domain can satisfy; such images are reported as code 0 and
reject the permutation wherever a valid image is required.

Permutations of 1..n are written as tuples of images: g[x-1] is the image
of alternative x.  The action lives in one place, :func:`_transform_tables`,
which tabulates it for a block of permutations at once; :func:`acting_set`
reads its per-triple test off the same tables.  The independent reference
it is tested against is :func:`cdgen.oracle._relabeled`.

Few relabelings matter to the canonicity tests.  Call g *acting* for
(n, rules) when every triple keeps some rule inside the rules under g; a
relabeling that is not acting maps no complete assignment into the rules,
so it can neither beat a complete assignment nor an open prefix.  Whether
g acts depends only on the patterns of the triples in the order that lists
1..n by image, so the acting set is a class of orders avoiding some
patterns of length 3, as counted by Simion and Schmidt, "Restricted
permutations" (1985).  It is built once per (n, rules) by the row
extension that expands domains, :func:`cdgen.domain.extend_rows`, without
visiting all of S_n.  The 63 rule sets fall into eight such classes, of
2, F(n+1) (Fibonacci), n, 2^(n-1) or n! members; at n=8 2N3,2N1, 1N3,3N1
and 1N3,2N1 have 2, 34 and 8, against 8! = 40320.  Both
canonicity tests are one dominance test over the rows of that set,
:func:`dominated`, which the search engine calls once per frontier level
at every depth, so that one call decides the leaves too.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

import numpy as np

from . import core, domain
from .lexcode import Assignment

# Largest acting set that is tabulated.  No rule set exceeds it up to n=8,
# where S_8 itself has 8! members.  A rule set containing 1N2,3N2, 1N3,2N3
# or 2N1,3N1 keeps a rule on every triple under every relabeling, so from
# n=9 on its acting set is all of S_n and the tables would take gigabytes.
ACTING_CAP = factorial(8)

# Most entries of the prefix x relabeling x slot image tensor that
# :func:`dominated` builds at once; a larger frontier is taken in pieces.
IMAGE_BUDGET = 1 << 16


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
    return not dominated(prefix[None, :], acting_tables(assignment.n, rules))[0]


def is_canonical_complete(assignment: Assignment, rules: tuple[int, ...]) -> bool:
    """Exact test: no rule-respecting relabeling is lexicographically greater.

    The dominance test of :func:`is_partially_lex_max` at full length,
    where rules (b) and (c) hold for every relabeling.
    """
    if not assignment.is_complete:
        raise ValueError("exact canonicity test needs a complete assignment")
    return is_partially_lex_max(assignment, rules)


def acting_set(n: int, rules: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every acting relabeling of 1..n, lexicographic by image sequence.

    Whether a triple keeps some rule depends only on how g orders the
    images x, y, z of its smallest, middle and largest member: on the
    pattern of the triple in the order that lists 1..n by image.  The kept
    patterns are read off :func:`_transform_tables` for the six orderings
    of one triple, as a mask of pattern bits (core.RANKBITS_TO_PATTERN).
    The orders then grow by :func:`cdgen.domain.extend_rows`, one
    alternative per block, and a row stays while each new triple shows a
    kept pattern.  A surviving order lists the alternatives by image, so
    g(x) is one plus the position of x.  Raises ValueError once a block
    holds more than ACTING_CAP rows; no class of acting sets shrinks as n
    grows, so that refuses exactly the sets over the cap.
    """
    rules = core.check_rules(rules)
    orderings = np.array(list(permutations((1, 2, 3))), dtype=np.int8)
    x, y, z = orderings.T
    pattern = np.array(core.RANKBITS_TO_PATTERN)[4 * (x < y) + 2 * (x < z) + (y < z)]
    keeps = np.isin(_transform_tables(orderings, 3)[1][:, 0, list(rules)], rules).any(axis=1)
    mask = np.uint8(np.bitwise_or.reduce(1 << pattern[keeps]))
    pd, pat = domain.root_rows(n)
    for m in range(2, n):
        pd, pat = domain.extend_rows(pd, pat, m)
        keep = ((pat[:, comb(m, 3) : comb(m + 1, 3)] & mask) != 0).all(axis=1)
        pd, pat = pd[keep], pat[keep]
        if len(pd) > ACTING_CAP:
            raise ValueError(
                f"n={n} with rules {core.rules_token(rules)} has more than "
                f"{ACTING_CAP} acting relabelings, the cap of the canonicity tables"
            )
    perms = np.argsort(pd, axis=1) + 1
    return list(map(tuple, perms[np.lexsort(perms.T[::-1])].tolist()))


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

    Returns (source, code_map, candidates).  source[g, s] is the slot that
    g carries onto slot s.  code_map is :func:`_transform_tables`' table
    with every image outside the rules set to 0, so an image is valid
    exactly when it holds no 0.  candidates[k] lists the rows that
    satisfy rules (b) and (c) for a prefix of k slots and move some
    alternative of its support; a row fixing the support yields the prefix
    itself, which is never greater.
    """
    key = (n, core.check_rules(rules))
    if key not in _ACTING_CACHE:
        perms = np.array(acting_set(*key), dtype=np.int8)
        slot_map, code_map = _transform_tables(perms, n)
        count, slots = slot_map.shape
        source = np.empty_like(slot_map)
        np.put_along_axis(source, slot_map, np.arange(slots)[None, :], axis=1)
        in_rules = np.zeros(7, dtype=bool)
        in_rules[list(key[1])] = True
        code_map = np.where(in_rules[code_map], code_map, np.int8(0))
        keeps_prefix = np.maximum.accumulate(slot_map, axis=1) < np.arange(1, slots + 1)
        rules_stay = code_map[..., list(key[1])].all(axis=-1)
        keeps_suffix = np.ones((count, slots + 1), dtype=bool)
        keeps_suffix[:, :-1] = np.logical_and.accumulate(rules_stay[:, ::-1], axis=1)[:, ::-1]
        fixes = np.logical_and.accumulate(perms == np.arange(1, n + 1), axis=1)
        candidates = [np.empty(0, dtype=np.intp)]
        for k in range(1, slots + 1):
            m = core.triple_at(k - 1, n)[2]
            rows = keeps_prefix[:, k - 1] & keeps_suffix[:, k] & ~fixes[:, m - 1]
            candidates.append(np.flatnonzero(rows))
        _ACTING_CACHE[key] = (source, code_map, candidates)
    return _ACTING_CACHE[key]


def dominated(prefixes: np.ndarray, tables) -> np.ndarray:
    """For each row of an (F, k) uint8 matrix of code prefixes, taken as
    valid: whether a candidate row of :func:`acting_tables` maps it into
    the rules and onto a greater prefix.  Returns F bools.

    The images of all prefixes under all G candidates form an F x G x k
    tensor, built IMAGE_BUDGET entries at a time, in prefix order.  A
    valid image, like a prefix, holds no 0 byte, so comparing the two as
    byte strings compares them as code strings.
    """
    source, code_map, candidates = tables
    count, k = prefixes.shape
    rows = candidates[k]
    out = np.zeros(count, dtype=bool)
    if rows.size == 0:
        return out
    src = source[rows, :k]
    # code_map[g, s, c] as one flat index: (g * slots + s) * 7 + c
    base = ((rows[:, None] * code_map.shape[1] + src) * 7).astype(np.int32)
    flat = code_map.reshape(-1)
    step = max(1, IMAGE_BUDGET // base.size)
    for lo in range(0, count, step):
        prefix = np.ascontiguousarray(prefixes[lo : lo + step])
        image = np.ascontiguousarray(flat[base + prefix[:, src]])
        greater = image.view(f"S{k}")[..., 0] > prefix.view(f"S{k}")
        out[lo : lo + step] = (greater & image.all(axis=2)).any(axis=1)
    return out
