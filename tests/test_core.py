"""Triple bookkeeping, patterns, and the condition tables."""

from itertools import combinations, permutations
from math import comb

import pytest

from cdgen import core, domain


def test_condition_tables_agree():
    assert core.ALL_CONDITIONS == (1, 2, 3, 4, 5, 6)
    for code, (i, j) in core.CONDITION_PAIRS.items():
        assert i != j
        assert core.CONDITION_CODES[(i, j)] == code
        assert core.CONDITION_NAMES[code] == f"{i}N{j}"
        assert core.parse_condition(f"{i}N{j}") == code


def test_parse_condition_accepts_both_cases():
    assert core.parse_condition("2N3") == 4
    assert core.parse_condition("2n3") == 4
    assert core.parse_condition(" 1N2 ") == 1
    for degenerate in ("1N1", "2N2", "3N3"):
        with pytest.raises(ValueError, match="is not one of the six valid conditions"):
            core.parse_condition(degenerate)
    with pytest.raises(ValueError):
        core.parse_condition("7N1")
    with pytest.raises(ValueError):
        core.parse_condition("N3")
    with pytest.raises(ValueError, match="malformed never condition"):
        core.parse_condition("２N３")  # only ASCII digits


def test_parse_rules_sorts_and_dedupes():
    assert core.parse_rules("2N3,2N1") == (3, 4)
    assert core.parse_rules("2n1,2N1,2N3") == (3, 4)
    assert core.rules_token((3, 4)) == "2N1,2N3"
    with pytest.raises(ValueError):
        core.parse_rules("")
    with pytest.raises(ValueError):
        core.parse_rules("2N2")


def test_triple_index_is_colex_rank():
    # the first C(m,3) slots are exactly the triples inside 1..m
    for n in range(3, 13):
        triples = core.all_triples(n)
        assert triples == sorted(triples, key=lambda t: (t[2], t[1], t[0]))
        assert sorted(triples) == list(combinations(range(1, n + 1), 3))


def test_triple_index_matches_the_rank_formula():
    # the closed form that oracle._relabeled uses to place an image triple
    for n in range(3, 13):
        for k, (a, b, c) in enumerate(core.all_triples(n)):
            assert comb(c - 1, 3) + comb(b - 1, 2) + a - 1 == k


def test_triple_index_prefix_property():
    # rank of a triple does not depend on n
    assert core.all_triples(8)[:20] == core.all_triples(6)


def test_triple_validation():
    for k in (-1, 4):
        with pytest.raises(ValueError, match=f"triple rank {k} out of range for n=4"):
            core.triple_at(k, 4)


def test_restrict_examples():
    assert core.restrict((4, 1, 3, 2, 5), (1, 3, 4)) == (3, 1, 2)
    assert core.restrict((1, 2, 3), (1, 2, 3)) == (1, 2, 3)
    assert core.restrict((3, 2, 1), (1, 2, 3)) == (3, 2, 1)
    assert core.restrict((2, 4, 1, 3), (1, 2, 4)) == (2, 3, 1)


def test_restrict_hits_all_six_patterns():
    seen = {core.restrict(o, (1, 2, 3)) for o in permutations((1, 2, 3))}
    assert seen == set(core.ALL_PATTERNS)


def test_pattern_satisfies_counts():
    # each condition bans the two patterns placing element i at rank j
    for code, (i, j) in core.CONDITION_PAIRS.items():
        allowed = [p for p in core.ALL_PATTERNS if core.pattern_satisfies(p, code)]
        banned = [p for p in core.ALL_PATTERNS if not core.pattern_satisfies(p, code)]
        assert len(allowed) == 4
        assert len(banned) == 2
        assert all(p[j - 1] == i for p in banned)


def test_violator_pairs_are_distinct_per_condition():
    # no two conditions ban the same pattern pair, which is what makes a
    # four-pattern triple pin down its condition uniquely
    banned = {}
    for code in core.ALL_CONDITIONS:
        pair = frozenset(p for p in core.ALL_PATTERNS if not core.pattern_satisfies(p, code))
        banned[code] = pair
    assert len(set(banned.values())) == 6


def test_sat_masks_match_pattern_satisfies():
    for code in core.ALL_CONDITIONS:
        mask = core.SAT_MASKS[code]
        for k, p in enumerate(core.ALL_PATTERNS):
            assert bool(mask >> k & 1) == core.pattern_satisfies(p, code)


def test_rankbits_table_matches_restrict():
    # the pattern bits keyed on pairwise position comparisons must agree
    # with computing the pattern through restrict
    for order in permutations(range(1, 6)):
        for t in core.all_triples(5):
            pos = {x: order.index(x) for x in t}
            a, b, c = t
            bits = 4 * (pos[a] < pos[b]) + 2 * (pos[a] < pos[c]) + (pos[b] < pos[c])
            assert domain._RANK_BIT[bits] == 1 << core.ALL_PATTERNS.index(core.restrict(order, t))


def test_satisfies_example():
    # 2N3 on (1,2,3): the middle element never comes last
    good = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]
    bad = [(1, 3, 2), (3, 1, 2)]
    for o in good:
        assert core.satisfies(o, (1, 2, 3), 4)
    for o in bad:
        assert not core.satisfies(o, (1, 2, 3), 4)


def test_ascending_order_satisfies_everything():
    order = tuple(range(1, 7))
    for t in core.all_triples(6):
        for code in core.ALL_CONDITIONS:
            assert core.satisfies(order, t, code)


def test_order_formatting_round_trip():
    assert core.parse_order("41325", 5) == (4, 1, 3, 2, 5)
    assert core.format_order((4, 1, 3, 2, 5), 5) == "41325"
    big = tuple(range(10, 0, -1))
    assert core.parse_order(core.format_order(big, 10), 10) == big
    with pytest.raises(ValueError):
        core.parse_order("4132", 5)
    with pytest.raises(ValueError):
        core.parse_order("41322", 5)
    with pytest.raises(ValueError, match="is not a linear order on 1..5"):
        core.parse_order("٤١٣٢٥", 5)  # only ASCII digits
