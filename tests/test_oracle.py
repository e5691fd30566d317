"""The brute-force oracle, and the search engine checked against it."""

from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

from cdgen import iso, oracle
from cdgen.lexcode import Assignment

ALL_SIX = (1, 2, 3, 4, 5, 6)


def test_expanded_orders_example():
    assert oracle.expanded_orders(bytes([4]), 3) == [
        (1, 2, 3),
        (2, 1, 3),
        (2, 3, 1),
        (3, 2, 1),
    ]


def test_four_pattern_screen():
    assert oracle.realizes_four_patterns(bytes([4]), 3)
    # 2N3 everywhere except one 2N1 slot starves triple (1,2,4) down to
    # three patterns at n=4
    assert not oracle.realizes_four_patterns(bytes([4, 3, 4, 4]), 4)


def test_relabeled_matches_iso_transform():
    """iso's action tables and the oracle's independent action give the same
    image of every assignment over n=4, partial ones included, under every
    permutation of S_4."""
    perms = list(permutations(range(1, 5)))
    slot_map, code_map = iso._transform_tables(np.array(perms, dtype=np.int8), 4)
    for rules in [(2, 3), ALL_SIX]:
        allowed = frozenset(rules)
        for codes in product((0,) + rules, repeat=4):
            for gi, g in enumerate(perms):
                image = bytearray(4)
                for s, c in enumerate(codes):
                    image[slot_map[gi, s]] = code_map[gi, s, c]
                kept = all(image[slot_map[gi, s]] in allowed for s, c in enumerate(codes) if c)
                assert oracle._relabeled(bytes(codes), 4, g, allowed) == (bytes(image) if kept else None)


def test_orbit_stabilizer_invariant():
    """orbit size x stabilizer size == number of acting permutations, for
    every class; the acting permutations form a group when the image is
    reachable in one step."""
    for n, rules in [(3, ALL_SIX), (4, (3, 4)), (4, (2, 5)), (4, ALL_SIX)]:
        for report in oracle.brute_force_orbits(n, rules):
            assert report.orbit_size * report.stabilizer_size == report.acting_count
            assert report.acting_count <= factorial(n)


def test_single_condition_classes_all_six():
    reports = oracle.brute_force_orbits(3, ALL_SIX)
    assert [r.canonical.encode() for r in reports] == ["4", "5", "6"]
    assert [r.orbit_size for r in reports] == [2, 2, 2]


def test_known_class_counts():
    assert len(oracle.brute_force_classes(3, (3, 4))) == 2
    assert len(oracle.brute_force_classes(3, (2, 5))) == 2
    assert len(oracle.brute_force_classes(3, (2, 3))) == 2
    assert len(oracle.brute_force_classes(4, (4,))) == 1
    assert len(oracle.brute_force_classes(4, ALL_SIX)) == 31


def test_canonicals_pass_exact_gate_and_others_fail():
    for rules in [(3, 4), ALL_SIX]:
        reports = oracle.brute_force_orbits(4, rules)
        for r in reports:
            assert iso.is_canonical_complete(r.canonical, rules)
        canon = {r.canonical for r in reports}
        # regenerate one full orbit and check the non-representatives fail
        sample = reports[0].canonical
        for g in permutations(range(1, 5)):
            img = oracle._relabeled(sample.codes, 4, g, frozenset(rules))
            if img is not None and Assignment(4, img) not in canon:
                assert not iso.is_canonical_complete(Assignment(4, img), rules)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(oracle._all_assignments(9, ALL_SIX))


def test_enumeration_guard_counts_relabelings():
    """The bound is on assignments x n!: n=5 with three rules (3^10 x 120)
    still runs, n=5 with four rules and n=6 with a pair do not."""
    assert next(oracle._all_assignments(5, (2, 3, 4))) == bytes([2] * 10)
    for n, rules in [(5, (1, 2, 3, 4)), (6, (3, 4))]:
        with pytest.raises(ValueError, match="above its bound of 10000000"):
            next(oracle._all_assignments(n, rules))


def test_cross_check_small():
    for n, rules in [(3, (3, 4)), (4, (3, 4)), (3, ALL_SIX), (4, (2, 5)), (4, (2, 3))]:
        result = oracle.cross_check(n, rules)
        assert result.equal, (result.search_only, result.oracle_only)


def test_cross_check_reports_counts():
    result = oracle.cross_check(4, ALL_SIX)
    assert result.equal
    assert result.class_count == 31
    assert result.search_only == ()
    assert result.oracle_only == ()
