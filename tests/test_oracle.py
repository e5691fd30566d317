"""The brute-force oracle, and the search engine checked against it."""

from itertools import permutations
from math import factorial

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
    from itertools import permutations, product

    for codes in product((2, 3), repeat=4):
        a = Assignment(4, bytes(codes))
        for g in permutations(range(1, 5)):
            mine = oracle._relabeled(bytes(codes), 4, g, frozenset((2, 3)))
            theirs = iso.transform(a, g, (2, 3))
            if theirs is None:
                assert mine is None
            else:
                assert mine == theirs.codes


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
            img = iso.transform(sample, g, rules)
            if img is not None and img not in canon:
                assert not iso.is_canonical_complete(img, rules)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(oracle._all_assignments(9, ALL_SIX))


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
