"""Expansion of assignments into domains and the domain predicates."""

import io
import random
from itertools import permutations, product
from math import comb

import pytest

from cdgen import core, domain, oracle
from cdgen.domain import (
    Domain,
    expand,
    expand_size,
    format_histogram,
    histogram,
    is_copious,
    is_maximal,
    is_unitary,
    read_domain,
    satisfied_conditions,
    write_domain,
)
from cdgen.lexcode import Assignment


def filtered(a):
    """The n!-filter reference from the oracle, as a Domain."""
    return Domain(a.n, oracle.expanded_orders(a.codes, a.n))


def test_expand_single_2n3():
    d = expand(Assignment.from_string("4", 3))
    assert d.orders == ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1))


def test_expand_requires_complete():
    with pytest.raises(ValueError):
        expand(Assignment.from_string("4300", 4))


def test_expand_matches_filter_exhaustively_small():
    """Every complete pair-rule assignment at n in {3, 4}: the prefix
    expansion and the n!-filter produce identical order sets."""
    for rules in [(3, 4), (2, 5), (2, 3)]:
        for n in (3, 4):
            for codes in product(rules, repeat=comb(n, 3)):
                a = Assignment(n, bytes(codes))
                assert expand(a) == filtered(a)


def test_expand_all_six_spot_checks():
    for codes in product((1, 2, 3, 4, 5, 6), repeat=4):
        a = Assignment(4, bytes(codes))
        fast = expand(a)
        assert fast == filtered(a)
        assert expand_size(a) == len(fast)


def test_expanded_orders_satisfy_their_conditions():
    a = Assignment.from_string("4334", 4)
    for o in expand(a):
        for t, c in zip(core.all_triples(4), a.codes):
            assert core.satisfies(o, t, c)


def test_domain_always_contains_ascending():
    # never conditions of the iNj kind keep the ascending order in play
    for codes in product((3, 4), repeat=4):
        d = expand(Assignment(4, bytes(codes)))
        assert is_unitary(d)


def test_satisfied_conditions_example():
    d = expand(Assignment.from_string("4", 3))
    assert satisfied_conditions(d, (1, 2, 3)) == {4}


def test_satisfied_conditions_extremes():
    # one order leaves every condition unviolated on every triple
    lone = Domain(4, [(1, 2, 3, 4)])
    for t in core.all_triples(4):
        assert satisfied_conditions(lone, t) == {1, 2, 3, 4, 5, 6}
    # all six orders realize all six patterns, so nothing survives
    full = Domain(3, [p for p in product((1, 2, 3), repeat=3) if len(set(p)) == 3])
    assert satisfied_conditions(full, (1, 2, 3)) == set()


def test_copious_domains_satisfy_exactly_their_assigned_condition():
    """On a copious domain the four realized patterns pin the condition
    down uniquely: two different conditions share at most three patterns."""
    for rules in [(3, 4), (2, 5), (2, 3)]:
        for codes in product(rules, repeat=4):
            a = Assignment(4, bytes(codes))
            d = expand(a)
            if not is_copious(d):
                continue
            for t, c in zip(core.all_triples(4), a.codes):
                assert satisfied_conditions(d, t) == {c}


def test_non_copious_domain_can_satisfy_several_conditions():
    d = expand(Assignment(4, bytes([4, 3, 4, 4])))
    assert not is_copious(d)
    extra = [t for t in core.all_triples(4) if len(satisfied_conditions(d, t)) > 1]
    assert extra


def test_is_copious():
    assert is_copious(expand(Assignment.from_string("4", 3)))
    # a three-order domain realizes only 3 patterns on its triple
    d = Domain(3, [(1, 2, 3), (2, 1, 3), (2, 3, 1)])
    assert not is_copious(d)


def test_is_maximal_known_cases():
    assert is_maximal(expand(Assignment.from_string("4", 3)))
    d = Domain(3, [(1, 2, 3), (2, 1, 3), (2, 3, 1)])
    assert not is_maximal(d)
    # single-peaked on the natural axis
    sp = expand(Assignment.from_string("4444", 4))
    assert len(sp) == 8
    assert is_maximal(sp)


def test_expand_matches_filter_sampled_n5():
    rng = random.Random(918)
    for _ in range(1000):
        rules = rng.choice([(3, 4), (2, 5), (2, 3), (1, 2, 3, 4, 5, 6)])
        a = Assignment(5, bytes(rng.choice(rules) for _ in range(10)))
        assert expand(a) == filtered(a)


def test_expand_matches_filter_sampled_n6_n7():
    rng = random.Random(919)
    for n, samples in [(6, 200), (7, 40)]:
        for _ in range(samples):
            rules = rng.choice([(3, 4), (2, 5), (2, 3), (1, 2, 3, 4, 5, 6)])
            a = Assignment(n, bytes(rng.choice(rules) for _ in range(comb(n, 3))))
            want = filtered(a)
            assert expand(a) == want
            assert expand_size(a) == len(want)


def test_is_maximal_guards():
    with pytest.raises(ValueError, match="not a Condorcet domain"):
        is_maximal(Domain(3, permutations((1, 2, 3))))
    with pytest.raises(ValueError, match=r"capped at n <= 9"):
        is_maximal(Domain(10, [tuple(range(1, 11))]))


def test_proper_subsets_are_never_maximal():
    full = expand(Assignment.from_string("4444", 4))
    for drop in range(len(full.orders)):
        sub = Domain(4, full.orders[:drop] + full.orders[drop + 1 :])
        assert not is_maximal(sub)


def test_histogram_and_formats():
    counts = histogram(
        [
            Assignment.from_string("4", 3),
            Assignment.from_string("6", 3),
            Assignment.from_string("4444", 4),
        ]
    )
    assert counts == {4: 2, 8: 1}
    text = format_histogram(counts)
    assert text == "4: 2\n8: 1"


def test_domain_file_round_trip():
    d = expand(Assignment.from_string("4334", 4))
    buf = io.StringIO()
    write_domain(buf, d)
    text = buf.getvalue()
    assert text.startswith("# n=4 source=4334\n")
    back = read_domain(io.StringIO(text))
    assert back == d
    assert back.source == d.source


def test_domain_file_without_source():
    buf = io.StringIO()
    write_domain(buf, Domain(3, [(1, 2, 3)]))
    assert buf.getvalue().splitlines()[0] == "# n=3 source=unknown"
    back = read_domain(io.StringIO(buf.getvalue()))
    assert back.source is None
    assert back.orders == ((1, 2, 3),)


def test_read_domain_rejects_missing_header():
    with pytest.raises(ValueError):
        read_domain(io.StringIO("1 2 3\n"))


@pytest.mark.parametrize(
    "header, message",
    [
        ("# source=4", "domain header is missing the n= field"),
        ("# n=x source=4", "domain header field n='x' is not an integer"),
        ("# n=3 source=4x", "domain header field source='4x' is not a code string for n=3"),
        ("# n=3 source=44", "domain header field source='44' is not a code string for n=3"),
    ],
)
def test_read_domain_rejects_a_bad_n_field(header, message):
    with pytest.raises(ValueError, match=message):
        read_domain(io.StringIO(header + "\n1 2 3\n"))


@pytest.mark.parametrize(
    "body, message",
    [
        ("123\n123\n132\n", "line 3: order 123 repeats line 2"),
        ("1x3\n", "line 2: 1x3 is not a linear order on 1..3"),
        ("12\n", "line 2: 12 is not a linear order on 1..3"),
    ],
    ids=["repeated", "not-digits", "too-short"],
)
def test_read_domain_rejects_a_repeated_order(body, message):
    with pytest.raises(ValueError, match=message):
        read_domain(io.StringIO("# n=3\n" + body))


def test_domain_membership_and_ordering():
    d = expand(Assignment.from_string("4", 3))
    assert (2, 3, 1) in d
    assert (3, 1, 2) not in d
    assert list(d) == sorted(d.orders)
    assert len(d) == 4



def test_replay_matches_the_filtered_orders():
    """replay on seeded random co-lex prefixes at n = 4..6 (empty, ending
    mid-block, ending exactly at some C(m,3), complete): the rows are the
    orders of 1..m meeting every assigned code, and their pattern bits are
    those of restrict() on the live slots, 0 beyond."""
    rng = random.Random(1414)
    for n in (4, 5, 6):
        slots = comb(n, 3)
        boundaries = {comb(m, 3) for m in range(2, n + 1)}
        lengths = sorted(boundaries | set(range(1, slots, 2)))
        assert lengths[0] == 0 and lengths[-1] == slots
        for rules in [(3, 4), (2, 5), (2, 3), (1, 2, 3, 4, 5, 6)]:
            for length in lengths:
                codes = bytes(rng.choice(rules) for _ in range(length))
                m, pd, pat = domain.replay(n, codes)
                assert m == min(k for k in range(2, n + 1) if comb(k, 3) >= length)
                triples = [core.triple_at(k, n) for k in range(length)]
                want = {
                    order
                    for order in permutations(range(1, m + 1))
                    if all(core.satisfies(order, t, c) for t, c in zip(triples, codes))
                }
                rows = [tuple(order) for order in pd.tolist()]
                assert len(rows) == len(set(rows)) and set(rows) == want, codes
                live = comb(m, 3)
                assert pat.shape == (len(rows), -(-slots // 8) * 8)
                for order, bits in zip(rows, pat.tolist()):
                    assert bits[:live] == [
                        1 << core.ALL_PATTERNS.index(core.restrict(order, core.triple_at(s, m)))
                        for s in range(live)
                    ]
                    assert not any(bits[live:])
