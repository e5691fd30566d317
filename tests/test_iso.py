"""Relabeling action on assignments and the canonicity tests.

The action is taken from the oracle's independent ``_relabeled``; the
package's own action, ``iso._transform_tables``, is checked against it in
``test_oracle.py``.
"""

from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgen import iso, oracle, search
from cdgen.lexcode import Assignment

ALL_SIX = (1, 2, 3, 4, 5, 6)


def compose(g, h):
    """g after h, both written as image tuples over the same ground set."""
    return tuple(g[h[x - 1] - 1] for x in range(1, len(h) + 1))


def relabel(a, g, rules):
    """The oracle's image of an assignment under g, or None outside the rules."""
    image = oracle._relabeled(a.codes, a.n, g, frozenset(rules))
    return None if image is None else Assignment(a.n, image)


def induced(code, g):
    """Image of one condition on the triple (1, 2, 3) under g, by the oracle
    and by iso's tables, which must agree; 0 when it is degenerate."""
    image = oracle._relabeled(bytes([code]), 3, g, frozenset(ALL_SIX))
    _, code_map = iso._transform_tables(np.array([g], dtype=np.int8), 3)
    assert code_map[0, 0, code] == (0 if image is None else image[0])
    return 0 if image is None else image[0]


def test_induced_condition_example():
    # swapping 1 and 2 swaps the roles of smallest and middle
    g = (2, 1, 3)
    assert induced(4, g) == 2  # 2N3 -> 1N3
    assert induced(2, g) == 4  # 1N3 -> 2N3
    # 1N2 maps the smallest onto rank 2: degenerate
    assert induced(1, g) == 0


def test_transform_identity():
    a = Assignment.from_string("4334", 4)
    assert relabel(a, (1, 2, 3, 4), (3, 4)) == a


def test_transform_rejects_images_outside_rules():
    a = Assignment.from_string("4", 3)
    # 2N3 under the 1<->2 swap becomes 1N3, which is outside {2N3, 2N1}
    assert relabel(a, (2, 1, 3), (3, 4)) is None
    assert relabel(a, (2, 1, 3), (2, 4)) is not None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(ALL_SIX), min_size=4, max_size=4),
    st.permutations(tuple(range(1, 5))),
    st.permutations(tuple(range(1, 5))),
)
def test_group_action_composition(codes, g, h):
    """Relabeling by h then g equals relabeling by the composite, whenever
    both stages stay inside the rules."""
    a = Assignment(4, bytes(codes))
    g, h = tuple(g), tuple(h)
    first = relabel(a, h, ALL_SIX)
    if first is None:
        return
    second = relabel(first, g, ALL_SIX)
    if second is None:
        return
    direct = relabel(a, compose(g, h), ALL_SIX)
    assert direct == second


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from((2, 3)), min_size=10, max_size=10),
    st.permutations(tuple(range(1, 6))),
)
def test_transform_inverse_restores(codes, g):
    a = Assignment(5, bytes(codes))
    g = tuple(g)
    image = relabel(a, g, (2, 3))
    if image is None:
        return
    inv = tuple(sorted(range(1, 6), key=lambda x: g[x - 1]))
    assert relabel(image, inv, (2, 3)) == a


# Effect of swapping in-triple positions 1 and 2 on each condition code;
# 0 marks a degenerate image.
PAIR_FLIP = {1: 0, 2: 4, 3: 0, 4: 2, 5: 5, 6: 6}


def test_flip_closure():
    """A relabeling of an open support flips positions 1 and 2 on some
    triple with one member beyond it, so a rule set that is not closed
    under that flip never prunes an open-support prefix."""
    for rules in [(2, 4), (5, 6), ALL_SIX, (3, 4), (2, 5), (2, 3)]:
        closed = all(PAIR_FLIP[c] in rules for c in rules)
        # 1N2 and 2N1 flip onto degenerate conditions
        assert closed == (rules in [(2, 4), (5, 6)])
        if not closed:
            for c in rules:
                assert iso.is_partially_lex_max(Assignment(4, bytes([c, 0, 0, 0])), rules)
    # 1N3 and 2N3 swap under the flip, so 1N3 on the first triple loses
    assert not iso.is_partially_lex_max(Assignment.from_string("2000", 4), (2, 4))
    assert iso.is_partially_lex_max(Assignment.from_string("4000", 4), (2, 4))


def test_partial_test_validates_prefix_shape():
    with pytest.raises(ValueError):
        iso.is_partially_lex_max(Assignment.from_string("4040", 4), (3, 4))
    with pytest.raises(ValueError):
        iso.is_partially_lex_max(Assignment.from_string("1000", 4), (3, 4))


def test_partial_test_empty_prefix_passes():
    assert iso.is_partially_lex_max(Assignment(5, bytes(10)), (3, 4))


def test_partial_test_prunes_dominated_prefix():
    # on one triple with all six allowed, 1N2 (code 1) is beaten by its
    # own relabelings, e.g. onto 2N1 (code 3)
    assert not iso.is_partially_lex_max(Assignment.from_string("1", 3), ALL_SIX)
    assert iso.is_partially_lex_max(Assignment.from_string("6", 3), ALL_SIX)


def test_partial_test_open_support_passes_for_pairs():
    # support 1..3 inside n=4 with a non-flip-closed pair: every relabeling
    # would wreck some condition on a straddling triple, so nothing prunes
    a = Assignment.from_string("3000", 4)
    assert iso.is_partially_lex_max(a, (3, 4))


def test_canonical_complete_requires_completeness():
    with pytest.raises(ValueError):
        iso.is_canonical_complete(Assignment.from_string("4300", 4), (3, 4))
    with pytest.raises(ValueError):
        iso.is_canonical_complete(Assignment.from_string("4141", 4), (3, 4))


def test_canonical_complete_single_rule_is_trivial():
    assert iso.is_canonical_complete(Assignment.from_string("4444", 4), (4,))


def test_canonical_complete_small_example():
    # of the six single conditions on n=3 under all six rules, exactly the
    # three largest of the pairing {1N2,3N2} {1N3,2N3} {2N1,3N1} survive
    canon = [c for c in ALL_SIX if iso.is_canonical_complete(Assignment(3, bytes([c])), ALL_SIX)]
    assert canon == [4, 5, 6]


def test_exact_gate_is_idempotent_across_the_orbit():
    """Every orbit has exactly one member passing the exact gate, and the
    gate keeps passing it (canonicity does not flip on re-examination)."""
    rules = (3, 4)
    n = 4
    complete = [Assignment(n, bytes(c)) for c in product(rules, repeat=comb(n, 3))]
    for a in complete:
        images = {a}
        for g in permutations(range(1, n + 1)):
            img = relabel(a, g, rules)
            if img is not None:
                images.add(img)
        best = max(images, key=lambda x: x.encode())
        passing = [x for x in images if iso.is_canonical_complete(x, rules)]
        assert passing == [best]
        assert iso.is_canonical_complete(best, rules)


def test_induced_condition_rank_swap_and_cycle():
    # swapping 2 and 3 moves the middle onto the top slot: 2N1 -> 3N1
    assert induced(3, (1, 3, 2)) == 5
    # the 3-cycle sends the middle to the largest: 2N3 becomes 3N3, degenerate
    assert induced(4, (2, 3, 1)) == 0


def test_transform_finds_the_larger_representative():
    rules = (3, 5)
    low = Assignment.from_string("3", 3)
    high = relabel(low, (1, 3, 2), rules)
    assert high == Assignment.from_string("5", 3)
    assert high > low
    assert not iso.is_partially_lex_max(low, rules)
    assert iso.is_partially_lex_max(high, rules)


def test_partial_test_agrees_with_exact_gate_on_complete_assignments():
    """With every slot filled the screening rules lose their slack, so the
    prefix test must give the same verdict as the exact gate."""
    for n in (3, 4):
        slots = comb(n, 3)
        for rules in [(3, 4), (2, 5), (2, 3), ALL_SIX]:
            for combo in product(rules, repeat=slots):
                a = Assignment(n, bytes(combo))
                assert iso.is_partially_lex_max(a, rules) == iso.is_canonical_complete(a, rules)


def test_transform_orbits_match_relabeled_domains():
    """Two four-pattern assignments are relabelings of one another exactly
    when their expansions are."""
    from cdgen import domain as dm

    n = 4
    perms = list(permutations(range(1, n + 1)))
    fours = [
        Assignment(n, bytes(combo))
        for combo in product(ALL_SIX, repeat=comb(n, 3))
        if oracle.realizes_four_patterns(bytes(combo), n)
    ]
    assert fours

    def orbit_key(a):
        images = [a.encode()]
        for g in perms:
            img = relabel(a, g, ALL_SIX)
            if img is not None:
                images.append(img.encode())
        return max(images)

    def domain_key(a):
        orders = dm.expand(a).orders
        return min(
            tuple(sorted(tuple(g[x - 1] for x in o) for o in orders))
            for g in perms
        )

    classes: dict[str, set] = {}
    for a in fours:
        classes.setdefault(orbit_key(a), set()).add(domain_key(a))
    assert all(len(v) == 1 for v in classes.values())
    reps = [next(iter(v)) for v in classes.values()]
    assert len(set(reps)) == len(reps)


def _reference_full_support_partial(assignment, rules, k):
    """Slow re-derivation of the three screening rules on the oracle's action.

    The prefix is dominated when some g (a) carries it into the rules,
    (c) onto the first k slots, (b) carries every rule on every open slot
    into the rules, and makes it greater.
    """
    n = assignment.n
    prefix = assignment.codes
    slots = len(prefix)
    allowed = frozenset(rules)
    for g in permutations(range(1, n + 1)):
        image = oracle._relabeled(prefix, n, g, allowed)
        if image is None or 0 in image[:k] or image[:k] <= prefix[:k]:
            continue
        if all(
            oracle._relabeled(bytes(u) + bytes([c]) + bytes(slots - u - 1), n, g, allowed) is not None
            for u in range(k, slots)
            for c in rules
        ):
            return False
    return True


def test_full_support_partial_test_matches_reference():
    import random

    random.seed(202)
    for n in (4, 5, 6):
        slots = comb(n, 3)
        for rules in [(2, 3), (3, 4), (2, 4), (2, 5), (5, 6), (1, 6), ALL_SIX]:
            for _ in range(60):
                k = random.randint(1, slots - 1)
                codes = bytes([random.choice(rules) for _ in range(k)] + [0] * (slots - k))
                a = Assignment(n, codes)
                assert iso.is_partially_lex_max(a, rules) == _reference_full_support_partial(a, rules, k)


def test_exact_gate_matches_oracle_canonical():
    import random

    random.seed(77)
    n, slots = 6, comb(6, 3)
    for rules in [(2, 3), ALL_SIX]:
        for _ in range(80):
            a = Assignment(n, bytes(random.choice(rules) for _ in range(slots)))
            canonical = oracle.orbit_of(a.codes, n, rules).canonical
            assert iso.is_canonical_complete(a, rules) == (canonical == a)


def test_acting_set_matches_brute_force():
    """The acting set is every g that carries some complete assignment
    into the rules."""
    every = [rules for size in range(1, 7) for rules in combinations(ALL_SIX, size)]
    cases = [(n, rules) for n in (3, 4) for rules in every]
    cases += [(5, rules) for rules in [(3, 4), (2, 5), (2, 3)]]
    for n, rules in cases:
        complete = [Assignment(n, bytes(c)) for c in product(rules, repeat=comb(n, 3))]
        carried = [
            g
            for g in permutations(range(1, n + 1))
            if any(relabel(a, g, rules) is not None for a in complete)
        ]
        assert iso.acting_set(n, rules) == carried


def test_acting_set_sizes():
    assert len(iso.acting_set(8, (3, 4))) == 2
    assert len(iso.acting_set(8, (2, 5))) == 34
    assert len(iso.acting_set(8, (2, 3))) == 8
    assert len(iso.acting_set(8, ALL_SIX)) == iso.ACTING_CAP
    for n in range(3, 11):
        assert [len(iso.acting_set(n, (c,))) for c in ALL_SIX] == [2] * 6


def test_dominated_on_engine_codes_matches_partial_test():
    """``dominated`` on a one-row uint8 matrix of codes gives the
    verdict of the validating entry point, with no special case: nothing
    is dominated at k = 0 or under a single rule.  At n <= 5 both also
    agree with the brute-force reference."""
    import random

    rng = random.Random(1515)
    rule_sets = [(3, 4), (2, 5), (2, 3)] + [(c,) for c in ALL_SIX]
    for n in range(4, 8):
        slots = comb(n, 3)
        for rules in rule_sets:
            tables = iso.acting_tables(n, rules)
            for k in [0, slots] + [rng.randint(1, slots - 1) for _ in range(12)]:
                codes = np.zeros(slots, dtype=np.uint8)
                codes[:k] = [rng.choice(rules) for _ in range(k)]
                a = Assignment(n, codes.tobytes())
                verdict = iso.dominated(codes[None, :k], tables)[0]
                assert verdict == (not iso.is_partially_lex_max(a, rules))
                if k == 0 or len(rules) == 1:
                    assert not verdict
                if n <= 5:
                    assert verdict == (not _reference_full_support_partial(a, rules, k))


@pytest.mark.parametrize("rules", [(3, 4), (2, 5), (2, 3), ALL_SIX])
def test_dominated_over_a_frontier(rules, monkeypatch):
    """One call over a whole frontier gives each row's own verdict.

    The frontier at depth k holds the co-lex prefixes of length k of every
    member of every emitted class at n=5, so it mixes dominated prefixes
    with canonical ones.  Row by row and by the brute-force reference,
    every verdict is checked for the rule pairs and every 32nd for all six
    conditions (G = 120).
    """
    n, slots = 5, comb(5, 3)
    tables = iso.acting_tables(n, rules)
    classes = [h.assignment.codes for h in search.run_search(search.SearchConfig(n=n, rules=rules))[0]]
    members = sorted({image for codes in classes for image in oracle._images(codes, n, rules)})
    stride = 32 if len(rules) == 6 else 1
    for k in range(slots + 1):
        prefixes = sorted({codes[:k] for codes in members})
        frontier = np.frombuffer(b"".join(prefixes), dtype=np.uint8).reshape(len(prefixes), k)
        verdicts = iso.dominated(frontier, tables)
        assert verdicts.shape == (len(prefixes),)
        for row, prefix, verdict in list(zip(frontier, prefixes, verdicts))[::stride]:
            assert iso.dominated(row[None, :], tables)[0] == verdict
            a = Assignment(n, prefix + bytes(slots - k))
            assert verdict == (not _reference_full_support_partial(a, rules, k))
        with monkeypatch.context() as patched:
            # an image tensor over budget is built three prefixes at a time
            patched.setattr(iso, "IMAGE_BUDGET", 3 * len(tables[2][k]) * k + 1)
            assert iso.dominated(frontier, tables).tolist() == verdicts.tolist()
        if k == slots:
            assert verdicts.sum() == len(members) - len(classes)
    assert not iso.dominated(np.zeros((0, slots), dtype=np.uint8), tables).any()
    # at depth 1 no candidate moves the support {1, 2, 3} and keeps every
    # open slot's conditions in the rules, so nothing there is dominated
    assert len(tables[2][1]) == 0
    assert not iso.dominated(np.array([[c] for c in rules], dtype=np.uint8), tables).any()
