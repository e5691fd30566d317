"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every comparison in this file is exact; there are no numeric tolerances.
Run with `pytest -s tests/test_acceptance.py` (or `-rA`) to see the lines.
Criterion 3 performs the full n=8 search for 1N3,2N1 and takes about
half a minute.  The two long n=8 searches behind criterion 4 only run when
CDGEN_EXTENDED=1 is set; their scaled-down n=6 variant always runs.
"""

import io
import random
from collections import Counter
from itertools import product
from math import comb
from os import environ

import pytest

from cdgen import cli, iso, oracle
from cdgen.domain import Domain, expand, is_copious, is_maximal
from cdgen.lexcode import EQUAL, GREATER, LESS, Assignment, lex_compare, write_assignments
from cdgen.search import SearchConfig, generate, run_search

from reference_histograms import N8_1N3_2N1, N8_1N3_3N1, N8_2N3_2N1

ALL_SIX = (1, 2, 3, 4, 5, 6)
ALL_SIX_TOKENS = "1N2,1N3,2N1,2N3,3N1,3N2"
RULE_PAIRS = {"2N3,2N1": (3, 4), "1N3,3N1": (2, 5), "1N3,2N1": (2, 3)}
EXTENDED = environ.get("CDGEN_EXTENDED", "") not in ("", "0")

_RUNS: dict = {}


def cached_run(n, rules):
    key = (n, rules)
    if key not in _RUNS:
        _RUNS[key] = run_search(SearchConfig(n=n, rules=rules))
    return _RUNS[key]


def report(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} tolerance=exact"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def size_histogram(hits):
    return dict(sorted(Counter(len(h.domain) for h in hits).items()))


def test_criterion_1_oracle_equivalence(capsys):
    configs = [(3, ALL_SIX_TOKENS), (4, ALL_SIX_TOKENS)]
    configs += [(n, pair) for pair in RULE_PAIRS for n in (3, 4, 5)]
    failures = []
    for n, rules in configs:
        code = cli.main(["check", "--n", str(n), "--rules", rules])
        out = capsys.readouterr().out
        if code != 0 or "EQUAL" not in out:
            failures.append((n, rules))
    with capsys.disabled():
        report(1, "search equals brute-force oracle", not failures,
               f"{len(configs)} configurations" if not failures else f"failing: {failures}")


def test_criterion_2_single_peaked_size_law():
    bad = []
    for n in range(3, 11):
        hits, _ = run_search(SearchConfig(n=n, rules=(4,)))
        if len(hits) != 1 or len(hits[0].domain) != 2 ** (n - 1):
            bad.append(n)
    report(2, "single 2N3 class of size 2^(n-1) for n=3..10", not bad,
           "exact at every n" if not bad else f"failing n: {bad}")


def test_criterion_3_full_n8_run_1n3_2n1():
    hits, stats = cached_run(8, (2, 3))
    counts = size_histogram(hits)
    spot = (counts.get(44), counts.get(59), counts.get(194)) == (7, 31, 1)
    ok = counts == N8_1N3_2N1 and spot and sum(counts.values()) == 3840
    report(3, "full n=8 1N3,2N1 histogram matches the frozen reference", ok,
           f"{sum(counts.values())} classes in {stats.wall_time:.0f}s")


def test_criterion_4_scaled_down_determinism_and_predicates():
    details = []
    ok = True
    for tokens, rules in RULE_PAIRS.items():
        first, s1 = run_search(SearchConfig(n=6, rules=rules))
        second, s2 = run_search(SearchConfig(n=6, rules=rules))
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_assignments(buf1, 6, rules, (h.assignment for h in first))
        write_assignments(buf2, 6, rules, (h.assignment for h in second))
        identical = (
            buf1.getvalue() == buf2.getvalue()
            and [h.domain.orders for h in first] == [h.domain.orders for h in second]
            and s1.leaves_emitted == s2.leaves_emitted == len(first)
        )
        predicates = all(is_copious(h.domain) and is_maximal(h.domain) for h in first)
        ok = ok and identical and predicates
        details.append(f"{tokens}:{len(first)}")
        _RUNS[(6, rules)] = (first, s1)
    report(4, "n=6 double runs byte-identical, all leaves copious+maximal", ok,
           " ".join(details))


@pytest.mark.skipif(not EXTENDED, reason="long n=8 runs; set CDGEN_EXTENDED=1")
def test_criterion_4_extended_n8_runs():
    sizes_a: Counter = Counter()
    generate(SearchConfig(n=8, rules=(3, 4)), lambda hit: sizes_a.update((len(hit.domain),)))
    counts_a = dict(sorted(sizes_a.items()))
    sizes_b: Counter = Counter()
    generate(SearchConfig(n=8, rules=(2, 5)), lambda hit: sizes_b.update((len(hit.domain),)))
    counts_b = dict(sorted(sizes_b.items()))
    ok = (
        counts_a.get(29) == 2
        and counts_a.get(222) == 1
        and counts_b.get(128) == 61856
        and counts_a == N8_2N3_2N1
        and counts_b == N8_1N3_3N1
    )
    report(4, "extended n=8 runs match the frozen references", ok,
           f"2N3,2N1:{sum(counts_a.values())} 1N3,3N1:{sum(counts_b.values())}")


def test_criterion_5_emitted_domains_copious_and_maximal():
    bad = []
    for n in (5, 6):
        for tokens, rules in RULE_PAIRS.items():
            hits, _ = cached_run(n, rules)
            for h in hits:
                if not (is_copious(h.domain) and is_maximal(h.domain)):
                    bad.append((n, tokens, h.code_string))
    total = sum(len(cached_run(n, rules)[0]) for n in (5, 6) for rules in RULE_PAIRS.values())
    report(5, "every emitted domain copious and maximal at n=5,6", not bad,
           f"{total} domains checked" if not bad else f"failing: {bad[:3]}")


def _composition_holds(rng):
    for _ in range(300):
        a = Assignment(4, bytes(rng.choice(ALL_SIX) for _ in range(4)))
        g = tuple(rng.sample(range(1, 5), 4))
        h = tuple(rng.sample(range(1, 5), 4))
        first = iso.transform(a, h, ALL_SIX)
        if first is None:
            continue
        second = iso.transform(first, g, ALL_SIX)
        if second is None:
            continue
        gh = tuple(g[h[x - 1] - 1] for x in range(1, 5))
        if iso.transform(a, gh, ALL_SIX) != second:
            return False
    return True


def _lex_total_and_transitive(rng):
    pool = [Assignment(4, bytes(rng.choice(ALL_SIX) for _ in range(4))) for _ in range(40)]
    for a in pool:
        for b in pool:
            c = lex_compare(a, b)
            if c not in (LESS, EQUAL, GREATER) or c != -lex_compare(b, a):
                return False
    for _ in range(400):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if lex_compare(a, b) != GREATER and lex_compare(b, c) != GREATER:
            if lex_compare(a, c) == GREATER:
                return False
    return True


def _prefixes_pass(hits, n, rules):
    slots = comb(n, 3)
    for h in hits:
        for k in range(1, slots + 1):
            partial = Assignment(n, h.assignment.codes[:k] + bytes(slots - k))
            if not iso.is_partially_lex_max(partial, rules):
                return False
    return True


def _expand_matches_filter():
    rule_sets = list(RULE_PAIRS.values()) + [ALL_SIX]
    for rules in rule_sets:
        for n in (3, 4):
            for codes in product(rules, repeat=comb(n, 3)):
                a = Assignment(n, bytes(codes))
                if expand(a) != Domain(a.n, oracle.expanded_orders(a.codes, a.n)):
                    return False
    return True


def _canonicity_idempotent():
    for n, rules in [(4, ALL_SIX), (5, (3, 4)), (5, (2, 5)), (5, (2, 3))]:
        hits, _ = cached_run(n, rules)
        for h in hits:
            if not iso.is_canonical_complete(h.assignment, rules):
                return False
    return True


def test_criterion_6_property_suite():
    rng = random.Random(20260814)
    results = {
        "group-action composition": _composition_holds(rng),
        "lex totality": _lex_total_and_transitive(rng),
        "prefix-pass": (
            _prefixes_pass(cached_run(4, ALL_SIX)[0], 4, ALL_SIX)
            and _prefixes_pass(cached_run(5, (3, 4))[0], 5, (3, 4))
        ),
        "expand==filter": _expand_matches_filter(),
        "canonicity idempotence": _canonicity_idempotent(),
    }
    failing = [name for name, ok in results.items() if not ok]
    report(6, "property suite (5 invariants)", not failing,
           "all hold" if not failing else f"failing: {failing}")
