"""The orderly search engine: determinism, partitioning, and correctness."""

import hashlib
import pickle
from itertools import combinations, permutations, product
from math import comb

import pytest

from cdgen import core, domain, iso, oracle, search
from cdgen.lexcode import Assignment
from cdgen.search import SearchConfig, SearchStats, generate, resume, run_search

ALL_SIX = (1, 2, 3, 4, 5, 6)


def codes_of(hits):
    return [h.code_string for h in hits]


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=2, rules=(3, 4))
    with pytest.raises(ValueError):
        SearchConfig(n=4, rules=())
    with pytest.raises(ValueError):
        SearchConfig(n=4, rules=(3, 7))
    with pytest.raises(ValueError):
        SearchConfig(n=4, rules=(3, 4), thread_count=0)


def test_config_normalizes_rules():
    cfg = SearchConfig(n=4, rules=(4, 3, 4))
    assert cfg.rules == (3, 4)


def test_known_class_counts_n5():
    for rules, want in [((3, 4), 36), ((2, 5), 43), ((2, 3), 19)]:
        hits, stats = run_search(SearchConfig(n=5, rules=rules))
        assert len(hits) == want
        assert stats.leaves_emitted == want


@pytest.mark.parametrize(
    "n, rules, classes, visited, pruned, sha256",
    [
        (6, "2N3,2N1", 461, 4568, 3647, "d2371c804079c071779d08af859e90ac5f27eab3e31ee61078397a92b3e7af0d"),
        (6, "1N3,3N1", 559, 5596, 4479, "23a76b2846c8fdd69704b69075675087c544f3febcae7074164ec6009f4c3b1b"),
        (6, "1N3,2N1", 93, 1172, 987, "93fa3a8cf72aaa42ca3d1ec3794c7f3171ccf58db1933a5365435e9e5a61280e"),
        (7, "1N3,2N1", 552, 11111, 10008, "9214c02ec5f120964e3851a1d82200222fb497e54ae0b9363da4eab635cef400"),
    ],
)
def test_fixed_points(n, rules, classes, visited, pruned, sha256):
    """Class count, node counters and the code-string stream of four runs."""
    hits, stats = run_search(SearchConfig(n=n, rules=core.parse_rules(rules)))
    assert (len(hits), stats.nodes_visited, stats.nodes_pruned) == (classes, visited, pruned)
    stream = "".join(h.code_string + "\n" for h in hits)
    assert hashlib.sha256(stream.encode()).hexdigest() == sha256


def test_extend_rows_pattern_bits_match_restrict():
    """Each live slot holds 1 << the index of the row's pattern; the padding reads 0."""
    for n in range(3, 7):
        pd, pat = domain.root_rows(n)
        assert pat.shape[1] % 8 == 0 and comb(n, 3) <= pat.shape[1] < comb(n, 3) + 8
        for m in range(2, n):
            pd, pat = domain.extend_rows(pd, pat, m)
            live = comb(m + 1, 3)
            for order, bits in zip(pd.tolist(), pat.tolist()):
                want = [
                    1 << core.ALL_PATTERNS.index(core.restrict(order, core.triple_at(s, m + 1)))
                    for s in range(live)
                ]
                assert bits == want + [0] * (pat.shape[1] - live)
            columns = pat.T.tolist()
            assert domain.pattern_sets(pat).tolist() == [sum(set(column)) for column in columns]


def test_cover_is_the_exact_mask_on_completed_slots():
    """On a completed slot the bits are a subset of SAT[c]; cover holds only for all of SAT[c]."""
    for size in range(1, 7):
        for rules in combinations(core.ALL_CONDITIONS, size):
            cover = search._Engine(SearchConfig(n=4, rules=rules)).cover
            for c in rules:
                sat = int(domain.SAT[c])
                subsets = [b for b in range(64) if b & sat == b]
                assert len(subsets) == 16
                assert [bool(cover[b]) for b in subsets] == [b == sat for b in subsets]


def test_each_condition_allows_both_orders_of_every_pair():
    for code, mask in core.SAT_MASKS.items():
        allowed = [p for i, p in enumerate(core.ALL_PATTERNS) if mask >> i & 1]
        assert len(allowed) == 4
        for x, y in combinations((1, 2, 3), 2):
            assert {p.index(x) < p.index(y) for p in allowed} == {True, False}, code


def test_extension_below_a_feasible_block_boundary_shows_every_pattern():
    """Rows that cover every completed slot extend to all six patterns on
    every new slot, so a support extension needs no check of its own."""
    cases = [(rules, 6) for rules in [(3, 4), (2, 5), (2, 3)] + [(c,) for c in ALL_SIX]]
    cases.append((ALL_SIX, 5))
    for rules, n in cases:
        cover = search._Engine(SearchConfig(n=n, rules=rules)).cover
        for m in range(3, n):
            passing = 0
            for codes in product(rules, repeat=comb(m, 3)):
                _, pd, pat = domain.replay(n, bytes(codes))
                if not cover[domain.pattern_sets(pat)[: comb(m, 3)]].all():
                    continue
                passing += 1
                _, patn = domain.extend_rows(pd, pat, m)
                assert (domain.pattern_sets(patn)[comb(m, 3) : comb(m + 1, 3)] == 63).all()
            assert passing


def test_interior_children_build_no_assignment(monkeypatch):
    """Only the last-slot gate and the hits build an Assignment; the
    screen of every other child runs on the engine's codes."""
    built, gated = [], []
    init, gate = Assignment.__init__, search.is_canonical_complete

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_gate(*args):
        gated.append(1)
        return gate(*args)

    monkeypatch.setattr(Assignment, "__init__", counting_init)
    monkeypatch.setattr(search, "is_canonical_complete", counting_gate)
    hits, stats = run_search(SearchConfig(n=6, rules=core.parse_rules("1N3,3N1")))
    assert len(hits) == stats.leaves_emitted == 559
    assert 0 < len(built) <= len(gated) + stats.leaves_emitted < stats.nodes_visited


def test_runs_are_deterministic():
    cfg = SearchConfig(n=5, rules=(3, 4))
    first, _ = run_search(cfg)
    second, _ = run_search(cfg)
    assert codes_of(first) == codes_of(second)
    assert [h.domain.orders for h in first] == [h.domain.orders for h in second]


def test_emission_is_ascending_lex():
    hits, _ = run_search(SearchConfig(n=4, rules=ALL_SIX))
    strings = codes_of(hits)
    assert strings == sorted(strings)
    assert len(set(strings)) == len(strings)


def test_hits_expose_true_expansions():
    hits, _ = run_search(SearchConfig(n=5, rules=(2, 5)))
    for h in hits:
        assert h.domain == domain.expand(h.assignment)
        assert h.domain.source == h.assignment
        assert domain.is_copious(h.domain)


def test_emitted_prefixes_pass_partial_test():
    """Every prefix of an emitted leaf must itself survive the screen, or
    partitioned runs could not find it again."""
    hits, _ = run_search(SearchConfig(n=4, rules=ALL_SIX))
    slots = 4
    for h in hits:
        for k in range(1, slots + 1):
            partial = Assignment(4, h.assignment.codes[:k] + bytes(slots - k))
            assert iso.is_partially_lex_max(partial, ALL_SIX)


def test_prefix_partition_reassembles_full_run():
    cfg = SearchConfig(n=4, rules=ALL_SIX)
    full, _ = run_search(cfg)
    merged = []
    for code in ALL_SIX:
        try:
            part, _ = run_search(cfg, prefix=bytes([code]))
        except ValueError:
            continue  # a pruned branch contributes nothing to the full run
        merged.extend(part)
    assert codes_of(merged) == codes_of(full)


def test_resume_accepts_assignment_prefix():
    cfg = SearchConfig(n=5, rules=(3, 4))
    full, _ = run_search(cfg)
    want = [h for h in full if h.code_string.startswith("44")]
    prefix = Assignment.from_string("44" + "0" * 8, 5)
    got, _ = run_search(cfg, prefix=prefix.codes[: prefix.assigned_count])
    assert codes_of(got) == codes_of(want)
    assert codes_of(run_search(cfg, prefix="44")[0]) == codes_of(want)


def test_resume_rejects_bad_prefixes():
    cfg = SearchConfig(n=5, rules=(3, 4))
    with pytest.raises(ValueError):
        resume(cfg, "42", lambda h: None)  # 2 is outside the rules
    with pytest.raises(ValueError):
        resume(cfg, "4" * 11, lambda h: None)  # longer than the slot count
    # 2N3 on (1, 3, 4) only: the open slots before it read as code 0
    with pytest.raises(ValueError, match="prefix code 0 is outside the rule set 2N1,2N3"):
        resume(cfg, "0040000000", lambda h: None)
    # a dominated prefix: once the support is full, 1N2 everywhere loses to
    # its own relabelings, and a full run would never enter that subtree
    with pytest.raises(ValueError):
        resume(SearchConfig(n=4, rules=ALL_SIX), "1111", lambda h: None)
    for text in ("4x", "4 4"):
        with pytest.raises(ValueError, match=f"prefix '{text}' must be a string of condition digits"):
            resume(cfg, text, lambda h: None)
    with pytest.raises(ValueError, match="prefix code 9 is outside the rule set 2N1,2N3"):
        resume(cfg, "49", lambda h: None)


def test_resume_on_a_complete_prefix():
    """A complete prefix reaches the leaf without rec's per-child checks, so
    _Engine.run's all-slot cover check decides whether its domain exists."""
    cfg = SearchConfig(n=5, rules=(3, 4))
    full, _ = run_search(cfg)
    assert len(full) == 36
    for hit in full:
        got, _ = run_search(cfg, prefix=hit.code_string)
        assert codes_of(got) == [hit.code_string]
        assert got[0].domain == hit.domain
    # not dominated, but no domain has four patterns on every triple
    out = []
    stats = resume(cfg, "3333343333", out.append)
    assert out == []
    assert (stats.nodes_visited, stats.nodes_pruned) == (1, 1)


def test_resume_counts_the_root_of_an_infeasible_prefix():
    """The prefix replay runs no dead-extension check: rec visits the root
    and its feasibility check prunes both children."""
    out = []
    stats = resume(SearchConfig(n=5, rules=(2, 5)), "22252", out.append)
    assert out == []
    assert (stats.nodes_visited, stats.nodes_pruned, stats.leaves_emitted) == (1, 2, 0)


def test_resume_counts_one_prune_per_rule_below_an_infeasible_block_boundary():
    """A prefix that ends at C(4,3) has its support extended, then each
    child fails the feasibility check, as after a mid-block prefix."""
    cfg = SearchConfig(n=5, rules=(2, 5))
    assert not [c for c in codes_of(run_search(cfg)[0]) if c.startswith("2225")]
    out = []
    stats = resume(cfg, "2225", out.append)
    assert out == []
    assert (stats.nodes_visited, stats.nodes_pruned, stats.leaves_emitted) == (1, 2, 0)


def test_every_accepted_short_prefix_resumes_to_its_slice_of_the_full_run():
    """Each prefix of length <= 5 that resume accepts emits exactly the full
    run's hits that start with it, and counts at least its root."""
    cfg = SearchConfig(n=5, rules=(2, 5))
    full = codes_of(run_search(cfg)[0])
    accepted = 0
    for length in range(6):
        for codes in product("25", repeat=length):
            prefix = "".join(codes)
            try:
                got, stats = run_search(cfg, prefix=prefix)
            except ValueError:
                continue
            accepted += 1
            assert codes_of(got) == [c for c in full if c.startswith(prefix)], prefix
            assert stats.nodes_visited >= 1
    assert accepted == 62


def test_resume_on_undominated_low_prefix():
    # with a pair of rules and open support nothing is dominated yet, so the
    # lower code is a legitimate subtree even though most leaves fail the
    # exact gate; here it holds exactly the single-dipped class
    cfg = SearchConfig(n=5, rules=(3, 4))
    full, _ = run_search(cfg)
    want = [h for h in full if h.code_string.startswith("3")]
    got, _ = run_search(cfg, prefix="3")
    assert codes_of(got) == codes_of(want)
    assert "3333333333" in codes_of(got)


def test_resume_with_empty_prefix_is_a_full_run():
    cfg = SearchConfig(n=4, rules=(2, 3))
    full, _ = run_search(cfg)
    out = []
    resume(cfg, "", out.append)
    assert [h.code_string for h in out] == codes_of(full)


def test_leaves_never_exceed_nodes():
    for rules in [(3, 4), (2, 5), ALL_SIX]:
        _, stats = run_search(SearchConfig(n=4, rules=rules))
        assert stats.leaves_emitted <= stats.nodes_visited


def test_hit_domains_are_never_tiny():
    # four patterns on the first triple already force at least four orders
    for n in (4, 5):
        hits, _ = run_search(SearchConfig(n=n, rules=(3, 4)))
        assert all(len(h.domain) >= 4 for h in hits)


def test_parallel_run_matches_serial():
    serial_cfg = SearchConfig(n=5, rules=(2, 3))
    parallel_cfg = SearchConfig(n=5, rules=(2, 3), thread_count=2)
    serial, s_stats = run_search(serial_cfg)
    parallel, p_stats = run_search(parallel_cfg)
    assert codes_of(serial) == codes_of(parallel)
    assert [h.domain.orders for h in serial] == [h.domain.orders for h in parallel]
    assert s_stats.leaves_emitted == p_stats.leaves_emitted
    # the scout does not count the nodes it hands to the workers
    assert s_stats.nodes_visited == p_stats.nodes_visited
    assert s_stats.nodes_pruned == p_stats.nodes_pruned


@pytest.fixture
def in_process_pool(monkeypatch):
    """An in-process stand-in for the worker pool on a 2-CPU machine, so no
    process starts; returns the max_workers of every pool made."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    return sizes


def test_worker_pool_is_capped_at_the_cpu_count(in_process_pool):
    """--threads above the CPU count starts no more workers than there are CPUs."""
    serial, s_stats = run_search(SearchConfig(n=5, rules=(2, 3)))
    capped, c_stats = run_search(SearchConfig(n=5, rules=(2, 3), thread_count=64))
    assert in_process_pool == [2]
    assert codes_of(capped) == codes_of(serial)
    assert [h.domain.orders for h in capped] == [h.domain.orders for h in serial]
    assert (c_stats.nodes_visited, c_stats.nodes_pruned, c_stats.leaves_emitted) == (
        s_stats.nodes_visited, s_stats.nodes_pruned, s_stats.leaves_emitted,
    )


def test_hits_build_a_domain_only_when_it_is_read(monkeypatch, in_process_pool):
    built = []
    init = domain.Domain.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(domain.Domain, "__init__", counting_init)
    for threads in (1, 2):
        seen = []
        cfg = SearchConfig(n=5, rules=(2, 3), thread_count=threads)
        generate(cfg, lambda hit: seen.append((hit.code_string, len(hit.rows))))
        assert len(seen) == 19
    assert in_process_pool == [2]
    assert built == []
    hits, _ = run_search(SearchConfig(n=5, rules=(2, 3)))
    assert all(h.domain is h.domain and len(h.domain) == len(h.rows) for h in hits)
    assert len(built) == len(hits)


def test_hits_compare_and_hash_by_assignment():
    cfg = SearchConfig(n=5, rules=(3, 4))
    first, _ = run_search(cfg)
    second, _ = run_search(cfg)
    assert first == second
    assert [hash(h) for h in first] == [hash(h) for h in second]
    assert all(a.rows is not b.rows for a, b in zip(first, second))
    assert len(set(first) | set(second)) == len(first)


def test_hits_survive_pickling():
    hits, _ = run_search(SearchConfig(n=5, rules=(2, 5)))
    for i, hit in enumerate(hits):
        if i % 2:
            hit.domain  # a hit whose domain was read pickles it too
        back = pickle.loads(pickle.dumps(hit))
        assert back == hit
        assert back.code_string == hit.code_string
        assert back.domain == hit.domain
        assert back.domain.source == hit.assignment


def test_pairwise_non_isomorphic():
    hits, _ = run_search(SearchConfig(n=4, rules=(2, 5)))
    seen = set()
    for h in hits:
        orbit = set()
        for g in permutations(range(1, 5)):
            img = oracle._relabeled(h.assignment.codes, 4, g, frozenset((2, 5)))
            if img is not None:
                orbit.add(img)
        assert not (orbit & seen)
        seen |= orbit


def test_huge_acting_set_is_refused():
    # all six conditions act by all of S_9: the canonicity tables would
    # take gigabytes, so the search stops with an error instead
    with pytest.raises(ValueError, match="acting relabelings"):
        generate(SearchConfig(n=9, rules=ALL_SIX), lambda hit: None)


def test_stats_shape():
    hits, stats = run_search(SearchConfig(n=4, rules=(3, 4)))
    assert isinstance(stats, SearchStats)
    assert stats.leaves_emitted == len(hits)
    assert stats.nodes_visited > 0
    assert stats.wall_time > 0.0


def test_generate_streams_to_sink():
    out = []
    stats = generate(SearchConfig(n=4, rules=(3, 4)), out.append)
    assert stats.leaves_emitted == len(out) == 5
