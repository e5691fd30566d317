"""Orderly generation of canonical complete condition sets, a level at a time.

The search walks triple slots in co-lex order while carrying, for each
node, its partial domain: the orders of 1..m (m = largest alternative
seen so far) that satisfy every condition assigned yet, as a numpy matrix
with one row per order and, alongside it, the pattern bits of each row on
every slot (one bit per pattern on in-support slots, 0 beyond them; C(n,3)
columns padded to a multiple of 8, see :mod:`cdgen.domain`).  A search
starts from :func:`cdgen.domain.replay` of its code prefix, the one walk
from codes to rows: empty for a full run, the ``--prefix`` of a
partitioned run, or the subtree prefix a pool worker is handed.

The engine expands a whole frontier level with a fixed set of numpy
calls, whatever its width.  A level holds the code prefixes of its F
nodes as an (F, k) matrix and the rows of all of them concatenated, each
row tagged with the index of its node.  When the slot index k reaches
C(m, 3) the support grows by one alternative through
:func:`cdgen.domain.extend_rows`, the row extension the replay uses: each
row spawns m+1 rows by inserting the newcomer at every position, which
leaves patterns on old slots untouched.  Between two extensions a child
only drops rows, so a level holds row indices into the matrices of the
last extension rather than copies of the rows.  The children of a level
are gathered in (node, code) order, so the next level, and the stream of
hits, stay in ascending code-string order.

Memory is bounded by ROW_BUDGET: a level whose rows, after any support
extension, would exceed it is split into two halves of its nodes, and the
first half's subtrees are searched to the end before the second's.  A
single node is never split.

Pruning is twofold.  First, pattern-mask feasibility: for each child, the
OR of its rows' pattern bits, taken over uint64 words with one reduceat
over the whole level, must cover some rule's four-pattern set on every
in-support slot, otherwise no completion expands to a domain with four
patterns on every triple.  On a completed slot the bits are a subset of
its condition's four, and the six four-pattern sets are distinct, so
there the check holds exactly when all four patterns the condition allows
are retained.  Each such set holds both orders of every pair, so a
support extension of a passing child shows all six patterns on every new
slot and needs no check.  Second, canonicity: one :func:`cdgen.iso.dominated`
call over the codes of every feasible child, at every depth.  For a child
that fills the last slot this is the exact test, so each leaf is decided
once.  At a surviving leaf the carried rows ARE the expanded domain; the
hit holds those int8 rows.

Counting stays per node: a level adds its width to ``nodes_visited`` and
each child that fails a check adds one to ``nodes_pruned``, so the
counters do not depend on how levels are split.

Both canonicity tests run over the acting set of the rule set (see
:mod:`cdgen.iso`), which is tiny for the standard rule pairs; rule sets
whose acting set exceeds iso.ACTING_CAP relabelings (all six conditions,
or 1N3,2N3, from n=9 on) are refused with ValueError.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import comb
from time import perf_counter

import numpy as np

from . import core
from .domain import SAT, Domain, extend_rows, pattern_sets, replay
from .iso import acting_tables, dominated, is_canonical_complete, is_partially_lex_max
from .lexcode import Assignment

# Most rows one frontier level holds; a larger level is split in node order
# and each half searched in turn, so hits still stream in code order.
ROW_BUDGET = 1 << 13


@dataclass(frozen=True)
class SearchConfig:
    n: int
    rules: tuple[int, ...]
    thread_count: int = 1

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 alternatives")
        object.__setattr__(self, "rules", core.check_rules(self.rules))
        if self.thread_count < 1:
            raise ValueError("thread_count must be positive")


@dataclass
class SearchStats:
    nodes_visited: int = 0
    nodes_pruned: int = 0
    leaves_emitted: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class SearchHit:
    """A canonical assignment and its orders as int8 rows; equal by assignment."""

    assignment: Assignment
    rows: np.ndarray = field(compare=False)

    @property
    def code_string(self) -> str:
        return self.assignment.encode()

    @cached_property
    def domain(self) -> Domain:
        return Domain(self.assignment.n, self.rows.tolist(), source=self.assignment)


class _Engine:
    """Searches the subtree under the prefix given to run, a frontier level at a time."""

    def __init__(self, cfg: SearchConfig):
        self.n = cfg.n
        self.rules = cfg.rules
        self.slots = comb(cfg.n, 3)
        self.stats = SearchStats()
        self.sink = None
        self.collect_at: int | None = None
        self.collected: list[bytes] = []
        self.tables = acting_tables(cfg.n, cfg.rules)
        self.rule_codes = np.array(cfg.rules, dtype=np.uint8)
        self.cover = np.array(
            [
                any(mask & core.SAT_MASKS[c] == core.SAT_MASKS[c] for c in self.rules)
                for mask in range(64)
            ]
        )

    def root_state(self):
        # kept only for perfbench/build_goldens.py, which calls rec(*root_state())
        return (b"", None)

    def run(self, prefix: bytes, sink) -> SearchStats:
        """Search the subtree under a code prefix, calling sink once per hit."""
        self.sink = sink
        m, pd, pat = replay(self.n, prefix)
        if len(prefix) == self.slots and not self.cover[pattern_sets(pat)[: self.slots]].all():
            # _children checks feasibility in the child that fills the last slot; a complete prefix skipped it
            self.stats.nodes_visited += 1
            self.stats.nodes_pruned += 1
            return self.stats
        codes = np.frombuffer(prefix, dtype=np.uint8).reshape(1, -1)
        rows = np.arange(len(pd), dtype=np.int32)
        self._level(len(prefix), m, codes, pd, pat, rows, np.zeros(len(pd), dtype=np.int32))
        return self.stats

    rec = run  # kept only for perfbench/build_goldens.py

    def _extend(self, pd, pat, m):
        # a method only because perfbench/tracer.py hooks it and test_bench_contract needs the call
        return extend_rows(pd, pat, m)

    def _level(self, k, m, codes, pd, pat, rows, owner):
        """Search the subtrees of a frontier at depth k, in order, one level a step.

        codes holds one node's code prefix per row.  pd and pat are the
        orders and pattern bits as of the last support extension, and the
        frontier keeps their rows ``rows``, those of node i where owner == i:
        below an extension a child only drops rows, so no level copies them.
        """
        while len(codes):
            if k == self.collect_at:
                # a scout hands these nodes to workers, which count them
                self.collected.extend(row.tobytes() for row in codes)
                return
            width = len(codes)
            grow = m < self.n and k == comb(m, 3)
            if width > 1 and len(rows) * (m + 1 if grow else 1) > ROW_BUDGET:
                half = width // 2
                cut = np.searchsorted(owner, half)
                self._level(k, m, codes[:half], pd, pat, rows[:cut], owner[:cut])
                self._level(k, m, codes[half:], pd, pat, rows[cut:], owner[cut:] - half)
                return
            self.stats.nodes_visited += width
            if grow:
                pd, pat = self._extend(np.take(pd, rows, axis=0), np.take(pat, rows, axis=0), m)
                rows = np.arange(len(pd), dtype=np.int32)
                owner = np.repeat(owner, m + 1)
                m += 1
            if k == self.slots:
                # feasibility and canonicity were checked one level up, or in run and resume
                self.stats.leaves_emitted += width
                starts = np.searchsorted(owner, np.arange(width + 1))
                for i, row in enumerate(codes):
                    hit_rows = pd[rows[starts[i] : starts[i + 1]]]
                    self.sink(SearchHit(Assignment(self.n, row.tobytes()), hit_rows))
                return
            codes, rows, owner = self._children(k, m, codes, pat, rows, owner)
            k += 1

    def _children(self, k, m, codes, pat, rows, owner):
        """The frontier at depth k + 1: every child that passes both checks,
        in (parent, code) order, with the rows it keeps."""
        width, fan = len(codes), len(self.rules)
        at, child, ok = self._feasible(k, m, pat, rows, owner, width * fan)
        children = np.empty((width * fan, k + 1), dtype=np.uint8)
        children[:, :k] = np.repeat(codes, fan, axis=0)
        children[:, k] = np.tile(self.rule_codes, width)
        ok[ok] = ~dominated(children[ok], self.tables)
        self.stats.nodes_pruned += len(ok) - np.count_nonzero(ok)
        keep = ok[child]
        rank = np.cumsum(ok, dtype=np.int32) - 1
        return children[ok], rows[at[keep]], rank[child[keep]]

    def _feasible(self, k, m, pat, rows, owner, count):
        """The cover check of all ``count`` children of a level.

        Returns the children's rows as positions ``at`` into ``rows``, in
        child order, each with its child ``i * len(rules) + j``, and
        whether each child passes.  Child j of node i keeps the rows of
        node i whose pattern on slot k rule j allows.
        """
        rule, at = np.nonzero((pat[rows, k] & SAT[self.rule_codes][:, None]) != 0)
        child = owner[at] * len(self.rules)
        child += rule  # in place, so the sort keys stay int32
        # index arrays go as soon as they are used up: with the gathered words they set a level's peak memory
        del rule
        order = np.argsort(child, kind="stable")
        at, child = at[order], child[order]
        del order
        starts = np.searchsorted(child, np.arange(count + 1))
        ok = starts[:-1] < starts[1:]
        live = comb(m, 3)
        # np.take gathers whole rows several times faster than fancy indexing
        words = np.take(pat.view(np.uint64), rows[at], axis=0)[:, : -(-live // 8)]
        shown = np.bitwise_or.reduceat(words, starts[:-1][ok])
        ok[ok] = self.cover[shown.view(np.uint8)[:, :live]].all(axis=1)
        return at, child, ok


def _subtree_worker(job):
    cfg, prefix = job
    payload = []
    s = _Engine(cfg).run(prefix, payload.append)
    return payload, (s.nodes_visited, s.nodes_pruned, s.leaves_emitted)


def _emit_payload(payload, sink):
    for hit in payload:
        sink(hit)


def _generate_parallel(cfg: SearchConfig, sink, workers: int) -> SearchStats:
    scout = _Engine(cfg)
    target = 4 * workers
    depth = 1
    while True:
        scout.collect_at = depth
        scout.collected = []
        scout.stats = SearchStats()
        scout.run(b"", None)
        if len(scout.collected) >= target or depth >= scout.slots or not scout.collected:
            break
        depth += 1
    stats = scout.stats
    worker_cfg = replace(cfg, thread_count=1)
    jobs = [(worker_cfg, prefix) for prefix in scout.collected]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for payload, (visited, pruned, emitted) in pool.map(_subtree_worker, jobs):
            _emit_payload(payload, sink)
            stats.nodes_visited += visited
            stats.nodes_pruned += pruned
            stats.leaves_emitted += emitted
    return stats


def generate(cfg: SearchConfig, sink) -> SearchStats:
    """Run the full search, calling sink(SearchHit) once per emitted class.

    Emission order with thread_count=1 is DFS order, which is ascending
    lexicographic order of the code-strings; parallel runs merge subtree
    outputs in the same order, so the stream is identical either way.
    """
    start = perf_counter()
    workers = min(cfg.thread_count, os.cpu_count() or 1)
    if workers == 1:
        stats = _Engine(cfg).run(b"", sink)
    else:
        stats = _generate_parallel(cfg, sink, workers)
    stats.wall_time = perf_counter() - start
    return stats


def resume(cfg: SearchConfig, prefix, sink) -> SearchStats:
    """Run only the subtree under a code prefix (for partitioned runs).

    The prefix is a digit string such as ``"4433"`` or the same codes as
    bytes, one per slot from slot 0 on.  It must use codes from the rule
    set and pass the partial lex-max test at every depth; a prefix that
    fails is rejected with ValueError since its subtree would never be
    reached by a full run.  Unions of runs over a partition of prefixes
    reproduce the full output exactly.
    """
    start = perf_counter()
    if isinstance(prefix, str):
        if not set(prefix.strip()) <= set("0123456789"):
            raise ValueError(f"prefix {prefix!r} must be a string of condition digits")
        codes = bytes(int(ch) for ch in prefix.strip())
    else:
        codes = bytes(prefix)
    slots = comb(cfg.n, 3)
    if len(codes) > slots:
        raise ValueError(f"prefix has {len(codes)} codes but n={cfg.n} has {slots} slots")
    for c in codes:
        if c not in cfg.rules:
            raise ValueError(f"prefix code {c} is outside the rule set {core.rules_token(cfg.rules)}")
    for depth in range(1, len(codes) + 1):
        partial = Assignment(cfg.n, codes[:depth] + bytes(slots - depth))
        # the same verdict at full length, under the name perfbench/tracer.py hooks
        test = is_canonical_complete if depth == slots else is_partially_lex_max
        if not test(partial, cfg.rules):
            raise ValueError(
                f"prefix {partial.encode()[:depth]} fails the partial lex-max test at depth {depth}"
            )
    stats = _Engine(cfg).run(codes, sink)
    stats.wall_time = perf_counter() - start
    return stats


def run_search(cfg: SearchConfig, prefix=None):
    """Convenience wrapper: collect hits into a list and return (hits, stats)."""
    hits: list[SearchHit] = []
    if prefix is None:
        stats = generate(cfg, hits.append)
    else:
        stats = resume(cfg, prefix, hits.append)
    return hits, stats
