"""Orderly depth-first generation of canonical complete condition sets.

The search walks triple slots in co-lex order while carrying the partial
domain: the orders of 1..m (m = largest alternative seen so far) that
satisfy every condition assigned yet, as a numpy matrix with one row per
order and, alongside it, the pattern bits of each row on every slot (one
bit per pattern on in-support slots, 0 beyond them; C(n,3) columns padded
to a multiple of 8, see :mod:`cdgen.domain`).  A search starts from
:func:`cdgen.domain.replay` of its code prefix, the one walk from codes to
rows: empty for a full run, the ``--prefix`` of a partitioned run, or the
subtree prefix a pool worker is handed.  When the slot index reaches
C(m, 3) the support grows by one alternative through
:func:`cdgen.domain.extend_rows`, the row extension the replay uses: each
row spawns m+1 rows by inserting the newcomer at every position, which
leaves patterns on old slots untouched.

Pruning is twofold.  First, pattern-mask feasibility, one check per
child: the OR of the surviving rows' pattern bits, taken over uint64
words, must cover some rule's four-pattern set on every in-support slot,
otherwise no completion expands to a domain with four patterns on every
triple.  On a completed slot the bits are a subset of its condition's
four, and the six four-pattern sets are distinct, so there the check
holds exactly when all four patterns the condition allows are retained.
Each such set holds both orders of every pair, so a support extension of
a passing child shows all six patterns on every new slot and needs no
check.  Second, canonicity: :func:`cdgen.iso.dominated` on the codes
buffer for a child that leaves slots open, and the exact gate for the
child that fills the last slot, so each leaf is decided once.  At a
surviving leaf the carried matrix IS the expanded domain; the hit holds
those int8 rows.

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
    """Single-subtree DFS; mutable codes buffer, immutable row matrices."""

    def __init__(self, cfg: SearchConfig):
        self.n = cfg.n
        self.rules = cfg.rules
        self.slots = comb(cfg.n, 3)
        self.stats = SearchStats()
        self.sink = None
        self.collect_at: int | None = None
        self.collected: list[bytes] = []
        self.codes = np.zeros(self.slots, dtype=np.uint8)
        self.tables = acting_tables(cfg.n, cfg.rules)
        self.cover = np.array(
            [
                any(mask & core.SAT_MASKS[c] == core.SAT_MASKS[c] for c in self.rules)
                for mask in range(64)
            ]
        )

    def root_state(self):
        # the rec arguments of a full run; perfbench/build_goldens.py calls this
        return (0, *replay(self.n, b""))

    def run(self, prefix: bytes, sink) -> SearchStats:
        """Search the subtree under a code prefix, calling sink once per hit."""
        self.sink = sink
        self.codes[: len(prefix)] = list(prefix)
        self.rec(len(prefix), *replay(self.n, prefix))
        return self.stats

    def _extend(self, pd, pat, m):
        # a method only because perfbench/tracer.py hooks it and test_bench_contract needs the call
        return extend_rows(pd, pat, m)

    def rec(self, k, m, pd, pat):
        if k == self.collect_at:
            # a scout hands this node to a worker, which counts it
            self.collected.append(self.codes[:k].tobytes())
            return
        self.stats.nodes_visited += 1
        if m < self.n and k == comb(m, 3):
            pd, pat = self._extend(pd, pat, m)
            m += 1
        if k == self.slots:
            self._leaf(pd, pat)
            return
        col = pat[:, k]
        live = comb(m, 3)
        for code in self.rules:
            sel = (col & SAT[code]) != 0
            pat2 = pat[sel]
            self.codes[k] = code
            if not self.cover[pattern_sets(pat2)[:live]].all():
                self.stats.nodes_pruned += 1
                continue
            if k + 1 == self.slots:
                # an Assignment, by this name: perfbench/tracer.py hooks it, test_bench_contract calls for it
                ok = is_canonical_complete(Assignment(self.n, self.codes.tobytes()), self.rules)
            else:
                ok = not dominated(self.codes[: k + 1], self.tables)
            if not ok:
                self.stats.nodes_pruned += 1
                continue
            self.rec(k + 1, m, pd[sel], pat2)
        self.codes[k] = 0

    def _leaf(self, pd, pat):
        # the exact gate has run: in rec's last child, or in resume on a complete prefix
        if not self.cover[pattern_sets(pat)[: self.slots]].all():
            self.stats.nodes_pruned += 1
            return
        self.stats.leaves_emitted += 1
        self.sink(SearchHit(Assignment(self.n, self.codes.tobytes()), pd))


def _subtree_worker(job):
    cfg, prefix = job
    payload = []
    s = _Engine(cfg).run(prefix, payload.append)
    return payload, (s.nodes_visited, s.nodes_pruned, s.leaves_emitted)


def _emit_payload(payload, sink):
    for hit in payload:
        sink(hit)


def _generate_parallel(cfg: SearchConfig, sink) -> SearchStats:
    scout = _Engine(cfg)
    workers = min(cfg.thread_count, os.cpu_count() or 1)
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
    if cfg.thread_count == 1:
        stats = _Engine(cfg).run(b"", sink)
    else:
        stats = _generate_parallel(cfg, sink)
    stats.wall_time = perf_counter() - start
    return stats


def resume(cfg: SearchConfig, prefix, sink) -> SearchStats:
    """Run only the subtree under a code prefix (for partitioned runs).

    The prefix must use codes from the rule set, fill a co-lex prefix of
    the slots, and pass the partial lex-max test at every depth; a prefix
    that fails is rejected with ValueError since its subtree would never
    be reached by a full run.  Unions of runs over a partition of prefixes
    reproduce the full output exactly.
    """
    start = perf_counter()
    if isinstance(prefix, Assignment):
        if prefix.n != cfg.n:
            raise ValueError(f"prefix is for n={prefix.n}, config wants n={cfg.n}")
        if not prefix.is_colex_prefix():
            raise ValueError("prefix assignment must fill a co-lex prefix of the slots")
        codes = bytes(prefix.codes[: prefix.assigned_count])
    elif isinstance(prefix, str):
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
        if not is_partially_lex_max(partial, cfg.rules):
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
