"""Per-layer spans for cdgen, recorded from outside the package.

Each hook replaces one callee by the name its caller looks it up with (a
module global such as ``search.is_partially_lex_max``, or a class
attribute such as ``Domain.__init__``), so every call through that name
opens a span.  Spans are kept in memory as (id, parent id, kind, start,
end); the self time of a span is its duration less the time of the spans
it caused.  ``Assignment.__init__`` runs hundreds of thousands of times per
run, so it only adds to counters and to its caller's child time.

A span's kind is ``<layer>.<what>``.  The hooks reach private names of the
search engine (``_Engine._extend``, ``_generate_parallel``,
``_subtree_worker``, ``_emit_payload``); a hook whose target no longer
exists is skipped and listed in ``Tracer.missing``, and the metrics that
depend on it are left out of the report instead of being wrong.

Parallel runs: the pool class the engine looks up is replaced by one that
reads the timing and counters each worker attaches to its result.  Worker
spans are not shipped back; their counts and times are added to the
per-kind totals (``remote_*``) but not to the client's self times, which
split the client's own wall time.
"""

from __future__ import annotations

import importlib
import resource
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "search", "iso", "lexcode", "domain", "parallel")


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class WorkerResult(tuple):
    """A worker's (payload, stats) pair carrying its time and counters."""


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.remote_calls: Counter = Counter()
        self.remote_total_s: Counter = Counter()
        self.worker_s: list[float] = []
        self.missing: set[str] = set()
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget everything recorded; the hooks keep working."""
        for store in (self.spans, self.worker_s, self._stack):
            store.clear()
        for counter in (self.calls, self.total_s, self.self_s, self.counts,
                        self.remote_calls, self.remote_total_s):
            counter.clear()

    # -- spans ------------------------------------------------------------

    def wrap(self, kind, fn, classify=None, observe=None):
        """``fn`` recording one span per call; ``classify(args)`` may pick the kind."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            k = classify(args) if classify else kind
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[k] += 1
                self.total_s[k] += elapsed
                self.self_s[k] += elapsed - frame[1]
                spans.append((span_id, parent, k, start, end))
            if observe:
                observe(self.counts, k, result)
            return result

        return traced

    def count(self, kind, fn):
        """``fn`` adding to counters only: no span, no traced children."""
        stack = self._stack

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[kind] += 1
                self.total_s[kind] += elapsed
                self.self_s[kind] += elapsed

        return counted

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        global _ACTIVE, _WORKER
        for owner_path, attr, make in _hooks(self):
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.add(f"{owner_path}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, make(original))
            if attr == "_subtree_worker":
                _ACTIVE, _WORKER = self, original

    def uninstall(self) -> None:
        global _ACTIVE, _WORKER
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        _ACTIVE = _WORKER = None

    def add_worker_result(self, result: WorkerResult) -> None:
        self.worker_s.append(result.worker_s)
        self.remote_calls.update(result.calls)
        self.remote_total_s.update(result.total_s)
        self.counts.update(result.counts)


# The tracer and original worker function, for the worker processes the
# pool forks while hooks are installed.
_ACTIVE: Tracer | None = None
_WORKER = None


def traced_subtree_worker(job):
    """Stand-in for ``search._subtree_worker`` run inside a pool worker."""
    tracer, worker = _ACTIVE, _WORKER
    if tracer is None:  # a worker that did not inherit the hooks
        from cdgen import search

        worker = search._subtree_worker
    else:
        tracer.reset()
    start = perf_counter()
    result = WorkerResult(worker(job))
    result.worker_s = perf_counter() - start
    result.calls, result.total_s, result.counts = (
        (dict(tracer.calls), dict(tracer.total_s), dict(tracer.counts)) if tracer else ({}, {}, {})
    )
    return result


def _observe_search(counts, kind, stats):
    counts["search.nodes"] += stats.nodes_visited
    counts["search.pruned"] += stats.nodes_pruned
    counts["search.leaves"] += stats.leaves_emitted


def _observe_rejects(counts, kind, passed):
    counts[f"{kind}.rejected"] += not passed


def _observe_gate(counts, kind, passed):
    counts["iso.gate.passed"] += bool(passed)


def _observe_expand(counts, kind, domain):
    counts["domain.orders_out"] += len(domain)


def _partial_kind(args):
    return "iso.partial" if 0 in args[0].codes else "iso.partial_full"


def _hooks(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every hook.

    The owner is ``module`` or ``module:Class``; the attribute is the name
    the caller looks the callee up by.
    """
    wrap = tracer.wrap
    started = [0.0]  # when the current parallel run began

    def parallel_run(fn):
        traced = wrap("parallel.run", fn)

        def run(*args, **kwargs):
            cpu, started[0] = cpu_seconds(), perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.counts["parallel.cpu_s"] += cpu_seconds() - cpu
                tracer.counts["parallel.wall_s"] += perf_counter() - started[0]

        return run

    def pool(cls):
        class TracedPool(cls):
            def __init__(self, *args, **kwargs):
                tracer.counts["parallel.scout_s"] += perf_counter() - started[0]
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                for result in super().map(fn, *iterables, **kwargs):
                    tracer.counts["parallel.jobs"] += 1
                    if isinstance(result, WorkerResult):
                        tracer.add_worker_result(result)
                    yield result

        return TracedPool

    return [
        ("cdgen.cli", "generate", lambda fn: wrap("search.generate", fn, observe=_observe_search)),
        ("cdgen.cli", "resume", lambda fn: wrap("search.resume", fn, observe=_observe_search)),
        ("cdgen.cli", "read_assignments", lambda fn: wrap("lexcode.read", fn)),
        ("cdgen.cli", "histogram", lambda fn: wrap("domain.histogram", fn)),
        ("cdgen.domain", "expand", lambda fn: wrap("domain.expand", fn, observe=_observe_expand)),
        ("cdgen.domain:Domain", "__init__", lambda fn: wrap("domain.materialize", fn)),
        ("cdgen.lexcode:Assignment", "__init__", lambda fn: tracer.count("lexcode.assignment", fn)),
        ("cdgen.search", "is_partially_lex_max",
         lambda fn: wrap("iso.partial", fn, classify=_partial_kind, observe=_observe_rejects)),
        ("cdgen.search", "is_canonical_complete", lambda fn: wrap("iso.gate", fn, observe=_observe_gate)),
        ("cdgen.search:_Engine", "_extend", lambda fn: wrap("search.extend", fn)),
        ("cdgen.search", "_generate_parallel", parallel_run),
        ("cdgen.search", "_emit_payload", lambda fn: wrap("parallel.merge", fn)),
        ("cdgen.search", "_subtree_worker", lambda fn: traced_subtree_worker),
        ("cdgen.search", "ProcessPoolExecutor", pool),
    ]


# Metric -> hooks it needs, by the names Tracer.missing records.
NEEDS = {
    "search.": ["cdgen.cli.generate", "cdgen.cli.resume"],
    "search.extend": ["cdgen.search:_Engine._extend"],
    "iso.partial": ["cdgen.search.is_partially_lex_max"],
    "iso.gate": ["cdgen.search.is_canonical_complete"],
    "lexcode.assignment": ["cdgen.lexcode:Assignment.__init__"],
    "lexcode.read": ["cdgen.cli.read_assignments"],
    "domain.materialize": ["cdgen.domain:Domain.__init__"],
    "domain.expand": ["cdgen.domain.expand"],
    "domain.orders_out": ["cdgen.domain.expand"],
    "parallel.scout_s": ["cdgen.search._generate_parallel", "cdgen.search.ProcessPoolExecutor"],
    "parallel.jobs": ["cdgen.search.ProcessPoolExecutor"],
    "parallel.worker": ["cdgen.search._subtree_worker", "cdgen.search.ProcessPoolExecutor"],
    "parallel.merge_s": ["cdgen.search._emit_payload"],
    "parallel.cpu_util": ["cdgen.search._generate_parallel"],
}


def layer_metrics(tracer: Tracer, passes: int, wall_s: float, nproc: int) -> dict[str, tuple[float, str]]:
    """Per-pass means of the per-layer metrics, as name -> (value, unit).

    ``wall_s`` is the mean traced pass time; the layers' self times plus
    ``trace.unattributed_s`` add up to it.
    """
    calls = tracer.calls + tracer.remote_calls
    total = tracer.total_s + tracer.remote_total_s
    c = tracer.counts

    def per_pass(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    partial_calls = calls["iso.partial"] + calls["iso.partial_full"]
    rejected = c["iso.partial.rejected"] + c["iso.partial_full.rejected"]
    search_s = total["search.generate"] + total["search.resume"]
    par_wall = c["parallel.wall_s"]
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for kind, seconds in tracer.self_s.items():
        self_by_layer[kind.split(".")[0]] += seconds
    metrics = {f"{layer}.self_s": (per_pass(s), "s") for layer, s in self_by_layer.items()}
    metrics.update({
        "trace.wall_s": (wall_s, "s"),
        "trace.unattributed_s": (wall_s - per_pass(sum(self_by_layer.values())), "s"),
        "search.nodes": (per_pass(c["search.nodes"]), "count"),
        "search.pruned": (per_pass(c["search.pruned"]), "count"),
        "search.leaves": (per_pass(c["search.leaves"]), "count"),
        "search.nodes_per_s": (ratio(c["search.nodes"], search_s), "1/s"),
        "search.extend_calls": (per_pass(calls["search.extend"]), "count"),
        "search.extend_s": (per_pass(total["search.extend"]), "s"),
        "iso.partial_calls": (per_pass(partial_calls), "count"),
        "iso.partial_s": (per_pass(total["iso.partial"] + total["iso.partial_full"]), "s"),
        "iso.partial_reject_ratio": (ratio(rejected, partial_calls), "ratio"),
        "iso.partial_full_calls": (per_pass(calls["iso.partial_full"]), "count"),
        "iso.partial_full_s": (per_pass(total["iso.partial_full"]), "s"),
        "iso.gate_calls": (per_pass(calls["iso.gate"]), "count"),
        "iso.gate_s": (per_pass(total["iso.gate"]), "s"),
        "iso.gate_pass_ratio": (ratio(c["iso.gate.passed"], calls["iso.gate"]), "ratio"),
        "lexcode.assignment_calls": (per_pass(calls["lexcode.assignment"]), "count"),
        "lexcode.assignment_s": (per_pass(total["lexcode.assignment"]), "s"),
        "lexcode.read_calls": (per_pass(calls["lexcode.read"]), "count"),
        "lexcode.read_s": (per_pass(total["lexcode.read"]), "s"),
        "domain.materialize_calls": (per_pass(calls["domain.materialize"]), "count"),
        "domain.materialize_s": (per_pass(total["domain.materialize"]), "s"),
        "domain.expand_calls": (per_pass(calls["domain.expand"]), "count"),
        "domain.expand_s": (per_pass(total["domain.expand"]), "s"),
        "domain.orders_out": (per_pass(c["domain.orders_out"]), "count"),
        "parallel.scout_s": (per_pass(c["parallel.scout_s"]), "s"),
        "parallel.jobs": (per_pass(c["parallel.jobs"]), "count"),
        "parallel.worker_s_sum": (per_pass(sum(tracer.worker_s)), "s"),
        "parallel.worker_s_max": (max(tracer.worker_s, default=0.0), "s"),
        "parallel.merge_s": (per_pass(total["parallel.merge"]), "s"),
        "parallel.cpu_util": (ratio(c["parallel.cpu_s"], par_wall * nproc), "ratio"),
    })
    for name in list(metrics):
        for prefix, hooks in NEEDS.items():
            if name.startswith(prefix) and not name.endswith("self_s") and tracer.missing.intersection(hooks):
                del metrics[name]
                break
    return metrics
