"""The benchmark's contract with cdgen: every name it reaches for still works.

``perfbench/tracer.py`` hooks cdgen callees by the names their callers
look them up with.  A hook whose target was renamed or removed drops the
metrics that depend on it from the benchmark's report, so one test runs
one small command of each kind the benchmark workloads issue through the
traced ``cli.main`` and checks that every per-layer metric is reported.
A hook that is installed but never called reads 0, so the test also
checks that the hooks the metrics rest on were called.

The benchmark's other entry points are checked here too: the setup
probes of ``perfbench/run.py``, which import cdgen in a fresh interpreter,
and ``perfbench/build_goldens.partition_prefixes``, which drives the search
engine's internals.  A change that breaks one of them fails these tests
rather than the benchmark run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from cdgen import cli

ROOT = Path(__file__).resolve().parents[1]
# perfbench/run.py adds these itself, from untraced passes and its own checks
ADDED_BY_RUNNER = {"trace.overhead_frac", "cli.bytes_out", "parallel.nodes_overcount"}


def test_tracer_reports_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    conds, orders, hist, stats, leaf = (tmp_path / name for name in ("c", "o", "h", "s", "l"))
    commands = [
        ["generate", "--n", "6", "--rules", "1N3,2N1", "--prefix", "3", "--out", str(conds)],
        # a complete prefix: resume's exact check is the one caller of the iso.gate hook
        ["generate", "--n", "6", "--rules", "1N3,2N1", "--prefix", "22222222222222223333",
         "--out", str(leaf)],
        ["generate", "--n", "5", "--rules", "1N3,3N1", "--format", "orders", "--out", str(orders)],
        ["stats", "--in", str(conds), "--out", str(stats)],
        ["generate", "--n", "6", "--rules", "1N3,2N1", "--threads", "2", "--format", "histogram",
         "--out", str(hist)],
    ]
    t = tracer.Tracer()
    traced_main = t.wrap("cli.main", cli.main)
    t.install()
    try:
        assert t.missing == set()
        codes = [traced_main(argv) for argv in commands]
    finally:
        t.uninstall()
    assert codes == [0, 0, 0, 0, 0], capsys.readouterr().err
    calls = t.calls + t.remote_calls
    called = ["iso.partial", "iso.gate", "search.extend", "domain.materialize",
              "lexcode.read", "domain.histogram", "parallel.merge"]
    assert [kind for kind in called if not calls[kind]] == []

    metrics = tracer.layer_metrics(t, 1, 1.0, 2)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} - ADDED_BY_RUNNER <= set(metrics)
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_setup_probes_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    bodies = [
        run.SEARCH_PROBE.format(rules="1N3,2N1", n=6, slots=20),
        run.EXPAND_PROBE.format(code="32" * 10, n=6),
    ]
    for body in bodies:
        code = run.PROBE.format(src=str(ROOT / "src"), body=body)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout.split()[-1]) > 0


def test_partition_prefixes_match_the_tree_golden(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import build_goldens
    import common

    units = common.load_golden("tree-n7")["units"]
    assert build_goldens.partition_prefixes(7, "1N3,3N1", 20) == [u["prefix"] for u in units]
    assert len(units) == 1325
