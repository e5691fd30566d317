"""cdgen benchmark: verified end-to-end timings, or a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process issues ``cdgen`` commands through ``cli.main``,
each after the previous one finished (a closed loop).  The seed picks the
inputs a workload runs (one pass); passes repeat until ``--seconds`` is
spent, and every command's output is checked against the frozen goldens
in ``perfbench/goldens``.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count commands, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
ones (``--trace 1``).  The line before it stamps the environment.

Workloads (see README.md for why each exists):

* screen-n8: ``generate --prefix P --format conditions`` on a sample of
  the 720 depth-35 subtrees of n=8 1N3,2N1 (permutation screening);
* tree-n7: ``generate --prefix P --format orders`` on a sample of the 1325
  depth-20 subtrees of n=7 1N3,3N1 (node- and leaf-heavy);
* expand-n8: ``stats`` on batches of a sample of the 3840 n=8 1N3,2N1
  classes (expansion only, no search);
* parallel-n7: ``generate --threads 2 --format histogram`` of all of n=7
  1N3,2N1 (scout, pool and in-order merge; the seed has no effect).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import common
from tracer import Tracer, cpu_seconds, layer_metrics

# Sample sizes, chosen so that one pass takes about five seconds on a
# 2-core x86 machine and the spread between seeds stays small.
SCREEN_SUBTREES = 10
TREE_SUBTREES = 45
COST_TOLERANCE = 0.01
CLASS_TOLERANCE = 0.02
EXPAND_CLASSES = 600
EXPAND_BATCH = 50
SETUP_RUNS = 5
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2


@dataclass
class Command:
    argv: list[str]
    out: Path
    check: Callable[[bytes], bool]
    classes: int


def balanced_sample(items: list, size: int, cost, classes, rng: random.Random) -> list:
    """One item from each of ``size`` strata of equal total cost, in input order.

    Strata are runs of the items sorted by the cost recorded in the goldens.
    Draws repeat until the sample's total cost and class count are within
    COST_TOLERANCE and CLASS_TOLERANCE of their expected values, so that
    every seed's pass does about the same work.  Any item can be drawn, but
    one far costlier than the rest of its stratum rarely is.
    """
    order = sorted(range(len(items)), key=lambda i: (cost(items[i]), i))
    total = sum(cost(x) for x in items)
    strata: list[list[int]] = [[] for _ in range(size)]
    done = 0.0
    for i in order:
        strata[min(int((done + cost(items[i]) / 2) * size / total), size - 1)].append(i)
        done += cost(items[i])
    strata = [s for s in strata if s]
    want_cost = sum(statistics.fmean(cost(items[i]) for i in s) for s in strata)
    want_classes = sum(statistics.fmean(classes(items[i]) for i in s) for s in strata)
    for _ in range(100_000):
        picks = [rng.choice(s) for s in strata]
        if (abs(sum(cost(items[i]) for i in picks) - want_cost) <= COST_TOLERANCE * want_cost
                and abs(sum(classes(items[i]) for i in picks) - want_classes) <= CLASS_TOLERANCE * want_classes):
            return [items[i] for i in sorted(picks)]
    raise RuntimeError("no balanced sample found")


def partition_commands(golden: dict, size: int, rng, work: Path) -> list[Command]:
    out = work / "out"
    base = ["generate", "--n", str(golden["n"]), "--rules", golden["rules"], "--format", golden["format"]]
    header = golden.get("header", "").encode()

    def checker(sha):
        if golden["format"] != "conditions":
            return lambda data: common.sha256(data) == sha

        def check(data):
            head, body = common.split_header(data)
            return head == header and common.sha256(body) == sha

        return check

    units = balanced_sample(golden["units"], size, lambda u: u["build_s"], lambda u: u["classes"], rng)
    return [
        Command(base + ["--prefix", u["prefix"], "--out", str(out)], out, checker(u["sha256"]), u["classes"])
        for u in units
    ]


def expand_commands(golden: dict, rng, work: Path) -> list[Command]:
    out = work / "out"
    classes = balanced_sample(golden["classes"], EXPAND_CLASSES, lambda c: c[1], lambda c: 1, rng)
    commands = []
    for start in range(0, len(classes), EXPAND_BATCH):
        batch = classes[start:start + EXPAND_BATCH]
        infile = work / f"batch{start // EXPAND_BATCH}.conds"
        infile.write_text(golden["header"] + "\n" + "".join(code + "\n" for code, _ in batch))
        expected = common.histogram_text(size for _, size in batch).encode()
        commands.append(Command(["stats", "--in", str(infile), "--out", str(out)], out,
                                expected.__eq__, len(batch)))
    return commands


def parallel_commands(golden: dict, work: Path) -> list[Command]:
    out = work / "out"
    argv = ["generate", "--n", str(golden["n"]), "--rules", golden["rules"], "--format", golden["format"],
            "--threads", str(golden["threads"]), "--out", str(out)]
    return [Command(argv, out, golden["histogram"].encode().__eq__, golden["classes"])]


def make_commands(workload: str, golden: dict, seed: int, work: Path) -> list[Command]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "screen-n8":
        return partition_commands(golden, SCREEN_SUBTREES, rng, work)
    if workload == "tree-n7":
        return partition_commands(golden, TREE_SUBTREES, rng, work)
    if workload == "expand-n8":
        return expand_commands(golden, rng, work)
    return parallel_commands(golden, work)


# A fresh interpreter importing cdgen and doing the one-time work the
# workload's first command pays: the relabeling tables a first canonicity
# check builds, or, for expansion, one expansion.
PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import cdgen.cli
from cdgen.core import parse_rules
from cdgen.lexcode import Assignment
{body}
print(time.perf_counter() - start)
"""
SEARCH_PROBE = """\
from cdgen.iso import is_canonical_complete, is_partially_lex_max
rules = parse_rules({rules!r})
a = Assignment({n}, bytes(rules[-1:]) * {slots})
is_canonical_complete(a, rules)
is_partially_lex_max(a, rules)
"""
EXPAND_PROBE = """\
from cdgen.domain import expand
expand(Assignment.from_string({code!r}, {n}))
"""


def setup_seconds(workload: str) -> list[float]:
    spec = common.SPECS[workload]
    n = spec["n"]
    if workload == "expand-n8":
        body = EXPAND_PROBE.format(code=common.load_golden(workload)["classes"][0][0], n=n)
    else:
        body = SEARCH_PROBE.format(rules=spec["rules"], n=n, slots=n * (n - 1) * (n - 2) // 6)
    code = PROBE.format(src=str(common.ROOT / "src"), body=body)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code], cwd=common.ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_command(main, cmd: Command) -> int | None:
    """Run one command and check its output; its size in bytes, or None on failure."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(cmd.argv)
        data = cmd.out.read_bytes() if rc == 0 else None
    except Exception:  # a command that crashes counts as failed; keep going
        traceback.print_exc()
        data = None
    if data is not None and cmd.check(data):
        return len(data)
    print(f"perfbench: FAILED cdgen {' '.join(cmd.argv)}\n{err.getvalue()}", file=sys.stderr)
    return None


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    failed: int
    bytes_out: int


def run_pass(main, commands: list[Command]) -> Pass:
    cpu, start = cpu_seconds(), perf_counter()
    sizes = [run_command(main, cmd) for cmd in commands]
    wall = perf_counter() - start
    return Pass(wall, cpu_seconds() - cpu, sizes.count(None), sum(s for s in sizes if s))


def read_loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_before = read_loadavg()
    common.import_cdgen()
    import numpy
    from cdgen import cli

    work = common.WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        golden = common.load_golden(args.workload)
        commands = make_commands(args.workload, golden, args.seed, work)
        setup = [] if args.trace else setup_seconds(args.workload)
        classes = sum(cmd.classes for cmd in commands)
        attempted, failed = 1, int(run_command(cli.main, commands[0]) is None)  # warm-up
        deadline = perf_counter() + args.seconds
        if args.trace:
            serial_nodes = golden["serial_nodes"] if "threads" in golden else None
            rounds, metrics, tracer = measure_traced(cli.main, commands, deadline, serial_nodes)
            passes = [p for pair in rounds for p in pair]
        else:
            passes = measure(cli.main, commands, deadline)
            walls = [p.wall_s for p in passes]
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "classes_per_s": (statistics.median(classes / w for w in walls), "1/s"),
                "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }
        attempted += len(commands) * len(passes)
        failed += sum(p.failed for p in passes)
        if args.trace:
            write_spans(tracer, work.parent / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": read_loadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "commands_per_pass": len(commands),
        "classes_per_pass": classes,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "setup_runs_s": setup,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def measure(main, commands, deadline) -> list[Pass]:
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(main, commands))
        expected = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() + expected > deadline:
            return passes


def measure_traced(main, commands, deadline, serial_nodes: int | None):
    """Alternate untraced and traced passes over the same commands.

    ``serial_nodes`` is the node count of a serial run of what a parallel
    workload runs, which a parallel run should reproduce.
    """
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", main)
    rounds: list[tuple[Pass, Pass]] = []
    while True:
        plain = run_pass(main, commands)
        tracer.install()
        try:
            traced = run_pass(traced_main, commands)
        finally:
            tracer.uninstall()
        rounds.append((plain, traced))
        expected = statistics.median(a.wall_s + b.wall_s for a, b in rounds)
        if len(rounds) >= MIN_TRACED_ROUNDS and perf_counter() + expected > deadline:
            break
    plain_wall = statistics.median(a.wall_s for a, _ in rounds)
    traced_wall = statistics.median(b.wall_s for _, b in rounds)
    n = len(rounds)
    metrics = layer_metrics(tracer, n, sum(b.wall_s for _, b in rounds) / n, os.cpu_count() or 1)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    metrics["cli.bytes_out"] = (sum(b.bytes_out for _, b in rounds) / n, "bytes")
    if "search.nodes" in metrics:
        overcount = metrics["search.nodes"][0] - serial_nodes if serial_nodes else 0.0
        metrics["parallel.nodes_overcount"] = (overcount, "count")
    if tracer.missing:
        print(f"perfbench: hooks not found, their metrics are absent: {sorted(tracer.missing)}", file=sys.stderr)
    return rounds, metrics, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    main()
