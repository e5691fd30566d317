"""Build and validate the frozen outputs the benchmark checks against.

    python3 perfbench/build_goldens.py [screen-n8 | tree-n7 | parallel-n7 ...]

Each golden is validated by two routes before it is written:

* screen-n8 and tree-n7: every subtree under the depth-d prefixes is run
  through ``cdgen generate --prefix``; the subtree outputs, concatenated in
  prefix order, must equal a full serial run byte for byte.
* expand-n8 (written with screen-n8): the expanded size of every n=8
  1N3,2N1 class, from ``domain.expand``, must give the frozen reference
  histogram in ``tests/reference_histograms.py``, and ``cdgen stats`` on
  the full class file must print the same histogram.
* parallel-n7: the ``--threads 2`` code-string stream and histogram must
  equal the serial ones.

Building takes about nine minutes of one core for screen-n8 and three for
tree-n7; the workloads can be built in separate processes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import shutil
from pathlib import Path
from time import perf_counter

import common

cdgen = common.import_cdgen()
from cdgen import cli, search  # noqa: E402
from cdgen.domain import expand  # noqa: E402
from cdgen.lexcode import Assignment  # noqa: E402


def run_cli(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"cdgen {' '.join(argv)} failed: {err.getvalue().strip()}")


def read_manifest(out: Path) -> dict[str, str]:
    text = out.with_name(out.name + ".manifest").read_text()
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def partition_prefixes(n: int, rules: str, depth: int) -> list[str]:
    """The search's nodes at one depth, as code-string prefixes in DFS order."""
    engine = search._Engine(search.SearchConfig(n=n, rules=cdgen.parse_rules(rules)))
    engine.collect_at = depth
    engine.rec(*engine.root_state())
    return ["".join(map(str, p)) for p in engine.collected]


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"golden validation failed: {what}")
    print(f"  ok: {what}", flush=True)


def build_partition(name: str, work: Path) -> bytes:
    """Per-prefix goldens for a partitioned workload; returns the full output."""
    spec = common.SPECS[name]
    n, rules, fmt = spec["n"], spec["rules"], spec["format"]
    base = ["generate", "--n", str(n), "--rules", rules, "--format", fmt]
    prefixes = partition_prefixes(n, rules, spec["depth"])
    print(f"{name}: {len(prefixes)} prefixes at depth {spec['depth']}", flush=True)
    out = work / "unit.out"
    units, joined, headers = [], [], set()
    for prefix in prefixes:
        start = perf_counter()
        run_cli(base + ["--prefix", prefix, "--out", str(out)])
        elapsed = perf_counter() - start
        data = out.read_bytes()
        if fmt == "conditions":
            header, data = common.split_header(data)
            headers.add(header)
        units.append({
            "prefix": prefix,
            "sha256": common.sha256(data),
            "classes": int(read_manifest(out)["leaves_emitted"]),
            "nodes": int(read_manifest(out)["nodes_visited"]),
            "build_s": round(elapsed, 4),
        })
        joined.append(data)
    full_path = work / "full.out"
    run_cli(base + ["--out", str(full_path)])
    full = full_path.read_bytes()
    golden = {**spec, "rules": rules}
    if fmt == "conditions":
        header, full = common.split_header(full)
        check(headers == {header}, f"{name}: every subtree output has the full run's header")
        golden["header"] = header.decode()
    manifest = read_manifest(full_path)
    check(b"".join(joined) == full, f"{name}: {len(units)} subtree outputs concatenate to the full serial run")
    classes = int(manifest["leaves_emitted"])
    check(sum(u["classes"] for u in units) == classes, f"{name}: subtree class counts sum to {classes}")
    golden.update({
        "full_sha256": common.sha256(full),
        "classes": classes,
        "serial_nodes": int(manifest["nodes_visited"]),
        "units": units,
    })
    common.save_golden(name, golden)
    return full_path.read_bytes()


def load_reference_histogram(name: str) -> dict[int, int]:
    path = common.ROOT / "tests" / "reference_histograms.py"
    spec = importlib.util.spec_from_file_location("reference_histograms", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def build_expand(conditions: bytes, work: Path) -> None:
    spec = common.SPECS["expand-n8"]
    header, body = common.split_header(conditions)
    codes = body.decode().split()
    sizes = [len(expand(Assignment.from_string(code, spec["n"]))) for code in codes]
    reference = load_reference_histogram("N8_1N3_2N1")
    got = {size: sizes.count(size) for size in sorted(set(sizes))}
    check(got == reference, f"expand-n8: sizes of {len(codes)} classes give N8_1N3_2N1")
    infile, outfile = work / "classes.conds", work / "classes.hist"
    infile.write_bytes(conditions)
    run_cli(["stats", "--in", str(infile), "--out", str(outfile)])
    check(outfile.read_text() == common.histogram_text(sizes), "expand-n8: cdgen stats prints the same histogram")
    common.save_golden("expand-n8", {
        **spec,
        "header": header.decode(),
        "classes": [[code, size] for code, size in zip(codes, sizes)],
    })


def build_parallel(work: Path) -> None:
    spec = common.SPECS["parallel-n7"]
    base = ["generate", "--n", str(spec["n"]), "--rules", spec["rules"]]
    outputs = {}
    for fmt in ("conditions", "histogram"):
        for threads in (1, spec["threads"]):
            out = work / f"{fmt}-{threads}.out"
            run_cli(base + ["--format", fmt, "--threads", str(threads), "--out", str(out)])
            outputs[fmt, threads] = out.read_bytes()
    serial_nodes = int(read_manifest(work / "conditions-1.out")["nodes_visited"])
    classes = int(read_manifest(work / "conditions-1.out")["leaves_emitted"])
    for fmt in ("conditions", "histogram"):
        check(outputs[fmt, 1] == outputs[fmt, spec["threads"]],
              f"parallel-n7: --threads {spec['threads']} {fmt} output equals the serial one")
    histogram = outputs["histogram", 1].decode()
    check(sum(int(line.split(":")[1]) for line in histogram.splitlines()) == classes,
          f"parallel-n7: histogram counts {classes} classes")
    common.save_golden("parallel-n7", {
        **spec,
        "stream_sha256": common.sha256(common.split_header(outputs["conditions", 1])[1]),
        "histogram": histogram,
        "classes": classes,
        "serial_nodes": serial_nodes,
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    choices = ["screen-n8", "tree-n7", "parallel-n7"]
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(choices)} (default: all)")
    args = parser.parse_args()
    args.workloads = args.workloads or choices
    for name in args.workloads:
        if name not in choices:
            parser.error(f"unknown workload {name!r}")
    work = common.WORK_DIR / f"build-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workloads:
            start = perf_counter()
            if name == "parallel-n7":
                build_parallel(work)
            else:
                full = build_partition(name, work)
                if name == "screen-n8":
                    build_expand(full, work)
            print(f"{name}: built in {perf_counter() - start:.0f}s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
