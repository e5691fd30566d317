"""Command-line front end: run searches, expand results, check, histogram.

Four subcommands share the conditions-file format (one code string per
line under a header naming n, the rule set, the triple order and the code
table).  Every file output is written as ``<name>.partial`` and renamed
onto its name only after the command succeeded and its key=value
manifest, ending in a sha256 of the produced bytes, was written beside
it; so a file under its final name is complete, and long runs can be
verified after the fact and partitioned runs stitched together.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, core
from .domain import expand, format_histogram, histogram, write_domain
from .lexcode import header_line, read_assignments
from .oracle import cross_check
from .search import SearchConfig, generate, resume

_VALID_TOKENS = ", ".join(core.CONDITION_NAMES[c] for c in core.ALL_CONDITIONS)


def _rules_arg(text: str) -> tuple[int, ...]:
    try:
        return core.parse_rules(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}; valid tokens: {_VALID_TOKENS}") from exc


def _partial(path: Path) -> Path:
    return path.with_name(path.name + ".partial")


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest")


def _manifest_text(fields: dict, output_sha256: str) -> str:
    """The one manifest format: the command and its fields, the environment,
    then ``output_sha256`` as the last line, so a manifest cut off shows it."""
    lines = {
        **fields,
        "engine_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "output_sha256": output_sha256,
    }
    return "".join(f"{key}={value}\n" for key, value in lines.items())


def read_manifest(path) -> dict[str, str]:
    """A manifest's ``key=value`` lines; ValueError when it was cut off."""
    fields = dict(line.split("=", 1) for line in Path(path).read_text().splitlines() if "=" in line)
    if list(fields)[-1:] != ["output_sha256"]:
        raise ValueError(f"manifest {path} is incomplete: its last line is not output_sha256")
    return fields


class _Output:
    """The files one command writes, published together with their manifest.

    ``open(path)`` writes ``<path>.partial``.  When the ``with`` block ends
    normally, the partial files are hashed in the order they were opened,
    the manifest is written from ``fields`` (to which the block may add its
    counters), and each partial file is renamed onto its path.  When the
    block raises, the partial files are deleted and whatever the final
    paths held before stays as it was.
    """

    def __init__(self, manifest: Path, command: str, **fields):
        self.manifest = manifest
        self.fields = {"command": command, **fields}
        self.paths: list[Path] = []

    def open(self, path: Path):
        self.paths.append(path)
        return open(_partial(path), "w")

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._publish()
        finally:
            for path in self.paths:
                _partial(path).unlink(missing_ok=True)

    def _publish(self) -> None:
        digest = hashlib.sha256()
        for path in self.paths:
            with open(_partial(path), "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        self.manifest.write_text(_manifest_text(self.fields, digest.hexdigest()))
        for path in self.paths:
            os.replace(_partial(path), path)


def _search(args, cfg: SearchConfig, fh):
    """Run the search, writing its hits to ``fh`` in ``args.format``."""
    sizes: Counter[int] = Counter()
    if args.format == "conditions":
        fh.write(header_line(cfg.n, cfg.rules) + "\n")

    def sink(hit):
        if args.format == "conditions":
            fh.write(hit.code_string + "\n")
            fh.flush()
        elif args.format == "orders":
            write_domain(fh, hit.domain)
            fh.flush()
        else:
            sizes[len(hit.rows)] += 1

    if args.prefix:
        stats = resume(cfg, args.prefix, sink)
    else:
        stats = generate(cfg, sink)
    if args.format == "histogram":
        fh.write(format_histogram(dict(sizes)) + "\n")
    return stats


def _cmd_generate(args) -> int:
    cfg = SearchConfig(n=args.n, rules=args.rules, thread_count=args.threads)
    if args.prefix and cfg.thread_count > 1:
        raise ValueError("--prefix searches one subtree serially; drop --threads or set --threads 1")
    if args.out:
        out = Path(args.out)
        with _Output(
            _manifest_path(out), "generate", n=cfg.n, rules=core.rules_token(cfg.rules),
            prefix=args.prefix or "", format=args.format, thread_count=cfg.thread_count,
        ) as output:
            with output.open(out) as fh:
                stats = _search(args, cfg, fh)
            output.fields.update(
                wall_time_s=f"{stats.wall_time:.3f}",
                leaves_emitted=stats.leaves_emitted,
                nodes_visited=stats.nodes_visited,
                nodes_pruned=stats.nodes_pruned,
            )
    else:
        stats = _search(args, cfg, sys.stdout)
    print(
        f"emitted {stats.leaves_emitted} classes "
        f"({stats.nodes_visited} nodes, {stats.nodes_pruned} pruned, "
        f"{stats.wall_time:.2f}s)",
        file=sys.stderr,
    )
    return 0


def _cmd_expand(args) -> int:
    with open(args.infile) as fh:
        n, rules, assignments = read_assignments(fh)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _Output(
        out_dir / "expand.manifest", "expand", n=n, rules=core.rules_token(rules), domains=len(assignments),
    ) as output:
        for a in assignments:
            with output.open(out_dir / f"{a.encode()}.orders") as fh:
                write_domain(fh, expand(a))
    for path in output.paths:  # only once _Output has published them
        print(path)
    return 0


def _cmd_check(args) -> int:
    result = cross_check(args.n, args.rules)
    tag = "EQUAL" if result.equal else "DIFFER"
    print(f"n={result.n} rules={core.rules_token(result.rules)}: {tag} ({result.class_count} classes)")
    for a in result.search_only:
        print(f"  search only: {a.encode()}")
    for a in result.oracle_only:
        print(f"  oracle only: {a.encode()}")
    return 0 if result.equal else 1


def _cmd_stats(args) -> int:
    with open(args.infile) as fh:
        n, rules, assignments = read_assignments(fh)
    for a in assignments:
        if not a.is_complete:
            raise ValueError(f"incomplete assignment {a.encode()} cannot be sized")
    counts = histogram(assignments)
    text = format_histogram(counts) + "\n"
    if args.out:
        out = Path(args.out)
        with _Output(
            _manifest_path(out), "stats", n=n, rules=core.rules_token(rules), classes=len(assignments),
        ) as output, output.open(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdgen",
        description="Generate non-isomorphic Condorcet domains from never-condition rules.",
    )
    parser.add_argument("--version", action="version", version=f"cdgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the orderly search")
    gen.add_argument("--n", type=int, required=True, help="number of alternatives (>= 3)")
    gen.add_argument(
        "--rules",
        type=_rules_arg,
        required=True,
        help=f"comma-separated conditions, e.g. 2N3,2N1 (valid: {_VALID_TOKENS})",
    )
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.add_argument("--format", choices=("conditions", "histogram", "orders"), default="conditions")
    gen.add_argument("--threads", type=int, default=1)
    gen.add_argument("--prefix", help="code-string prefix: search only that subtree")

    exp = sub.add_parser("expand", help="expand a conditions file into order files")
    exp.add_argument("--in", dest="infile", required=True, help="conditions file")
    exp.add_argument("--out-dir", required=True, help="directory for the order files")

    chk = sub.add_parser("check", help="cross-check the search against the brute-force oracle")
    chk.add_argument("--n", type=int, required=True)
    chk.add_argument("--rules", type=_rules_arg, required=True)

    st = sub.add_parser("stats", help="histogram of expanded sizes from a conditions file")
    st.add_argument("--in", dest="infile", required=True, help="conditions file")
    st.add_argument("--out", help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "expand": _cmd_expand,
        "check": _cmd_check,
        "stats": _cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
