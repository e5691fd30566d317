"""Command-line front end: run searches, expand results, check, histogram.

Four subcommands share the conditions-file format (one code string per
line under a header naming n, the rule set, the triple order and the code
table).  Every file output gets a key=value manifest written beside it
with a sha256 of the produced bytes, so long runs can be verified after
the fact and partitioned runs can be stitched together with confidence.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import __version__, core
from .domain import expand, format_histogram, histogram, write_domain
from .lexcode import header_line, read_assignments
from .oracle import cross_check
from .search import SearchConfig, generate, resume

_FORMATS = {
    "conditions": "conditions-only",
    "orders": "expanded",
    "histogram": "histogram",
}

_VALID_TOKENS = ", ".join(core.CONDITION_NAMES[c] for c in core.ALL_CONDITIONS)


def _rules_arg(text: str) -> tuple[int, ...]:
    try:
        return core.parse_rules(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}; valid tokens: {_VALID_TOKENS}") from exc


@dataclass(frozen=True)
class RunManifest:
    n: int
    rules: tuple[int, ...]
    emit_mode: str
    thread_count: int
    engine_version: str
    wall_time: float
    leaves_emitted: int
    nodes_visited: int
    output_sha256: str
    prefix: str = ""  # non-empty for partitioned (subtree-only) runs

    def to_text(self) -> str:
        lines = [
            f"n={self.n}",
            f"rules={core.rules_token(self.rules)}",
            f"emit_mode={self.emit_mode}",
            f"thread_count={self.thread_count}",
            f"engine_version={self.engine_version}",
            f"wall_time_s={self.wall_time:.3f}",
            f"leaves_emitted={self.leaves_emitted}",
            f"nodes_visited={self.nodes_visited}",
            f"output_sha256={self.output_sha256}",
        ]
        if self.prefix:
            lines.insert(2, f"prefix={self.prefix}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        return cls(
            n=int(fields["n"]),
            rules=core.parse_rules(fields["rules"]),
            emit_mode=fields["emit_mode"],
            thread_count=int(fields["thread_count"]),
            engine_version=fields["engine_version"],
            wall_time=float(fields["wall_time_s"]),
            leaves_emitted=int(fields["leaves_emitted"]),
            nodes_visited=int(fields["nodes_visited"]),
            output_sha256=fields["output_sha256"],
            prefix=fields.get("prefix", ""),
        )

    def verify(self, output_path: Path) -> bool:
        return _sha256_of(output_path) == self.output_sha256


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest")


def _write_manifest(out: Path, cfg: SearchConfig, stats, emit_mode: str, prefix: str = "") -> None:
    manifest = RunManifest(
        n=cfg.n,
        rules=cfg.rules,
        emit_mode=emit_mode,
        thread_count=cfg.thread_count,
        engine_version=__version__,
        wall_time=stats.wall_time,
        leaves_emitted=stats.leaves_emitted,
        nodes_visited=stats.nodes_visited,
        output_sha256=_sha256_of(out),
        prefix=prefix,
    )
    _manifest_path(out).write_text(manifest.to_text())


def _cmd_generate(args) -> int:
    cfg = SearchConfig(n=args.n, rules=args.rules, thread_count=args.threads)
    out_path = Path(args.out) if args.out else None
    fh = open(out_path, "w") if out_path else sys.stdout
    sizes: Counter[int] = Counter()
    try:
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
                sizes[len(hit.domain)] += 1

        if args.prefix:
            stats = resume(cfg, args.prefix, sink)
        else:
            stats = generate(cfg, sink)
        if args.format == "histogram":
            fh.write(format_histogram(dict(sizes)) + "\n")
    finally:
        if out_path:
            fh.close()
    if out_path:
        _write_manifest(out_path, cfg, stats, _FORMATS[args.format], prefix=args.prefix or "")
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
    digest = hashlib.sha256()
    for a in assignments:
        dom = expand(a)
        path = out_dir / f"{a.encode()}.orders"
        with open(path, "w") as fh:
            write_domain(fh, dom)
        digest.update(path.read_bytes())
        print(path)
    manifest = out_dir / "expand.manifest"
    manifest.write_text(
        f"n={n}\nrules={core.rules_token(rules)}\ndomains={len(assignments)}\n"
        f"engine_version={__version__}\noutput_sha256={digest.hexdigest()}\n"
    )
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
        Path(args.out).write_text(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        _manifest_path(Path(args.out)).write_text(
            f"n={n}\nrules={core.rules_token(rules)}\nclasses={len(assignments)}\n"
            f"engine_version={__version__}\noutput_sha256={digest}\n"
        )
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
    gen.add_argument("--format", choices=sorted(_FORMATS), default="conditions")
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
