"""Paths, workload definitions and output checks shared by the benchmark scripts.

The scripts run from a source checkout: they import ``cdgen`` from ``src/``
beside this directory and refuse to run without it, so a stray installed
copy can never be measured by mistake.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "goldens"
WORK_DIR = ROOT / ".perfbench"

# What each workload runs.  ``depth`` is the co-lex slot count at which the
# search support first reaches n (C(n-1, 3)); the search's nodes at that
# depth partition its whole output, one subtree per prefix.
SPECS = {
    "screen-n8": {"n": 8, "rules": "1N3,2N1", "depth": 35, "format": "conditions"},
    "tree-n7": {"n": 7, "rules": "1N3,3N1", "depth": 20, "format": "orders"},
    "expand-n8": {"n": 8, "rules": "1N3,2N1"},
    "parallel-n7": {"n": 7, "rules": "1N3,2N1", "threads": 2, "format": "histogram"},
}


def import_cdgen():
    """Import cdgen from this checkout's ``src/``; exit when it is missing."""
    src = ROOT / "src"
    if not (src / "cdgen" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cdgen sources at {src}")
    sys.path.insert(0, str(src))
    import cdgen

    if Path(cdgen.__file__).resolve().parent != src / "cdgen":
        raise SystemExit(f"perfbench: imported cdgen from {cdgen.__file__}, not {src}")
    return cdgen


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def split_header(data: bytes) -> tuple[bytes, bytes]:
    """A conditions file as (header line, body of code-string lines)."""
    head, _, body = data.partition(b"\n")
    return head, body


def histogram_text(sizes) -> str:
    """The bytes ``cdgen stats`` writes for these domain sizes.

    Computed here rather than by ``cdgen.domain.format_histogram`` so that
    the check does not rest on the code it checks.
    """
    counts: dict[int, int] = {}
    for size in sizes:
        counts[size] = counts.get(size, 0) + 1
    return "".join(f"{size}: {counts[size]}\n" for size in sorted(counts))


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def save_golden(workload: str, data: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(golden_path(workload), "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
