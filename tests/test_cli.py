"""End-to-end runs of the cdgen command line."""

import hashlib
import io
import re
from pathlib import Path

import pytest

from cdgen import cli
from cdgen.cli import main, read_manifest
from cdgen.domain import read_domain
from cdgen.lexcode import header_line, read_assignments


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_conditions_file(tmp_path, capsys):
    out = tmp_path / "n4.conds"
    code, _, err = run_cli(capsys, "generate", "--n", "4", "--rules", "2N3,2N1", "--out", str(out))
    assert code == 0
    assert "emitted 5 classes" in err
    assert re.search(r", peak RSS \d+\.\d MB\)$", err.strip())
    with open(out) as fh:
        n, rules, assignments = read_assignments(fh)
    assert (n, rules) == (4, (3, 4))
    assert len(assignments) == 5
    lines = out.read_text().splitlines()
    # rule tokens are normalized to code order in headers and manifests
    assert lines[0].startswith("# n=4 rules=2N1,2N3 order=colex codes=")

    manifest = read_manifest(tmp_path / "n4.conds.manifest")
    assert manifest["n"] == "4"
    assert manifest["rules"] == "2N1,2N3"
    assert manifest["leaves_emitted"] == "5"
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_generate_to_stdout(capsys):
    code, outtext, _ = run_cli(capsys, "generate", "--n", "3", "--rules", "2N3")
    assert code == 0
    assert outtext.splitlines()[1:] == ["4"]


def test_generate_histogram_n3_exact(tmp_path, capsys):
    # three classes, all of domain size 4
    out = tmp_path / "n3.hist"
    code, _, _ = run_cli(
        capsys, "generate", "--n", "3", "--rules", "1N2,1N3,2N1,2N3,3N1,3N2",
        "--format", "histogram", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[-1] == "4: 3"


def test_generate_histogram(tmp_path, capsys):
    out = tmp_path / "n4.hist"
    code, _, _ = run_cli(
        capsys, "generate", "--n", "4", "--rules", "1N2,1N3,2N1,2N3,3N1,3N2",
        "--format", "histogram", "--out", str(out),
    )
    assert code == 0
    # 31 classes, ascending by domain size
    assert out.read_text() == "4: 1\n7: 4\n8: 25\n9: 1\n"


def test_generate_orders_format(tmp_path, capsys):
    out = tmp_path / "n3.orders"
    code, _, _ = run_cli(
        capsys, "generate", "--n", "3", "--rules", "2N3", "--format", "orders", "--out", str(out),
    )
    assert code == 0
    dom = read_domain(io.StringIO(out.read_text()))
    assert dom.orders == ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1))
    assert dom.source.encode() == "4"


def test_generate_prefix_partition_matches_full(tmp_path, capsys):
    full = tmp_path / "full.conds"
    run_cli(capsys, "generate", "--n", "5", "--rules", "2N3,2N1", "--out", str(full))
    pieces = []
    for prefix in ("3", "4"):
        part = tmp_path / f"part{prefix}.conds"
        code, _, _ = run_cli(
            capsys, "generate", "--n", "5", "--rules", "2N3,2N1",
            "--prefix", prefix, "--out", str(part),
        )
        assert code == 0
        assert read_manifest(tmp_path / f"part{prefix}.conds.manifest")["prefix"] == prefix
        pieces.extend(part.read_text().splitlines()[1:])
    assert pieces == full.read_text().splitlines()[1:]


def test_generate_rejects_bad_rule_token(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "4", "--rules", "2N3,9X9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "valid tokens: 1N2, 1N3, 2N1, 2N3, 3N1, 3N2" in err


def test_generate_rejects_bad_prefix(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--n", "4", "--rules", "1N2,1N3,2N1,2N3,3N1,3N2", "--prefix", "1111",
    )
    assert code == 1
    assert err.startswith("error:")


def test_generate_refuses_huge_acting_set(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "9", "--rules", "1N3,2N3")
    assert code == 1
    assert err.startswith("error:")
    assert "acting relabelings" in err


def test_expand_command(tmp_path, capsys):
    conds = tmp_path / "n3.conds"
    run_cli(capsys, "generate", "--n", "3", "--rules", "2N3", "--out", str(conds))
    out_dir = tmp_path / "domains"
    code, outtext, _ = run_cli(capsys, "expand", "--in", str(conds), "--out-dir", str(out_dir))
    assert code == 0
    produced = sorted(out_dir.glob("*.orders"))
    assert [p.name for p in produced] == ["4.orders"]
    assert str(produced[0]) in outtext
    body = produced[0].read_text().splitlines()
    assert body[0] == "# n=3 source=4"
    assert body[1:] == ["123", "213", "231", "321"]
    assert (out_dir / "expand.manifest").exists()


def test_failed_expand_prints_no_path(tmp_path, capsys):
    """The order-file paths are printed only once expand has published them."""
    conds = tmp_path / "n4.conds"
    conds.write_text(header_line(4, (3, 4)) + "\n4444\n4400\n")
    out_dir = tmp_path / "domains"
    code, outtext, err = run_cli(capsys, "expand", "--in", str(conds), "--out-dir", str(out_dir))
    assert code == 1
    assert err.startswith("error:") and "incomplete assignment 4400" in err
    assert outtext == ""
    assert sorted(out_dir.iterdir()) == []


def test_stats_round_trips_generate_histogram(tmp_path, capsys):
    """stats over a conditions file reproduces the histogram the search
    itself would have produced."""
    conds = tmp_path / "n5.conds"
    hist = tmp_path / "n5.hist"
    run_cli(capsys, "generate", "--n", "5", "--rules", "1N3,3N1", "--out", str(conds))
    run_cli(
        capsys, "generate", "--n", "5", "--rules", "1N3,3N1",
        "--format", "histogram", "--out", str(hist),
    )
    code, outtext, _ = run_cli(capsys, "stats", "--in", str(conds))
    assert code == 0
    assert outtext == hist.read_text()


def test_stats_rejects_incomplete(tmp_path, capsys):
    bad = tmp_path / "bad.conds"
    bad.write_text(
        "# n=4 rules=2N3,2N1 order=colex codes=1N2:1,1N3:2,2N1:3,2N3:4,3N1:5,3N2:6\n4400\n"
    )
    code, _, err = run_cli(capsys, "stats", "--in", str(bad))
    assert code == 1
    assert "error: incomplete assignment 4400" in err


def test_stats_rejects_codes_outside_the_header_rules(tmp_path, capsys):
    bad = tmp_path / "bad.conds"
    bad.write_text(header_line(5, (3, 4)) + "\n1111111111\n")
    code, out, err = run_cli(capsys, "stats", "--in", str(bad))
    assert (code, out) == (1, "")
    assert "line 2: 1111111111 has code 1 outside rules=2N1,2N3" in err


def test_stats_and_expand_reject_a_repeated_code_string(tmp_path, capsys):
    """A class listed twice would be counted and expanded twice."""
    conds = tmp_path / "twice.conds"
    conds.write_text(header_line(4, (3, 4)) + "\n4444\n4444\n")
    hist, out_dir = tmp_path / "twice.hist", tmp_path / "domains"
    for argv in (["stats", "--in", str(conds)], ["stats", "--in", str(conds), "--out", str(hist)],
                 ["expand", "--in", str(conds), "--out-dir", str(out_dir)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: line 3: 4444 repeats line 2\n"
    assert sorted(tmp_path.iterdir()) == [conds]


def test_check_command(capsys):
    code, outtext, _ = run_cli(capsys, "check", "--n", "4", "--rules", "2N3,2N1")
    assert code == 0
    assert "EQUAL (5 classes)" in outtext


def test_check_refuses_a_brute_force_past_its_bound(capsys):
    """2^20 assignments, each tried under 720 relabelings, would run for half
    an hour; check fails before the oracle enumerates any of them."""
    code, out, err = run_cli(capsys, "check", "--n", "6", "--rules", "2N3,2N1")
    assert (code, out) == (1, "")
    assert err == (
        "error: brute force would try 1048576 assignments x 6! relabelings, "
        "above its bound of 10000000\n"
    )


def test_missing_input_file_is_reported(tmp_path, capsys):
    code, _, err = run_cli(capsys, "stats", "--in", str(tmp_path / "nope.conds"))
    assert code == 1
    assert err.startswith("error:")


ENVIRONMENT_KEYS = ["engine_version", "python", "numpy", "cpu_count"]


def test_manifests_share_one_format(tmp_path, capsys):
    conds = tmp_path / "n4.conds"
    hist = tmp_path / "n4.hist"
    out_dir = tmp_path / "domains"
    run_cli(capsys, "generate", "--n", "4", "--rules", "2N3,2N1", "--prefix", "4", "--out", str(conds))
    run_cli(capsys, "stats", "--in", str(conds), "--out", str(hist))
    code, outtext, _ = run_cli(capsys, "expand", "--in", str(conds), "--out-dir", str(out_dir))
    assert code == 0
    orders = outtext.splitlines()  # the order files, in input order
    assert len(orders) == 4
    manifests = {
        "generate": (read_manifest(tmp_path / "n4.conds.manifest"), conds.read_bytes()),
        "stats": (read_manifest(tmp_path / "n4.hist.manifest"), hist.read_bytes()),
        "expand": (
            read_manifest(out_dir / "expand.manifest"),
            b"".join(Path(path).read_bytes() for path in orders),
        ),
    }
    own_keys = {
        "generate": ["prefix", "format", "thread_count", "wall_time_s", "leaves_emitted",
                     "nodes_visited", "nodes_pruned", "peak_rss_mb"],
        "stats": ["classes"],
        "expand": ["domains"],
    }
    for command, (manifest, data) in manifests.items():
        assert list(manifest) == ["command", "n", "rules", *own_keys[command], *ENVIRONMENT_KEYS,
                                  "output_sha256"]
        assert manifest["command"] == command
        assert (manifest["n"], manifest["rules"]) == ("4", "2N1,2N3")
        assert manifest["output_sha256"] == hashlib.sha256(data).hexdigest()
    environments = [[m[key] for key in ENVIRONMENT_KEYS] for m, _ in manifests.values()]
    assert environments[0] == environments[1] == environments[2]
    generated = manifests["generate"][0]
    assert (generated["prefix"], generated["format"], generated["leaves_emitted"]) == ("4", "conditions", "4")
    assert float(generated["peak_rss_mb"]) > 0
    assert manifests["stats"][0]["classes"] == manifests["expand"][0]["domains"] == "4"
    assert not list(tmp_path.rglob("*.partial"))


def test_read_manifest_rejects_a_cut_off_manifest(tmp_path, capsys):
    out = tmp_path / "n4.conds"
    run_cli(capsys, "generate", "--n", "4", "--rules", "2N3,2N1", "--out", str(out))
    manifest = tmp_path / "n4.conds.manifest"
    text = manifest.read_text()
    assert text.endswith("\n") and text.splitlines()[-1].startswith("output_sha256=")
    manifest.write_text(text[: text.index("output_sha256=")])
    with pytest.raises(ValueError, match="incomplete"):
        read_manifest(manifest)


def test_failed_generate_leaves_no_output(tmp_path, capsys):
    """A refused run publishes nothing and keeps an earlier run's output."""
    out = tmp_path / "x"
    argv = ["generate", "--n", "9", "--rules", "1N3,2N3", "--out", str(out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert sorted(tmp_path.iterdir()) == []

    run_cli(capsys, "generate", "--n", "4", "--rules", "2N3,2N1", "--out", str(out))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == ["x", "x.manifest"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_memory_error_is_reported_and_leaves_no_output(tmp_path, capsys, monkeypatch):
    """A search that runs out of memory ends in an error line, not a traceback."""

    def generate(cfg, sink):
        raise MemoryError()

    monkeypatch.setattr(cli, "generate", generate)
    out = tmp_path / "x"
    code, _, err = run_cli(capsys, "generate", "--n", "26", "--rules", "2N3", "--out", str(out))
    assert (code, err) == (1, "error: MemoryError\n")
    assert sorted(tmp_path.iterdir()) == []


def test_prefix_with_threads_is_refused(tmp_path, capsys):
    """--prefix runs serially, so --threads 2 with it would misreport the run."""
    out = tmp_path / "x"
    base = ["generate", "--n", "5", "--rules", "2N3,2N1", "--prefix", "44", "--threads", "2"]
    code, stdout, err = run_cli(capsys, *base, "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "--prefix" in err and "--threads" in err
    assert sorted(tmp_path.iterdir()) == []
    code, stdout, err = run_cli(capsys, *base)
    assert (code, stdout) == (1, "")
    code, _, _ = run_cli(capsys, *base[:-1], "1", "--out", str(out))
    assert code == 0
    assert read_manifest(tmp_path / "x.manifest")["thread_count"] == "1"
