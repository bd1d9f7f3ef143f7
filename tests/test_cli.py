"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import json
import random

import pytest

from proxylineage.cli import main

from conftest import ADDR_A, ADDR_B, ADDR_C, CREATOR_X, CREATOR_Y, PROXY
from corpusgen import (
    contract_row,
    event_row,
    varied_sourced_corpus,
    write_contract_fixture,
    write_corpus_fixtures,
    write_trace_fixture,
)
from conftest import make_record
from proxylineage import SourceFile

SRC = "pragma solidity ^0.8.0;\ncontract Core {\n    function f() public {\n    }\n}\n"


@pytest.fixture
def fixture_paths(tmp_path):
    """The three-callee corpus as NDJSON files: lineage [A, B], C excluded."""
    traces = tmp_path / "traces.ndjson"
    contracts = tmp_path / "contracts.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, ADDR_A, 1, 1, "t1"),
        event_row(PROXY, ADDR_A, 10, 10, "t2"),
        event_row(PROXY, ADDR_B, 11, 11, "t3"),
        event_row(PROXY, ADDR_B, 20, 20, "t4"),
        event_row(PROXY, ADDR_C, 5, 5, "t5"),
        event_row(PROXY, ADDR_C, 15, 15, "t6"),
    ])
    write_contract_fixture(contracts, [
        contract_row(make_record(ADDR_A, CREATOR_X, [SourceFile("src", "Core.sol", SRC)])),
        contract_row(make_record(ADDR_B, CREATOR_X, [SourceFile("src", "Core.sol", SRC)])),
        contract_row(make_record(ADDR_C, CREATOR_Y, [SourceFile("src", "Other.sol", SRC)])),
    ])
    return traces, contracts


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_build_lineages_emits_expected_lineage(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    out = tmp_path / "out"
    code = main(["build-lineages", "--traces", str(traces),
                 "--contracts", str(contracts), "--out", str(out)])
    assert code == 0
    lineages = json.loads((out / "lineages.json").read_text())
    assert len(lineages) == 1
    assert [v["address"] for v in lineages[0]["versions"]] == [ADDR_A, ADDR_B]
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["lineage_exclusions"] == [
        {"proxy": PROXY, "callee": ADDR_C, "reason": "NOT_SAME_CREATOR"},
    ]


def test_ingest_writes_canonical_corpus(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    out = tmp_path / "corpus"
    assert main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out)]) == 0
    assert (out / "traces.ndjson").exists()
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["upgrade_proxies"] == [PROXY]


def test_stats_on_empty_bundle_exits_zero(tmp_path, capsys):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    traces.write_text("")
    contracts.write_text("")
    out = tmp_path / "bundle"
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lineage_count"] == 0
    assert report["open_source_pct"] is None


def test_invalid_threshold_exits_one(fixture_paths, capsys):
    traces, contracts = fixture_paths
    code = main(["evaluate-lsh", "--traces", str(traces), "--contracts", str(contracts),
                 "--threshold", "nonsense"])
    assert code == 1
    err = capsys.readouterr().err.lower()
    assert "usage" in err


def test_unknown_flag_exits_one(fixture_paths, capsys):
    traces, contracts = fixture_paths
    assert main(["build-lineages", "--traces", str(traces), "--contracts", str(contracts),
                 "--does-not-exist", "x"]) == 1


def test_missing_bundle_is_io_error(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["stats", str(empty)]) == 2


def test_parse_error_exits_one(tmp_path, capsys):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    traces.write_text('{"proxy_address": "0xzz"}\n')
    contracts.write_text("")
    code = main(["build-lineages", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_evaluate_lsh_csv_output(fixture_paths, tmp_path, capsys):
    traces, contracts = fixture_paths
    out_file = tmp_path / "results.csv"
    code = main(["evaluate-lsh", "--traces", str(traces), "--contracts", str(contracts),
                 "--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "contract_type,similarity_threshold,precision_pct,recall_pct"
    assert len(lines) == 7  # two scopes x three thresholds


def test_evaluate_lsh_single_threshold_json(fixture_paths, capsys):
    traces, contracts = fixture_paths
    code = main(["evaluate-lsh", "--traces", str(traces), "--contracts", str(contracts),
                 "--threshold", "high", "--scope", "open-source"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["similarity_threshold"] == "high"
    assert rows[0]["precision_pct"] == 100.0
    assert rows[0]["recall_pct"] == 100.0


def test_fingerprint_command_writes_ndjson(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    out_file = tmp_path / "fps.ndjson"
    assert main(["fingerprint", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out_file)]) == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [r["address"] for r in rows] == sorted([ADDR_A, ADDR_B, ADDR_C])
    assert all(r["k"] == 256 and r["seed"] == 0 for r in rows)


def test_seed_changes_fingerprints(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    one = tmp_path / "one.ndjson"
    two = tmp_path / "two.ndjson"
    assert main(["fingerprint", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(one)]) == 0
    assert main(["--seed", "7", "fingerprint", "--traces", str(traces),
                 "--contracts", str(contracts), "--out", str(two)]) == 0
    assert one.read_text() != two.read_text()
    rows = [json.loads(line) for line in two.read_text().splitlines()]
    assert all(r["seed"] == 7 for r in rows)


def test_evaluate_lsh_reuses_prebuilt_fingerprints(fixture_paths, tmp_path, capsys):
    traces, contracts = fixture_paths
    fps = tmp_path / "fps.ndjson"
    assert main(["fingerprint", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(fps)]) == 0
    fresh = tmp_path / "fresh.json"
    reused = tmp_path / "reused.json"
    assert main(["evaluate-lsh", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(fresh)]) == 0
    assert main(["evaluate-lsh", "--traces", str(traces), "--contracts", str(contracts),
                 "--fingerprints", str(fps), "--out", str(reused)]) == 0
    assert fresh.read_bytes() == reused.read_bytes()


def _fingerprints_file(fixture_paths, tmp_path, *global_args):
    traces, contracts = fixture_paths
    fps = tmp_path / "fps.ndjson"
    assert main([*global_args, "fingerprint", "--traces", str(traces),
                 "--contracts", str(contracts), "--out", str(fps)]) == 0
    return fps


def _evaluate_with(fixture_paths, fps, seed: int = 0, k: int = 256):
    traces, contracts = fixture_paths
    return main(["--seed", str(seed), "evaluate-lsh", "--traces", str(traces),
                 "--contracts", str(contracts), "--fingerprints", str(fps), "--k", str(k)])


@pytest.mark.parametrize("edit", [
    lambda row: "{not json",
    lambda row: json.dumps({k: v for k, v in json.loads(row).items() if k != "k"}),
    lambda row: json.dumps({**json.loads(row), "extra": 1}),
    lambda row: json.dumps({**json.loads(row), "signature": "zz" * 8 * 256}),
    lambda row: json.dumps({**json.loads(row), "signature": "00" * 8 * 255}),
    lambda row: json.dumps({**json.loads(row), "k": "256"}),
    lambda row: json.dumps({**json.loads(row), "seed": 0.5}),
    lambda row: json.dumps({**json.loads(row), "address": 7}),
    lambda row: "[1, 2]",
    lambda row: "\udcff" + row,  # written as a lone 0xff byte
], ids=["bad-json", "missing-field", "unknown-field", "non-hex-signature",
        "short-signature", "string-k", "float-seed", "bad-address", "not-an-object", "bad-utf8"])
def test_malformed_fingerprints_file_names_file_and_line(fixture_paths, tmp_path, capsys, edit):
    fps = _fingerprints_file(fixture_paths, tmp_path)
    rows = fps.read_text().splitlines()
    rows[1] = edit(rows[1])
    fps.write_text("\n".join(rows) + "\n", errors="surrogateescape")
    capsys.readouterr()
    assert _evaluate_with(fixture_paths, fps) == 1
    err = capsys.readouterr().err
    assert f"{fps}:2:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed, k", [(5, 64), (0, 64), (5, 256)])
def test_fingerprints_with_other_k_or_seed_are_rejected(fixture_paths, tmp_path, capsys, seed, k):
    fps = _fingerprints_file(fixture_paths, tmp_path)
    capsys.readouterr()
    assert _evaluate_with(fixture_paths, fps, seed=seed, k=k) == 1
    err = capsys.readouterr().err
    assert str(fps) in err and "k 256, seed 0" in err


def test_fingerprints_matching_nondefault_flags_are_accepted(fixture_paths, tmp_path):
    fps = _fingerprints_file(fixture_paths, tmp_path, "--seed", "5")
    assert _evaluate_with(fixture_paths, fps, seed=5) == 0


def test_fingerprint_rows_disagreeing_on_seed_are_rejected(fixture_paths, tmp_path, capsys):
    fps = _fingerprints_file(fixture_paths, tmp_path)
    (tmp_path / "seed5").mkdir()
    other = _fingerprints_file(fixture_paths, tmp_path / "seed5", "--seed", "5")
    rows = fps.read_text().splitlines()
    rows[2] = other.read_text().splitlines()[2]
    fps.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert _evaluate_with(fixture_paths, fps) == 1
    err = capsys.readouterr().err
    assert f"{fps}:3:" in err and "seed 5" in err
    assert "Traceback" not in err


FINDING = {
    "tool": "slither", "vuln_type": "reentrancy-eth", "contract": ADDR_A,
    "directory": "src", "filename": "Core.sol",
    "start_line": 3, "end_line": 4, "message": "reentrancy",
}


def _vuln_lifecycle(fixture_paths, tmp_path, *extra_args):
    """vuln-lifecycle over the fixture and tmp_path/findings.ndjson, written with one
    finding unless the test wrote it first."""
    traces, contracts = fixture_paths
    findings = tmp_path / "findings.ndjson"
    if not findings.exists():
        findings.write_text(json.dumps(FINDING) + "\n")
    return main(["vuln-lifecycle", "--traces", str(traces), "--contracts", str(contracts),
                 "--findings", str(findings), "--out", str(tmp_path / "lifecycle.json"),
                 *extra_args])


@pytest.mark.parametrize("which", ["traces", "contracts", "findings"])
def test_non_utf8_input_names_file_and_line(fixture_paths, tmp_path, capsys, which):
    findings = tmp_path / "findings.ndjson"
    findings.write_text(json.dumps(FINDING) + "\n" + json.dumps(FINDING) + "\n")
    path = {"traces": fixture_paths[0], "contracts": fixture_paths[1], "findings": findings}[which]
    first, second, *rest = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join([first, second[:5] + b"\xff" + second[5:], *rest]))
    capsys.readouterr()
    assert _vuln_lifecycle(fixture_paths, tmp_path) == 1
    err = capsys.readouterr().err
    assert f"{path}:2: invalid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"{not json", b'{"slither": {"\xff": "x"}}'],
                         ids=["not-json", "not-utf8"])
def test_malformed_category_map_is_a_parse_error(fixture_paths, tmp_path, capsys, content):
    category_map = tmp_path / "categories.json"
    category_map.write_bytes(content)
    assert _vuln_lifecycle(fixture_paths, tmp_path, "--category-map", str(category_map)) == 1
    err = capsys.readouterr().err
    assert f"{category_map}:1: invalid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, edit, message", [
    ("manifest.json", lambda text: text.replace('"bundle_version": "1"', '"bundle_version": "9"'),
     "bundle_version '9' is not the supported '1'"),
    ("contract_pairs.json",
     lambda text: json.dumps([{k: v for k, v in row.items() if k != "gap_days"}
                              for row in json.loads(text)]),
     "row lacks field 'gap_days'"),
    ("contract_pairs.json",
     lambda text: json.dumps([{**row, "successor_window": {"first_call": 1}}
                              for row in json.loads(text)]),
     "row lacks field 'last_call'"),
    ("diagnostics.json",
     lambda text: json.dumps({**json.loads(text), "lineage_exclusions": [
         {"proxy": PROXY, "callee": ADDR_C, "reason": "BOGUS"}]}),
     "malformed row"),
    ("lineages.json", lambda text: text[:len(text) // 2], "invalid JSON"),
], ids=["other-version", "missing-field", "missing-window-field", "unknown-reason", "truncated"])
def test_malformed_bundle_names_the_file(fixture_paths, tmp_path, capsys, name, edit, message):
    traces, contracts = fixture_paths
    bundle = tmp_path / "bundle"
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(bundle)]) == 0
    (bundle / name).write_text(edit((bundle / name).read_text()))
    capsys.readouterr()
    assert main(["stats", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert str(bundle / name) in err and message in err
    assert "Traceback" not in err


def test_build_lineages_and_pair_write_the_bundle_rows(tmp_path):
    traces, contracts = write_corpus_fixtures(varied_sourced_corpus(random.Random(500)),
                                              tmp_path / "in")
    corpus_args = ["--traces", str(traces), "--contracts", str(contracts)]
    for command in ("emit", "build-lineages", "pair"):
        assert main([command, *corpus_args, "--out", str(tmp_path / command)]) == 0

    def table(command, name):
        return (tmp_path / command / name).read_bytes()

    for command, name in [("build-lineages", "lineages.json"), ("pair", "contract_pairs.json"),
                          ("pair", "file_pairs.json"), ("pair", "function_pairs.json")]:
        assert table(command, name) == table("emit", name)
    exclusions = json.loads(table("emit", "diagnostics.json"))["lineage_exclusions"]
    assert exclusions
    assert json.loads(table("build-lineages", "diagnostics.json"))["lineage_exclusions"] == exclusions


def test_pair_command_writes_tables(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    out = tmp_path / "pairs"
    assert main(["pair", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out)]) == 0
    contract_pairs = json.loads((out / "contract_pairs.json").read_text())
    assert [(p["predecessor"], p["successor"]) for p in contract_pairs] == [(ADDR_A, ADDR_B)]
    file_pairs = json.loads((out / "file_pairs.json").read_text())
    assert file_pairs[0]["line_similarity"] == 1.0
    function_pairs = json.loads((out / "function_pairs.json").read_text())
    assert function_pairs[0]["match_kind"] == "EXACT_SIGNATURE"


def test_vuln_lifecycle_summary(fixture_paths, tmp_path):
    assert _vuln_lifecycle(fixture_paths, tmp_path) == 0
    payload = json.loads((tmp_path / "lifecycle.json").read_text())
    assert payload["summary"]["findings"] == {
        "total": 1, "introduced": 0, "persisted": 0, "disappeared": 1,
    }


def test_emit_runs_are_byte_identical(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out1)]) == 0
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "proxylineage" in capsys.readouterr().out


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1
