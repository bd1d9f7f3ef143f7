"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from proxylineage import (ActivityWindow, ContractPair, Corpus, build_bundle, cli, emit_dataset,
                          load_corpus)
from proxylineage.cli import main
from proxylineage.corpus import json_text
from proxylineage.evaluation import LineageEvaluator, results_to_jsonable
from proxylineage.fingerprint import Fingerprint, fingerprint_contracts, write_fingerprints
from proxylineage.lineage import Lineage, LineageVersion, build_lineages

from conftest import ADDR_A, ADDR_B, ADDR_C, CREATOR_X, CREATOR_Y, PROXY, PROXY2
from corpusgen import (
    addr_from_int,
    contract_row,
    event_row,
    random_rule_corpus,
    varied_sourced_corpus,
    write_contract_fixture,
    write_corpus_fixtures,
    write_trace_fixture,
)
from conftest import make_record
from proxylineage import SourceFile, __version__

SRC = "pragma solidity ^0.8.0;\ncontract Core {\n    function f() public {\n    }\n}\n"


class RawRow(str):
    """A row edit's result written as it is; every other result goes through json.dumps."""


# one line nested far deeper than the JSON decoder's stack allows
DEEP_NESTING = RawRow("[" * 100_000 + "]" * 100_000)


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
    code = main(["evaluate-lsh", "--traces", str(traces), "--contracts", str(contracts)])
    assert code == 0
    rows = [row for row in json.loads(capsys.readouterr().out)
            if row["contract_type"] == "open-source" and row["similarity_threshold"] == "high"]
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


@pytest.mark.parametrize("traces_text", [None, "{not json\n"], ids=["valid", "unparsable"])
@pytest.mark.parametrize("command", ["fingerprint", "evaluate-lsh"])
@pytest.mark.parametrize("k", [100, 0])
def test_k_off_the_lsh_bands_is_rejected_before_input_is_read(fixture_paths, tmp_path, capsys,
                                                              traces_text, command, k):
    """`fingerprint --k` is checked before the fixtures are read, and so is the k of the first
    row of an `evaluate-lsh --fingerprints` file."""
    traces, contracts = fixture_paths
    if traces_text is not None:
        traces.write_text(traces_text)
    out = tmp_path / "out.ndjson"
    argv = [command, "--traces", str(traces), "--contracts", str(contracts), "--out", str(out)]
    message = f"signature length k must be a positive multiple of 64 (the LSH bands), got {k}"
    if command == "fingerprint":
        argv += ["--k", str(k)]
    else:
        fps = tmp_path / "fps.ndjson"
        write_fingerprints(fps, [Fingerprint(ADDR_A, k, 0, (0,) * k, 1)])
        argv += ["--fingerprints", str(fps)]
        # a row of k 0 is a bad value before it is a bad signature length
        message = f"{fps}:1: " + (message if k else "k must be >= 1, got 0")
    assert main(argv) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_seed_changes_fingerprints(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    one = tmp_path / "one.ndjson"
    two = tmp_path / "two.ndjson"
    assert main(["fingerprint", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(one)]) == 0
    assert main(["fingerprint", "--traces", str(traces), "--contracts", str(contracts),
                 "--seed", "7", "--out", str(two)]) == 0
    assert one.read_text() != two.read_text()
    rows = [json.loads(line) for line in two.read_text().splitlines()]
    assert all(r["seed"] == 7 for r in rows)


def test_evaluate_lsh_reuses_prebuilt_fingerprints(fixture_paths, tmp_path, capsys):
    """A file's k and seed are the run's: at the defaults the table equals the one computed in
    process, and at k 64, seed 5 it equals the evaluator's over fingerprints at those values."""
    traces, contracts = fixture_paths
    corpus_args = ["--traces", str(traces), "--contracts", str(contracts)]
    for seed, k in ((0, 256), (5, 64)):
        run = tmp_path / f"seed{seed}-k{k}"
        run.mkdir()
        fps = run / "fps.ndjson"
        assert main(["fingerprint", *corpus_args, "--out", str(fps),
                     "--k", str(k), "--seed", str(seed)]) == 0
        reused = run / "reused.json"
        assert main(["evaluate-lsh", *corpus_args, "--fingerprints", str(fps),
                     "--out", str(reused)]) == 0
        if (seed, k) == (0, 256):
            fresh = run / "fresh.json"
            assert main(["evaluate-lsh", *corpus_args, "--out", str(fresh)]) == 0
            assert fresh.read_bytes() == reused.read_bytes()
        else:
            corpus = load_corpus(traces, contracts)
            lineages, _ = build_lineages(corpus)
            evaluator = LineageEvaluator(corpus, lineages,
                                         fingerprint_contracts(corpus.contracts, k, seed))
            results, _ = evaluator.evaluate()
            assert reused.read_text() == json_text(results_to_jsonable(results))


def _fingerprints_file(fixture_paths, tmp_path, *options):
    """Fingerprints of the fixture, written by `fingerprint` with `options`."""
    traces, contracts = fixture_paths
    fps = tmp_path / "fps.ndjson"
    assert main(["fingerprint", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(fps), *options]) == 0
    return fps


def _evaluate_with(fixture_paths, fps):
    traces, contracts = fixture_paths
    return main(["evaluate-lsh", "--traces", str(traces), "--contracts", str(contracts),
                 "--fingerprints", str(fps)])


@pytest.mark.parametrize("edit, message", [
    (lambda row: "{not json", "invalid JSON: Expecting property name enclosed in double quotes"),
    (lambda row: json.dumps({k: v for k, v in json.loads(row).items() if k != "k"}),
     "fingerprint missing fields: k"),
    (lambda row: json.dumps({**json.loads(row), "extra": 1}), "fingerprint has unknown fields: extra"),
    (lambda row: json.dumps({**json.loads(row), "signature": "zz" * 8 * 256}),
     "signature must be a string of hex digits, got 'zzzz"),
    (lambda row: json.dumps({**json.loads(row), "signature": "00" * 8 * 255}),
     "signature has 4080 hex digits, k 256 needs 4096"),
    (lambda row: json.dumps({**json.loads(row), "k": "256"}), "k must be an integer, got '256'"),
    (lambda row: json.dumps({**json.loads(row), "seed": 0.5}), "seed must be an integer, got 0.5"),
    (lambda row: json.dumps({**json.loads(row), "address": 7}), "address must be a string, got int"),
    (lambda row: "[1, 2]", "fingerprint must be a JSON object, got list"),
    (lambda row: "\udcff" + row, "invalid UTF-8"),  # written as a lone 0xff byte
    (lambda row: json.dumps({**json.loads(row), "k": "K"}).replace('"K"', "2" * 5001),
     "invalid JSON: integer longer than"),
    (lambda row: DEEP_NESTING, "invalid JSON: nested deeper than the decoder allows"),
], ids=["bad-json", "missing-field", "unknown-field", "non-hex-signature",
        "short-signature", "string-k", "float-seed", "bad-address", "not-an-object", "bad-utf8",
        "overlong-k", "deep-nesting"])
def test_malformed_fingerprints_file_names_file_and_line(fixture_paths, tmp_path, capsys, edit,
                                                         message):
    fps = _fingerprints_file(fixture_paths, tmp_path)
    rows = fps.read_text().splitlines()
    rows[1] = edit(rows[1])
    fps.write_text("\n".join(rows) + "\n", errors="surrogateescape")
    capsys.readouterr()
    assert _evaluate_with(fixture_paths, fps) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fps}:2: {message}")
    assert "Traceback" not in err


def test_fingerprints_matching_nondefault_flags_are_accepted(fixture_paths, tmp_path):
    fps = _fingerprints_file(fixture_paths, tmp_path, "--k", "64", "--seed", "5")
    assert _evaluate_with(fixture_paths, fps) == 0


def _mix_rows(fixture_paths, tmp_path, *options) -> Path:
    """A default fingerprints file whose third row is written with `options`."""
    fps = _fingerprints_file(fixture_paths, tmp_path)
    (tmp_path / "other").mkdir()
    other = _fingerprints_file(fixture_paths, tmp_path / "other", *options)
    rows = fps.read_text().splitlines()
    rows[2] = other.read_text().splitlines()[2]
    fps.write_text("\n".join(rows) + "\n")
    return fps


def test_fingerprint_rows_disagreeing_on_seed_are_rejected(fixture_paths, tmp_path, capsys):
    fps = _mix_rows(fixture_paths, tmp_path, "--seed", "5")
    capsys.readouterr()
    assert _evaluate_with(fixture_paths, fps) == 1
    err = capsys.readouterr().err
    assert f"{fps}:3:" in err and "seed 5" in err
    assert "Traceback" not in err


def test_fingerprint_rows_disagreeing_on_k_are_rejected(fixture_paths, tmp_path, capsys):
    fps = _mix_rows(fixture_paths, tmp_path, "--k", "64")
    capsys.readouterr()
    assert _evaluate_with(fixture_paths, fps) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {fps}:3: fingerprint has k 64, seed 0; "
                   "the first row has k 256, seed 0\n")


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


def _without(row: dict, field: str) -> dict:
    return {key: value for key, value in row.items() if key != field}


def _edit_file(edit):
    """An edit of a contract row that applies `edit` to its first file entry."""
    return lambda row: {**row, "files": [edit(row["files"][0]), *row["files"][1:]]}


def _with(field: str, value):
    return lambda row: {**row, field: value}


def _raw_field(field: str, raw: str):
    """An edit that writes `field` first, as the JSON text `raw`, which json.dumps would not
    write. Its value starts in the same column whatever the rest of the row."""
    return lambda row: RawRow(f'{{"{field}": {raw}, ' + json.dumps(_without(row, field))[1:])


def _cut_inside(field: str):
    """An edit that writes `field` first and cuts the row off after its value's first character."""
    return lambda row: RawRow(json.dumps({field: row[field], **row})[:len(f'{{"{field}": "x')])


LONE_SURROGATE = "holds the lone surrogate U+{}, which UTF-8 cannot encode"


# Every NDJSON reader checks a row's shape with one checker, so its faults read alike.
MALFORMED_ROWS = [
    ("traces", lambda row: [row], "trace event must be a JSON object, got list"),
    ("traces", lambda row: _without(row, "selector"), "trace event missing fields: selector"),
    ("traces", lambda row: {**row, "note": 1}, "trace event has unknown fields: note"),
    ("traces", lambda row: {**row, "proxy_address": 7}, "proxy_address must be a string, got int"),
    ("traces", lambda row: DEEP_NESTING, "invalid JSON: nested deeper than the decoder allows"),
    ("contracts", lambda row: "row", "contract record must be a JSON object, got str"),
    ("contracts", lambda row: _without(_without(row, "verified"), "creator"),
     "contract record missing fields: creator, verified"),
    ("contracts", lambda row: {**row, "note": 1}, "contract record has unknown fields: note"),
    ("contracts", lambda row: {**row, "creator": None}, "creator must be a string, got NoneType"),
    ("contracts", lambda row: DEEP_NESTING, "invalid JSON: nested deeper than the decoder allows"),
    ("contracts", _edit_file(lambda file: 7), "contract record files[0] must be a JSON object, got int"),
    ("contracts", _edit_file(lambda file: _without(file, "content")),
     "contract record files[0] missing fields: content"),
    ("contracts", _edit_file(lambda file: {**file, "size": 1}),
     "contract record files[0] has unknown fields: size"),
    ("contracts", _edit_file(lambda file: {**file, "content": [SRC]}),
     "contract record files[0] content must be a string, got list"),
    ("contracts", _edit_file(lambda file: {**file, "filename": 7}),
     "contract record files[0] filename must be a string, got int"),
    ("findings", lambda row: None, "finding must be a JSON object, got NoneType"),
    ("findings", lambda row: _without(row, "message"), "finding missing fields: message"),
    ("findings", lambda row: {**row, "severity": "high", "note": 1},
     "finding has unknown fields: note, severity"),
    ("findings", lambda row: {**row, "directory": 7}, "directory must be a string, got int"),
    ("findings", lambda row: {**row, "start_line": 3, "end_line": 2},
     "start_line 3 is after end_line 2"),
    ("findings", lambda row: {**row, "start_line": 0}, "start_line must be >= 1, got 0"),
    ("findings", lambda row: DEEP_NESTING, "invalid JSON: nested deeper than the decoder allows"),
    # json.dumps writes a lone surrogate as a \\u escape, which the decoder reads back
    ("traces", lambda row: {**row, "tx_id": "tx\ud800"},
     f"tx_id {LONE_SURROGATE.format('D800')}"),
    ("contracts", lambda row: {"\udfff": 1, **row}, f"a key {LONE_SURROGATE.format('DFFF')}"),
    ("contracts", _edit_file(lambda file: {**file, "content": file["content"] + "\ud800"}),
     f"files[0].content {LONE_SURROGATE.format('D800')}"),
    ("findings", lambda row: {**row, "message": "\udc00 reentrancy"},
     f"message {LONE_SURROGATE.format('DC00')}"),
    # a filename is a path segment as each directory segment is
    ("contracts", _edit_file(lambda file: {**file, "filename": "A\\B.sol"}),
     "contract record files[0] filename must use forward slashes: " + repr("A\\B.sol")),
    ("contracts", _edit_file(lambda file: {**file, "filename": "A\x00.sol"}),
     "contract record files[0] filename must not hold a NUL character: " + repr("A\x00.sol")),
    ("contracts", _edit_file(lambda file: {**file, "directory": "src\x00"}),
     "contract record files[0] directory must not hold a NUL character: " + repr("src\x00")),
]
MALFORMED_ROW_IDS = [
    "trace-not-an-object", "trace-missing-field", "trace-extra-field", "trace-text-not-a-string",
    "trace-deep-nesting", "contract-not-an-object", "contract-missing-fields",
    "contract-extra-field", "contract-text-not-a-string", "contract-deep-nesting",
    "file-not-an-object", "file-missing-field", "file-extra-field", "file-text-not-a-string",
    "file-name-not-a-string", "finding-not-an-object", "finding-missing-field",
    "finding-extra-fields", "finding-text-not-a-string", "finding-lines-reversed",
    "finding-line-zero", "finding-deep-nesting", "trace-lone-surrogate",
    "contract-key-lone-surrogate", "file-lone-surrogate", "finding-lone-surrogate",
    "file-name-backslash", "file-name-nul", "directory-nul"
]
INT_LIMIT = sys.get_int_max_str_digits()
LONG_INTEGER_ERROR = f"invalid JSON: integer longer than {INT_LIMIT} digits"
# JSON that json.loads reads as a float (NaN and Infinity, which json.dumps writes) or
# rejects: a leading BOM, an integer longer than int() converts, a raw NUL in a string and
# a string cut off by the end of its row. The last two messages name the column json reports.
for _which, _row, _number, _text in [("traces", "trace", "timestamp", "tx_id"),
                                     ("contracts", "contract", "deploy_timestamp", "creator"),
                                     ("findings", "finding", "start_line", "message")]:
    _value_column = len(f'{{"{_text}": ') + 1  # of the value of the field written first
    MALFORMED_ROWS += [
        (_which, _with(_number, float("nan")), f"{_number} must be an integer, got nan"),
        (_which, _with(_number, float("inf")), f"{_number} must be an integer, got inf"),
        (_which, lambda row: RawRow("\ufeff" + json.dumps(row)),
         "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (_which, _raw_field(_number, "9" * (INT_LIMIT + 1)), LONG_INTEGER_ERROR),
        (_which, _raw_field(_text, '"a\x00b"'),
         f"invalid JSON: Invalid control character at column {_value_column + 2}"),
        (_which, _cut_inside(_text),
         f"invalid JSON: Unterminated string starting at column {_value_column}"),
    ]
    MALFORMED_ROW_IDS += [f"{_row}-{shape}" for shape in ("nan", "infinity", "bom",
                          "overlong-integer", "raw-nul", "unterminated-string")]


@pytest.mark.parametrize("which, edit, message", MALFORMED_ROWS, ids=MALFORMED_ROW_IDS)
def test_malformed_row_names_file_and_line(fixture_paths, tmp_path, capsys, which, edit, message):
    findings = tmp_path / "findings.ndjson"
    findings.write_text(json.dumps(FINDING) + "\n" + json.dumps(FINDING) + "\n")
    path = {"traces": fixture_paths[0], "contracts": fixture_paths[1], "findings": findings}[which]
    first, second, *rest = path.read_text().split("\n")
    edited = edit(json.loads(second))
    path.write_text("\n".join([first, edited if isinstance(edited, RawRow) else json.dumps(edited),
                               *rest]))
    capsys.readouterr()
    assert _vuln_lifecycle(fixture_paths, tmp_path) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:2: {message}\n"


@pytest.mark.parametrize(
    "edit, message",
    [row[1:] for row in MALFORMED_ROWS if row[0] == "traces"],
    ids=[name for row, name in zip(MALFORMED_ROWS, MALFORMED_ROW_IDS) if row[0] == "traces"])
def test_malformed_trace_row_in_the_last_piece_names_file_and_line(fixture_paths, tmp_path,
                                                                   capsys, edit, message):
    # the bad row is the last line of the file, after more valid bytes than it has
    traces = fixture_paths[0]
    first, *_ = traces.read_text().splitlines()
    edited = edit(json.loads(first))
    bad = edited if isinstance(edited, RawRow) else json.dumps(edited)
    valid = [json.dumps({**json.loads(first), "tx_id": f"pad{i}"})
             for i in range(len(bad) // len(first) + 2)]
    traces.write_text("".join(row + "\n" for row in valid) + bad + "\n")
    capsys.readouterr()
    assert _vuln_lifecycle(fixture_paths, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {traces}:{len(valid) + 1}: {message}\n"


@pytest.mark.parametrize("content", [b"{not json", b'{"slither": {"\xff": "x"}}',
                                     DEEP_NESTING.encode()],
                         ids=["not-json", "not-utf8", "nested-too-deep"])
def test_malformed_category_map_is_a_parse_error(fixture_paths, tmp_path, capsys, content):
    category_map = tmp_path / "categories.json"
    category_map.write_bytes(content)
    assert _vuln_lifecycle(fixture_paths, tmp_path, "--category-map", str(category_map)) == 1
    err = capsys.readouterr().err
    assert f"{category_map}:1: invalid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["emit", "vuln-lifecycle"])
@pytest.mark.parametrize("which, line, field, value", [
    ("traces", 4, "timestamp", 10**315),  # beyond any datetime or float
    ("traces", 4, "timestamp", 10**12),  # in the year 33658, beyond any datetime
    ("contracts", 2, "deploy_timestamp", 10**12),
], ids=["trace-timestamp-1e315", "trace-timestamp-1e12", "deploy-timestamp-1e12"])
def test_timestamp_after_year_9999_names_file_and_line(fixture_paths, tmp_path, capsys, command,
                                                       which, line, field, value):
    path = fixture_paths[which == "contracts"]
    rows = path.read_text().splitlines()
    rows[line - 1] = json.dumps({**json.loads(rows[line - 1]), field: value})
    path.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    if command == "emit":
        code = main(["emit", "--traces", str(fixture_paths[0]), "--contracts", str(fixture_paths[1]),
                     "--out", str(tmp_path / "bundle")])
    else:
        code = _vuln_lifecycle(fixture_paths, tmp_path)
    assert code == 1
    assert capsys.readouterr().err == (f"error: {path}:{line}: {field} must be <= 253402300799 "
                                       f"(9999-12-31T23:59:59Z), got {value}\n")


def test_overlong_integer_in_a_json_document_names_file_and_line(fixture_paths, tmp_path, capsys):
    category_map = tmp_path / "categories.json"
    category_map.write_text('{\n  "slither": {\n    "reentrancy-eth": %s\n  }\n}\n' % ("9" * 5001))
    assert _vuln_lifecycle(fixture_paths, tmp_path, "--category-map", str(category_map)) == 1
    assert capsys.readouterr().err == f"error: {category_map}:3: {LONG_INTEGER_ERROR}\n"


def _edit_rows(text: str, **values) -> str:
    """A bundle table with `values` set in each of its rows."""
    return json.dumps([{**row, **values} for row in json.loads(text)])


def _pair_mismatch(**edited) -> str:
    """The error for a contract_pairs.json whose one row has the `edited` fields."""
    derived = ContractPair(PROXY, ADDR_A, ADDR_B, (11 - 10) / 86400,
                           ActivityWindow(1, 10), ActivityWindow(11, 20))
    return f"{derived._replace(**edited)} where the lineages give {derived}"


def _lineage_mismatch(**edited) -> str:
    """The error for a lineages.json whose one row has the `edited` fields."""
    derived = Lineage(PROXY, CREATOR_X, (LineageVersion(ADDR_A, ActivityWindow(1, 10)),
                                         LineageVersion(ADDR_B, ActivityWindow(11, 20))))
    return f"{derived._replace(**edited)} where its versions give {derived}"


def _split_lineage(text: str) -> str:
    """lineages.json with its one lineage split into two one-version lineages."""
    row, = json.loads(text)
    return json.dumps([{**row, "versions": row["versions"][:1]},
                       {**row, "proxy": PROXY2, "versions": row["versions"][1:]}])


def _edit_diagnostics(**values):
    """An edit of diagnostics.json that sets its top-level `values`."""
    return lambda text: json.dumps({**json.loads(text), **values})


def _edit_function(side: str, **values):
    """An edit of function_pairs.json that sets `values` in each row's `side` function."""
    return lambda text: json.dumps([{**row, side: {**row[side], **values}}
                                    for row in json.loads(text)])


UNPAIRED_FUNCTION = {"directory": "src", "predecessor_filename": "Core.sol",
                     "successor_filename": "Core.sol", "side": "successor", "name": "g",
                     "signature": "g()", "start_line": 5, "end_line": 6}


def _edit_unpaired(**values):
    """An edit of diagnostics.json that lists one unpaired function, with `values`, per pair."""
    return lambda text: json.dumps({**(doc := json.loads(text)), "pairs": [
        {**row, "unpaired_functions": [UNPAIRED_FUNCTION | values]} for row in doc["pairs"]]})


def _repeat_first_row(text: str) -> str:
    """A bundle table with a copy of its first row appended."""
    rows = json.loads(text)
    return json.dumps([*rows, rows[0]])


@pytest.mark.parametrize("name, edit, message", [
    ("manifest.json", lambda text: text.replace('"bundle_version": "1"', '"bundle_version": "9"'),
     "bundle_version '9' is not the supported '1'"),
    ("contract_pairs.json",
     lambda text: json.dumps([{k: v for k, v in row.items() if k != "gap_days"}
                              for row in json.loads(text)]),
     "row missing fields: gap_days"),
    ("contract_pairs.json",
     lambda text: json.dumps([{**row, "successor_window": {"first_call": 1}}
                              for row in json.loads(text)]),
     "row missing fields: last_call"),
    ("diagnostics.json",
     lambda text: json.dumps({**json.loads(text), "lineage_exclusions": [
         {"proxy": PROXY, "callee": ADDR_C, "reason": "BOGUS"}]}),
     "malformed row"),
    ("lineages.json", lambda text: text[:len(text) // 2], "invalid JSON"),
    ("lineages.json", lambda text: text.replace('"last_call": 20', '"last_call": ' + "9" * 5001),
     "invalid JSON: integer longer than"),
    # contract rows are checked as contract fixture rows are
    ("contracts.json", lambda text: _edit_rows(text, open_source="yes"),
     "open_source must be a boolean, got str"),
    ("contracts.json", lambda text: _edit_rows(text, address=7), "address must be a string, got int"),
    ("contracts.json", lambda text: _edit_rows(text, files=7), "files must be a list, got int"),
    ("contracts.json", lambda text: _edit_rows(text, files=[{"directory": 7, "filename": "A.sol"}]),
     "directory must be a string, got int"),
    # references across tables resolve
    ("contracts.json", lambda text: json.dumps(json.loads(text)[1:]),
     "bundle contracts do not match lineage members"),
    ("file_pairs.json",
     lambda text: json.dumps([*(rows := json.loads(text)), {**rows[0], "predecessor_filename": "X.sol"}]),
     "file pairs [('src', 'Core.sol', 'Core.sol', 0), ('src', 'X.sol', 'Core.sol', 0)] "
     "where match_files gives [('src', 'Core.sol', 'Core.sol', 0)]"),
    # what compute_stats computes with has its type
    ("file_pairs.json", lambda text: _edit_rows(text, line_similarity="high"),
     "line_similarity must be a number, got 'high'"),
    ("contract_pairs.json", lambda text: _edit_rows(text, gap_days=None),
     "gap_days must be a number, got None"),
    # a rate lies in [0, 1] and a gap is positive and finite; NaN is neither
    ("file_pairs.json", lambda text: _edit_rows(text, line_similarity=float("nan")),
     "line_similarity must be in [0, 1], got nan"),
    ("file_pairs.json", lambda text: _edit_rows(text, content_similarity=3.0),
     "content_similarity must be in [0, 1], got 3.0"),
    ("file_pairs.json", lambda text: _edit_rows(text, line_similarity=-7.5),
     "line_similarity must be in [0, 1], got -7.5"),
    ("contract_pairs.json", lambda text: _edit_rows(text, gap_days=float("inf")),
     "gap_days must be positive and finite, got inf"),
    ("contract_pairs.json", lambda text: _edit_rows(text, gap_days=0),
     "gap_days must be positive and finite, got 0"),
    # emit writes a float; an int that equals the derived value is not what it wrote
    ("contract_pairs.json", lambda text: _edit_rows(text, gap_days=1),
     "gap_days must be a float, got 1"),
    ("file_pairs.json", lambda text: _edit_rows(text, line_similarity=1),
     "line_similarity must be a float, got 1"),
    ("lineages.json", lambda text: _edit_rows(text, creator=["x"]),
     "creator must be a string, got list"),
    ("file_pairs.json", lambda text: _edit_rows(text, name_distance=True),
     "name_distance must be an integer, got True"),
    # a timestamp is at most 9999-12-31T23:59:59Z
    ("lineages.json", lambda text: text.replace('"last_call": 20', f'"last_call": {10**400}'),
     f"last_call must be <= 253402300799 (9999-12-31T23:59:59Z), got {10**400}"),
    ("contract_pairs.json",
     lambda text: _edit_rows(text, successor_window={"first_call": 10**400, "last_call": 10**400}),
     f"first_call must be <= 253402300799 (9999-12-31T23:59:59Z), got {10**400}"),
    # a window runs forward; each lineage is what classify_callees gives for its own versions
    ("lineages.json", lambda text: text.replace('"first_call": 11', '"first_call": 30'),
     f"window of proxy {PROXY}: first_call 30 is after last_call 20"),
    ("lineages.json", lambda text: text.replace('"first_call": 11', '"first_call": 10'),
     f"version {ADDR_B} of proxy {PROXY}: the lineage rules exclude it as OVERLAPPING_WINDOW"),
    ("lineages.json", lambda text: _edit_rows(text, creator=CREATOR_Y),
     _lineage_mismatch(creator=CREATOR_Y)),
    # the contract pairs are contract_pairs of the lineages: windows and gap included
    ("contract_pairs.json", lambda text: _edit_rows(text, gap_days=1e308),
     _pair_mismatch(gap_days=1e308)),
    ("contract_pairs.json",
     lambda text: _edit_rows(text, predecessor_window={"first_call": 10, "last_call": 1},
                             gap_days=12345.0),
     f"window of proxy {PROXY}: first_call 10 is after last_call 1"),
    ("contract_pairs.json", lambda text: _edit_rows(text, gap_days=12345.0),
     _pair_mismatch(gap_days=12345.0)),
    ("contract_pairs.json",
     lambda text: _edit_rows(text, predecessor_window={"first_call": 0, "last_call": 10}),
     _pair_mismatch(predecessor_window=ActivityWindow(0, 10))),
    # a pair's file pairs, unpaired files and flag are match_files of its contracts
    ("file_pairs.json", lambda text: _edit_rows(text, name_distance=1),
     "file pairs [('src', 'Core.sol', 'Core.sol', 1)] "
     "where match_files gives [('src', 'Core.sol', 'Core.sol', 0)]"),
    ("diagnostics.json",
     lambda text: json.dumps({**(doc := json.loads(text)), "pairs": [
         {**row, "unpaired_predecessor_files": [{"directory": "src", "filename": "X.sol"}]}
         for row in doc["pairs"]]}),
     f"pair {ADDR_A}->{ADDR_B}: unpaired files and flag ([('src', 'X.sol')], [], None) "
     "where match_files gives ([], [], None)"),
    ("diagnostics.json",
     lambda text: json.dumps({**(doc := json.loads(text)), "pairs": [
         {**row, "flag": "NOT_OPEN_SOURCE"} for row in doc["pairs"]]}),
     f"pair {ADDR_A}->{ADDR_B}: unpaired files and flag ([], [], 'NOT_OPEN_SOURCE') "
     "where match_files gives ([], [], None)"),
    # no row repeats the key of an earlier row of its table
    ("contracts.json", _repeat_first_row, f"contract address '{ADDR_A}' is listed twice"),
    ("lineages.json", _repeat_first_row, f"lineage of proxy '{PROXY}' is listed twice"),
    ("contract_pairs.json", _repeat_first_row,
     f"contract pair ('{PROXY}', '{ADDR_A}', '{ADDR_B}') is listed twice"),
    ("file_pairs.json", _repeat_first_row,
     f"file pair ('{PROXY}', '{ADDR_A}', '{ADDR_B}', 'src', 'Core.sol', 'Core.sol') is listed twice"),
    ("function_pairs.json", _repeat_first_row,
     "successor=FunctionUnit(name='f', signature='f()', body='', start_line=3, end_line=4), "
     "match_kind=<MatchKind.EXACT_SIGNATURE: 'EXACT_SIGNATURE'>)) is listed twice"),
    ("diagnostics.json",
     lambda text: json.dumps({**(doc := json.loads(text)), "pairs": doc["pairs"] * 2}),
     f"diagnostics row of contract pair ('{PROXY}', '{ADDR_A}', '{ADDR_B}') is listed twice"),
    ("contracts.json", lambda text: json.dumps([{**row, "files": row["files"] * 2}
                                                for row in json.loads(text)]),
     "contract record: duplicate file path 'src'/'Core.sol'"),
    # a function row holds what extract_functions gives: named, with a span of lines
    ("function_pairs.json", _edit_function("successor_function", name=7),
     "name must be a string, got int"),
    ("function_pairs.json", _edit_function("predecessor_function", signature=None),
     "signature must be a string, got NoneType"),
    ("function_pairs.json", _edit_function("predecessor_function", start_line="x"),
     "start_line must be an integer, got 'x'"),
    ("function_pairs.json", _edit_function("successor_function", end_line=0),
     "end_line must be >= 1, got 0"),
    ("function_pairs.json", _edit_function("predecessor_function", start_line=9),
     "start_line 9 is after end_line 4"),
    ("function_pairs.json", _edit_function("predecessor_function", end_line=99999),
     f"pair {ADDR_A}->{ADDR_B}: predecessor function f() ends on line 99999 of 'src'/'Core.sol', "
     "which has 5 lines"),
    ("diagnostics.json", _edit_unpaired(end_line=99999),
     f"pair {ADDR_A}->{ADDR_B}: successor function g() ends on line 99999 of 'src'/'Core.sol', "
     "which has 5 lines"),
    ("diagnostics.json", _edit_unpaired(successor_filename="X.sol"),
     f"pair {ADDR_A}->{ADDR_B}: successor function g() ends on line 6 of 'src'/'X.sol', "
     "which has 0 lines"),
    ("diagnostics.json", _edit_unpaired(start_line=None), "start_line must be an integer, got None"),
    ("diagnostics.json", _edit_unpaired(side="both"),
     "side must be 'predecessor' or 'successor', got 'both'"),
    ("lineages.json", lambda text: json.dumps([{**row, "versions": row["versions"][::-1]}
                                               for row in json.loads(text)]),
     _lineage_mismatch(versions=(LineageVersion(ADDR_B, ActivityWindow(11, 20)),
                                 LineageVersion(ADDR_A, ActivityWindow(1, 10))))),
    ("lineages.json", _split_lineage,
     f"version {ADDR_A} of proxy {PROXY}: the lineage rules exclude it as SINGLETON"),
    ("lineages.json", lambda text: _edit_rows(text, proxy="0x12"), "proxy must be 0x + 40 hex chars"),
    # every row holds the fields emit writes and no others, each of the kind emit writes
    ("manifest.json", lambda text: json.dumps({**json.loads(text), "note": "x"}),
     "row has unknown fields: note"),
    ("lineages.json", lambda text: _edit_rows(text, note="x"), "row has unknown fields: note"),
    ("lineages.json",
     lambda text: json.dumps([{**row, "versions": [{**v, "note": "x"} for v in row["versions"]]}
                              for row in json.loads(text)]),
     "row has unknown fields: note"),
    ("contract_pairs.json", lambda text: _edit_rows(text, note="x"), "row has unknown fields: note"),
    ("file_pairs.json", lambda text: _edit_rows(text, note="x"), "row has unknown fields: note"),
    ("function_pairs.json", lambda text: _edit_rows(text, note="x"), "row has unknown fields: note"),
    ("function_pairs.json", _edit_function("successor_function", body="x"),
     "row has unknown fields: body"),
    ("diagnostics.json", _edit_diagnostics(note="x"), "row has unknown fields: note"),
    ("diagnostics.json",
     lambda text: json.dumps({**(doc := json.loads(text)), "pairs": [
         {**row, "note": "x"} for row in doc["pairs"]]}),
     "row has unknown fields: note"),
    ("contracts.json",
     lambda text: json.dumps([{**row, "files": [{**f, "content": "x"} for f in row["files"]]}
                              for row in json.loads(text)]),
     "row has unknown fields: content"),
    ("diagnostics.json",
     lambda text: json.dumps({**(doc := json.loads(text)), "pairs": [
         {**row, "unpaired_successor_files": [{"directory": "src", "filename": "X.sol", "note": 1}]}
         for row in doc["pairs"]]}),
     "row has unknown fields: note"),
    ("lineages.json", lambda text: json.dumps([{}]), "row missing fields: creator, proxy, versions"),
    ("contracts.json", lambda text: json.dumps([[ADDR_A]]), "row must be a JSON object, got list"),
    ("contracts.json", lambda text: json.dumps([{k: v for k, v in row.items() if k != "files"}
                                                for row in json.loads(text)]),
     "row missing fields: files"),
    ("lineages.json", lambda text: json.dumps([[PROXY]]), "row must be a JSON object, got list"),
    ("manifest.json", lambda text: json.dumps({**json.loads(text), "generated_at": 20}),
     "generated_at must be a string, got int"),
    ("manifest.json", lambda text: json.dumps({**json.loads(text), "inputs": ["x"]}),
     "inputs must be an object, got list"),
    ("manifest.json", lambda text: json.dumps({**json.loads(text), "inputs": {"traces": 7}}),
     "inputs['traces'] must be a string, got int"),
    ("diagnostics.json",
     _edit_diagnostics(lineage_exclusions=[{"proxy": 7, "callee": ADDR_C, "reason": "SINGLETON"}]),
     "proxy must be a string, got int"),
    ("diagnostics.json",
     _edit_diagnostics(lineage_exclusions=[{"proxy": PROXY, "callee": "0x12", "reason": "SINGLETON"}]),
     "callee must be 0x + 40 hex chars, got '0x12'"),
    ("diagnostics.json", _edit_diagnostics(corpus=["ok", 7]), "corpus note must be a string, got int"),
    ("diagnostics.json", _edit_diagnostics(sources="x"), "sources must be a list, got str"),
    ("diagnostics.json", _edit_diagnostics(sources=[None]), "sources note must be a string, got NoneType"),
    ("diagnostics.json", _edit_unpaired(directory=7), "directory must be a string, got int"),
    ("diagnostics.json", _edit_unpaired(successor_filename=None),
     "successor_filename must be a string, got NoneType"),
    # members plus exclusions account for each (proxy, callee) observation once
    ("diagnostics.json",
     _edit_diagnostics(lineage_exclusions=[{"proxy": PROXY, "callee": ADDR_A, "reason": "SINGLETON"}]),
     f"callee {ADDR_A} of proxy {PROXY} is both excluded and a member of its lineage"),
    ("diagnostics.json",
     _edit_diagnostics(lineage_exclusions=2 * [{"proxy": PROXY, "callee": ADDR_C,
                                                "reason": "NOT_SAME_CREATOR"}]),
     f"exclusion of callee {ADDR_C} of proxy {PROXY} is listed twice"),
    ("lineages.json", lambda text: DEEP_NESTING, "invalid JSON: nested deeper than the decoder allows"),
], ids=["other-version", "missing-field", "missing-window-field", "unknown-reason", "truncated",
        "overlong-integer", "open-source-not-boolean", "contract-address-not-a-string",
        "contract-files-not-a-list", "contract-directory-not-a-string",
        "member-without-contract",
        "file-pair-of-unknown-file", "similarity-not-a-number", "gap-not-a-number",
        "similarity-nan", "similarity-above-one", "similarity-below-zero", "gap-infinite", "gap-zero",
        "gap-an-integer", "similarity-an-integer",
        "creator-not-an-address", "name-distance-not-an-integer", "lineage-window-after-year-9999",
        "gap-overflows-a-float", "lineage-window-reversed", "lineage-versions-overlap",
        "lineage-creator-not-its-members", "gap-huge", "pair-window-reversed",
        "gap-disagrees-with-windows", "pair-window-not-its-lineages", "file-pair-name-distance-edited",
        "unpaired-file-invented", "flag-invented", "repeated-contract", "repeated-lineage",
        "repeated-contract-pair", "repeated-file-pair", "repeated-function-pair",
        "repeated-pair-diagnostics", "repeated-file-path", "function-name-not-a-string",
        "function-signature-not-a-string", "function-start-line-not-an-integer",
        "function-end-line-zero", "function-lines-reversed", "function-ends-after-its-file",
        "unpaired-function-ends-after-its-file", "unpaired-function-of-unknown-file",
        "unpaired-start-line-null",
        "unpaired-side-invented", "lineage-versions-swapped", "lineage-of-one-version",
        "lineage-proxy-not-an-address", "manifest-extra-field", "lineage-extra-field",
        "lineage-version-extra-field", "contract-pair-extra-field", "file-pair-extra-field",
        "function-pair-extra-field", "function-with-a-body", "diagnostics-extra-field",
        "pair-diagnostics-extra-field", "contract-file-with-content", "unpaired-file-extra-field",
        "lineage-row-empty", "contract-row-not-an-object", "contract-row-without-files",
        "lineage-row-not-an-object", "generated-at-not-a-string", "inputs-not-an-object",
        "input-digest-not-a-string", "excluded-proxy-not-an-address",
        "excluded-callee-not-an-address", "corpus-note-not-a-string", "sources-not-a-list",
        "source-note-not-a-string", "unpaired-directory-not-a-string",
        "unpaired-filename-not-a-string", "exclusion-of-a-member", "exclusion-repeated",
        "deep-nesting"])
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


def test_function_rows_within_their_files_load(fixture_paths, tmp_path, capsys):
    # SRC has five newlines, the last of which ends it, so five lines; load_bundle does not
    # re-derive function pairs, so a renamed function and an invented unpaired one that end
    # within the file still load
    traces, contracts = fixture_paths
    bundle = tmp_path / "bundle"
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(bundle)]) == 0
    for name, edit in (("function_pairs.json", _edit_function("predecessor_function", name="h",
                                                              end_line=5)),
                       ("diagnostics.json", _edit_unpaired(end_line=5))):
        (bundle / name).write_text(edit((bundle / name).read_text()))
    assert main(["stats", str(bundle)]) == 0


@pytest.mark.parametrize("directory, filename", [
    ("../../..", "Core.sol"),
    ("src", "../../../../Core.sol"),
    ("", "{outside}"),
], ids=["dotdot-directory", "dotdot-filename", "absolute-filename"])
def test_bundle_source_path_outside_the_bundle_is_rejected(fixture_paths, tmp_path, capsys,
                                                          monkeypatch, directory, filename):
    traces, contracts = fixture_paths
    bundle = tmp_path / "bundle"
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(bundle)]) == 0
    outside = tmp_path / "Core.sol"
    outside.write_text("outside the bundle")
    rows = json.loads((bundle / "contracts.json").read_text())
    rows[0]["files"] = [{"directory": directory, "filename": filename.format(outside=outside)}]
    (bundle / "contracts.json").write_text(json.dumps(rows))
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self.resolve())
                        or read_bytes(self))
    capsys.readouterr()
    assert main(["stats", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert str(bundle / "contracts.json") in err and "illegal path segment" in err
    assert "Traceback" not in err
    assert bundle / "contracts.json" in reads and outside not in reads


def test_build_lineages_and_pair_write_the_bundle_rows(tmp_path):
    traces, contracts = write_corpus_fixtures(varied_sourced_corpus(random.Random(500)),
                                              tmp_path / "in")
    corpus_args = ["--traces", str(traces), "--contracts", str(contracts)]
    for command in ("emit", "build-lineages"):
        assert main([command, *corpus_args, "--out", str(tmp_path / command)]) == 0

    def table(command, name):
        return (tmp_path / command / name).read_bytes()

    assert table("build-lineages", "lineages.json") == table("emit", "lineages.json")
    exclusions = json.loads(table("emit", "diagnostics.json"))["lineage_exclusions"]
    assert exclusions
    assert json.loads(table("build-lineages", "diagnostics.json"))["lineage_exclusions"] == exclusions


def test_pair_command_writes_tables(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    out = tmp_path / "bundle"
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
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


def test_emit_writes_the_tree_of_the_library_pipeline(fixture_paths, tmp_path):
    # the fixtures are not in canonical form, so hashing their files would differ
    traces, contracts = fixture_paths
    assert main(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(tmp_path / "cli")]) == 0
    emit_dataset(build_bundle(load_corpus(traces, contracts)), tmp_path / "library")
    assert tree_bytes(tmp_path / "cli") == tree_bytes(tmp_path / "library")


def test_manifest_inputs_are_the_digests_of_the_ingested_corpus(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    for command, out in (("ingest", "corpus"), ("emit", "bundle")):
        assert main([command, "--traces", str(traces), "--contracts", str(contracts),
                     "--out", str(tmp_path / out)]) == 0
    inputs = json.loads((tmp_path / "bundle" / "manifest.json").read_text())["inputs"]
    assert inputs == {
        name: hashlib.sha256((tmp_path / "corpus" / f"{name}.ndjson").read_bytes()).hexdigest()
        for name in ("traces", "contracts")}
    assert inputs["traces"] != hashlib.sha256(traces.read_bytes()).hexdigest()


def test_malformed_upgrade_signature_fails_before_anything_is_written(fixture_paths, tmp_path,
                                                                      capsys):
    traces, contracts = fixture_paths
    out = tmp_path / "corpus"
    assert main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out), "--upgrade-signature", "upgrade To(address)"]) == 1
    assert "signature must not contain spaces" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "emit", "fingerprint"])
def test_lone_surrogate_in_a_source_fails_before_anything_is_written(fixture_paths, tmp_path,
                                                                     capsys, command):
    # the source would pass every field check, then fail to encode when it is hashed,
    # or written into a bundle
    traces, contracts = fixture_paths
    rows = contracts.read_text().splitlines()
    row = json.loads(rows[1])
    rows[1] = json.dumps({**row, "files": [{**row["files"][0], "content": "contract \ud800 {}"},
                                           *row["files"][1:]]})
    contracts.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {contracts}:2: files[0].content "
                                       f"{LONE_SURROGATE.format('D800')}\n")
    assert not out.exists()


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
    for command in ("ingest", "build-lineages", "fingerprint", "evaluate-lsh",
                    "vuln-lifecycle", "stats", "emit"):
        assert main([command, "--help"]) == 0
        assert f"proxylineage {command}" in capsys.readouterr().out


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


CORPUS_ARGS = ["--traces", "{traces}", "--contracts", "{contracts}"]


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["emit", *CORPUS_ARGS],
    ["emit", "--traces", "{missing}", "--contracts", "{contracts}", "--out", "{out}"],
    ["emit", "--traces", "{directory}", "--contracts", "{contracts}", "--out", "{out}"],
    ["stats", "{traces}"],
    ["vuln-lifecycle", *CORPUS_ARGS, "--out", "{out}"],
    ["fingerprint", *CORPUS_ARGS, "--out", "{out}", "--k", "abc"],
    ["evaluate-lsh", *CORPUS_ARGS, "--threshold", "nonsense"],
    ["evaluate-lsh", *CORPUS_ARGS, "--threshold", "high"],
    ["evaluate-lsh", *CORPUS_ARGS, "--scope", "all"],
    ["ingest", *CORPUS_ARGS, "--out", "{out}", "--allow-network"],
    ["pair", *CORPUS_ARGS, "--out", "{out}"],
    # only `fingerprint` takes a seed (argparse reads `5` as the command: "invalid choice"),
    # and `evaluate-lsh` takes k and seed from its --fingerprints file
    ["--seed", "5", "emit", *CORPUS_ARGS, "--out", "{out}"],
    ["evaluate-lsh", *CORPUS_ARGS, "--k", "64", "--out", "{out}"],
], ids=["no-command", "unknown-command", "missing-out", "missing-traces", "directory-traces",
        "file-bundle", "missing-findings", "non-integer-k", "unknown-threshold",
        "removed-threshold", "removed-scope", "removed-allow-network", "removed-pair",
        "removed-global-seed", "removed-evaluate-k"])
def test_usage_error_exits_one_with_usage_and_error(fixture_paths, tmp_path, capsys, argv):
    traces, contracts = fixture_paths
    (tmp_path / "directory").mkdir()
    places = {"traces": traces, "contracts": contracts, "missing": tmp_path / "missing",
              "directory": tmp_path / "directory", "out": tmp_path / "out"}
    assert main([arg.format(**places) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.split("\nerror: ")
    assert usage.startswith("usage: proxylineage")
    assert error.endswith("\n") and "Traceback" not in error
    assert not (tmp_path / "out").exists()


def test_version_prints_the_package_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"proxylineage, version {__version__}\n"


@pytest.mark.parametrize("argv, code", [
    (["build-lineages", *CORPUS_ARGS, "--out", "{out}"], 0),
    (["frobnicate"], 1),
    (["build-lineages", "--traces", "{bad}", "--contracts", "{contracts}", "--out", "{out}"], 1),
    (["stats", "{directory}"], 2),
    (["--version"], 0),
], ids=["success", "usage-error", "validation-error", "io-error", "version"])
@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_cyclic_collector_as_it_found_it(fixture_paths, tmp_path, capsys, argv,
                                                        code, collecting):
    traces, contracts = fixture_paths
    (tmp_path / "directory").mkdir()
    (tmp_path / "bad.ndjson").write_text("not json\n")
    places = {"traces": traces, "contracts": contracts, "bad": tmp_path / "bad.ndjson",
              "directory": tmp_path / "directory", "out": tmp_path / "out"}
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main([arg.format(**places) for arg in argv]) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_a_command_runs_with_the_cyclic_collector_paused(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "stats", lambda args: seen.append(gc.isenabled()))
    assert main(["stats", "."]) == 0
    assert seen == [False]


def _proxy_copies(corpus: Corpus, copies: int) -> Corpus:
    """`copies` disjoint copies of the corpus's proxies and transactions over its contracts."""
    return Corpus(events=[
        e._replace(proxy_address=addr_from_int(int(e.proxy_address, 16) + (copy << 64)),
                   tx_id=f"{e.tx_id}-{copy}")
        for copy in range(copies) for e in corpus.events], contracts=corpus.contracts)


def test_a_paused_collector_leaves_garbage_independent_of_input_size(tmp_path, capsys):
    # The records hold no reference cycles, so what a command leaves for the
    # collector is its own fixed set of objects, whatever the input size.
    small = random_rule_corpus(random.Random(3), max_proxies=24)
    inputs = {"small": small, "large": _proxy_copies(small, 4)}
    assert len(inputs["large"].events) == 4 * len(small.events)

    def garbage(name: str) -> int:
        traces, contracts = write_corpus_fixtures(inputs[name], tmp_path / name)
        assert main(["build-lineages", "--traces", str(traces), "--contracts", str(contracts),
                     "--out", str(tmp_path / f"{name}-out")]) == 0
        return gc.collect()

    was = gc.isenabled()
    gc.disable()
    try:
        garbage("small")  # the first run also imports the modules the command uses
        assert garbage("small") == garbage("large") > 0
    finally:
        (gc.enable if was else gc.disable)()


def test_repeated_flags_keep_their_order(fixture_paths, tmp_path):
    traces, contracts = fixture_paths
    signatures = ["upgradeToAndCall(address,bytes)", "setImplementation(address)",
                  "upgradeTo(address)"]
    out = tmp_path / "corpus"
    flags = [arg for signature in signatures for arg in ("--upgrade-signature", signature)]
    assert main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out), *flags]) == 0
    assert json.loads((out / "diagnostics.json").read_text())["upgrade_signatures"] == signatures

    # each report names one unknown contract, so each adds one diagnostic prefixed by its path
    reports = [tmp_path / name for name in ("second.ndjson", "first.ndjson", "third.ndjson")]
    for report in reports:
        report.write_text(json.dumps({**FINDING, "contract": "0x" + "99" * 20}) + "\n")
    assert main(["vuln-lifecycle", "--traces", str(traces), "--contracts", str(contracts),
                 *(arg for report in reports for arg in ("--findings", str(report))),
                 "--out", str(tmp_path / "lifecycle.json")]) == 0
    diagnostics = json.loads((tmp_path / "lifecycle.json").read_text())["diagnostics"]
    assert [d.split(": ")[0] for d in diagnostics] == [str(report) for report in reports]
