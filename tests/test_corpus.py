"""Selector computation and corpus loading."""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxylineage import (
    ContractRecord,
    Corpus,
    MatchKind,
    ParseError,
    SimilarityCategory,
    SourceFile,
    TraceEvent,
    ValidationError,
    build_lineages,
    compute_selector,
    keccak_256,
    load_corpus,
    monitored_selectors,
    upgrade_proxies,
    write_corpus,
)
from proxylineage.corpus import (
    _contract_line,
    _contract_lines,
    _iter_ndjson,
    corpus_digests,
    json_text,
    load_contract_records,
    load_trace_events,
    read_json,
    write_json,
)

from conftest import tx_conflict_message
from corpusgen import (eval_corpus, event_row, planted_eval_corpus, random_rule_corpus,
                       varied_sourced_corpus, write_contract_fixture, write_trace_fixture)
from oracles import (contract_to_obj, oracle_load_trace_events, oracle_selector,
                     oracle_trace_ndjson)

PROXY = "0x" + "11" * 20
CALLEE = "0x" + "aa" * 20


def test_selector_upgrade_to():
    assert compute_selector("upgradeTo(address)") == "0x3659cfe6"


def test_selector_transfer():
    assert compute_selector("transfer(address,uint256)") == "0xa9059cbb"


def test_keccak_empty_input_vector():
    digest = keccak_256(b"").hex()
    assert digest == "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"


@pytest.mark.parametrize("bad", [
    "upgradeTo (address)",
    "upgradeTo(address",
    "upgradeTo",
    "(address)",
    "upgradeTo(address))",
    "upgr adeTo(address)",
    "1name(address)",
])
def test_selector_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        compute_selector(bad)


def test_selector_allows_tuple_types():
    assert compute_selector("f((uint256,address),bytes)").startswith("0x")


def test_selector_matches_oracle_on_random_signatures():
    rng = random.Random(11)
    types = ["address", "uint256", "bytes", "bool", "uint8", "bytes32", "string"]
    for _ in range(150):
        name = "".join(rng.choice("abcdefgh_") for _ in range(rng.randint(1, 12)))
        params = ",".join(rng.choice(types) for _ in range(rng.randint(0, 4)))
        signature = f"{name}({params})"
        assert compute_selector(signature) == oracle_selector(signature)


def test_monitored_selectors_default():
    selectors = monitored_selectors()
    assert selectors == {
        "0x3659cfe6": "upgradeTo(address)",
        "0x4f1ef286": "upgradeToAndCall(address,bytes)",
    }


def _contract_row(address, creator="0x" + "e1" * 20, files=()):
    return {
        "address": address,
        "creator": creator,
        "deploy_timestamp": 0,
        "verified": True,
        "open_source": bool(files),
        "files": list(files),
    }


def test_load_empty_fixtures(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    traces.write_text("")
    contracts.write_text("")
    corpus = load_corpus(traces, contracts)
    assert corpus.events == []
    assert corpus.contracts == {}


def test_load_deduplicates_same_tx_and_callee(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, CALLEE, 20, 2, "tx2"),
    ])
    contracts.write_text("")
    corpus = load_corpus(traces, contracts)
    assert len(corpus.events) == 2
    assert any("duplicate" in d for d in corpus.diagnostics)


def test_two_proxies_sharing_a_callee_in_one_tx_are_both_kept(tmp_path):
    # Both proxies delegate to one implementation in the same transaction, and
    # that is the second proxy's only call. Deduplicating on (tx_id, callee)
    # alone dropped its event, so the proxy vanished from lineages and
    # exclusions alike.
    other_proxy = "0x" + "12" * 20
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(other_proxy, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, CALLEE, 20, 2, "tx2"),
    ])
    write_contract_fixture(contracts, [])
    corpus = load_corpus(traces, contracts)
    assert {(e.proxy_address, e.tx_id) for e in corpus.events} == {
        (PROXY, "tx1"), (other_proxy, "tx1"), (PROXY, "tx2"),
    }
    assert not any("duplicate" in d for d in corpus.diagnostics)
    lineages, diagnostics = build_lineages(corpus)
    accounted = {l.proxy for l in lineages} | {e.proxy for e in diagnostics.exclusions}
    assert accounted == {PROXY, other_proxy}


def test_load_rejects_short_address(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, "0x" + "a" * 39, 11, 2, "tx2"),
    ])
    contracts.write_text("")
    with pytest.raises(ParseError) as excinfo:
        load_corpus(traces, contracts)
    assert excinfo.value.line_number == 2


def test_load_rejects_unknown_field(tmp_path):
    traces = tmp_path / "t.ndjson"
    row = event_row(PROXY, CALLEE, 10, 1, "tx1")
    row["surprise"] = 1
    write_trace_fixture(traces, [row])
    with pytest.raises(ParseError):
        load_trace_events(traces)


def test_load_rejects_missing_field(tmp_path):
    traces = tmp_path / "t.ndjson"
    row = event_row(PROXY, CALLEE, 10, 1, "tx1")
    del row["selector"]
    write_trace_fixture(traces, [row])
    with pytest.raises(ParseError):
        load_trace_events(traces)


def test_load_rejects_invalid_json_with_line(tmp_path):
    traces = tmp_path / "t.ndjson"
    traces.write_text('{"proxy_address": }\n')
    with pytest.raises(ParseError) as excinfo:
        load_trace_events(traces)
    assert excinfo.value.line_number == 1


def test_addresses_normalized_to_lowercase(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [event_row(PROXY.upper().replace("0X", "0x"), CALLEE, 10, 1, "tx1")])
    contracts.write_text("")
    corpus = load_corpus(traces, contracts)
    assert corpus.events[0].proxy_address == PROXY


def test_contract_open_source_requires_files(tmp_path):
    contracts = tmp_path / "c.ndjson"
    row = _contract_row(CALLEE)
    row["open_source"] = True
    write_contract_fixture(contracts, [row])
    traces = tmp_path / "t.ndjson"
    traces.write_text("")
    with pytest.raises(ParseError):
        load_corpus(traces, contracts)


def test_contract_closed_source_forbids_files(tmp_path):
    contracts = tmp_path / "c.ndjson"
    row = _contract_row(CALLEE, files=[{"directory": "", "filename": "A.sol", "content": "x"}])
    row["open_source"] = False
    write_contract_fixture(contracts, [row])
    traces = tmp_path / "t.ndjson"
    traces.write_text("")
    with pytest.raises(ParseError):
        load_corpus(traces, contracts)


def test_contract_duplicate_address_rejected(tmp_path):
    contracts = tmp_path / "c.ndjson"
    write_contract_fixture(contracts, [_contract_row(CALLEE), _contract_row(CALLEE)])
    traces = tmp_path / "t.ndjson"
    traces.write_text("")
    with pytest.raises(ParseError) as excinfo:
        load_corpus(traces, contracts)
    assert excinfo.value.line_number == 2


def test_contract_rejects_traversal_directory(tmp_path):
    contracts = tmp_path / "c.ndjson"
    row = _contract_row(
        CALLEE, files=[{"directory": "../up", "filename": "A.sol", "content": "x"}]
    )
    write_contract_fixture(contracts, [row])
    traces = tmp_path / "t.ndjson"
    traces.write_text("")
    with pytest.raises(ParseError):
        load_corpus(traces, contracts)


def test_canonical_sort_and_input_order_independence(tmp_path):
    rows = [
        event_row(PROXY, CALLEE, 30, 3, "tx3"),
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, CALLEE, 20, 2, "tx2"),
    ]
    a_traces, b_traces = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    write_trace_fixture(a_traces, rows)
    write_trace_fixture(b_traces, list(reversed(rows)))
    contracts = tmp_path / "c.ndjson"
    contracts.write_text("")
    corpus_a = load_corpus(a_traces, contracts)
    corpus_b = load_corpus(b_traces, contracts)
    assert corpus_a.events == corpus_b.events
    assert [e.block_number for e in corpus_a.events] == [1, 2, 3]
    for corpus, out in ((corpus_a, tmp_path / "a_out"), (corpus_b, tmp_path / "b_out")):
        out.mkdir()
        write_corpus(corpus, out / "traces.ndjson", out / "contracts.ndjson")
    assert ((tmp_path / "a_out" / "traces.ndjson").read_bytes()
            == (tmp_path / "b_out" / "traces.ndjson").read_bytes())


def test_load_serialize_load_roundtrip(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, CALLEE, 25, 2, "tx2"),
    ])
    write_contract_fixture(contracts, [
        _contract_row(CALLEE, files=[{"directory": "src", "filename": "A.sol", "content": "contract A {}"}]),
    ])
    corpus = load_corpus(traces, contracts)
    out_traces = tmp_path / "t2.ndjson"
    out_contracts = tmp_path / "c2.ndjson"
    write_corpus(corpus, out_traces, out_contracts)
    reloaded = load_corpus(out_traces, out_contracts)
    # the data round-trips; the diagnostics are about the input, which had a duplicate
    assert (reloaded.events, reloaded.contracts) == (corpus.events, corpus.contracts)
    # serialization is byte-stable
    write_corpus(reloaded, tmp_path / "t3.ndjson", tmp_path / "c3.ndjson")
    assert (tmp_path / "t3.ndjson").read_bytes() == out_traces.read_bytes()
    assert (tmp_path / "c3.ndjson").read_bytes() == out_contracts.read_bytes()


def test_timestamp_block_inversion_diagnosed(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 100, 1, "tx1"),
        event_row(PROXY, CALLEE, 90, 2, "tx2"),  # later block, earlier time
    ])
    contracts.write_text("")
    corpus = load_corpus(traces, contracts)
    assert len(corpus.events) == 2
    assert any("non-monotonic" in d for d in corpus.diagnostics)


def test_unresolved_callee_diagnosed(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, CALLEE, 10, 1, "tx1")])
    contracts.write_text("")
    corpus = load_corpus(traces, contracts)
    assert any("no metadata" in d and CALLEE in d for d in corpus.diagnostics)


def test_upgrade_proxies_detects_monitored_selector(tmp_path):
    traces = tmp_path / "t.ndjson"
    contracts = tmp_path / "c.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 10, 1, "tx1", selector="0x3659cfe6"),
        event_row("0x" + "22" * 20, CALLEE, 11, 2, "tx2", selector="0xdeadbeef"),
    ])
    contracts.write_text("")
    corpus = load_corpus(traces, contracts)
    assert upgrade_proxies(corpus) == [PROXY]


def test_contract_record_keeps_its_files_in_path_order():
    files = [SourceFile("src", "B.sol", "b"), SourceFile("", "Z.sol", "z"),
             SourceFile("src", "A.sol", "first")]
    record = ContractRecord("0x" + "aa" * 20, "0x" + "e1" * 20, 0, True, True, files)
    assert record.files == (SourceFile("", "Z.sol", "z"), SourceFile("src", "A.sol", "first"),
                            SourceFile("src", "B.sol", "b"))
    # not even a hand-built record may repeat a path
    with pytest.raises(ValidationError, match="duplicate file path 'src'/'A.sol'"):
        ContractRecord("0x" + "aa" * 20, "0x" + "e1" * 20, 0, True, True,
                       [*files, SourceFile("src", "A.sol", "second")])
    with pytest.raises(ValidationError, match="duplicate file path 'src'/'B.sol'"):
        record._replace(files=[*files, SourceFile("src", "B.sol", "b")])


def test_contract_fixture_row_repeating_a_file_path_names_its_line(tmp_path):
    contracts = tmp_path / "c.ndjson"
    files = [{"directory": "src", "filename": name, "content": "x"}
             for name in ("T.sol", "A.sol", "T.sol")]
    write_contract_fixture(contracts, [_contract_row(PROXY), _contract_row(CALLEE, files=files)])
    with pytest.raises(ParseError) as excinfo:
        load_contract_records(contracts)
    assert str(excinfo.value) == (f"{contracts}:2: contract record: "
                                  "duplicate file path 'src'/'T.sol'")


_UNSORTED_FILES = (SourceFile("src", "B.sol", "b"), SourceFile("", "Z.sol", "z"),
                   SourceFile("src", "A.sol", "a"))
_RECORD_FIELDS = ("0x" + "aa" * 20, "0x" + "e1" * 20, 0, True, True)


# the test above builds a record positionally
@pytest.mark.parametrize("build", [
    lambda files: ContractRecord(**dict(zip(ContractRecord._fields, _RECORD_FIELDS)), files=files),
    # _make and _replace build a NamedTuple without calling its __new__
    lambda files: ContractRecord._make((*_RECORD_FIELDS, files)),
    lambda files: ContractRecord(*_RECORD_FIELDS)._replace(files=files),
], ids=["keyword", "_make", "_replace"])
def test_contract_record_sorts_its_files_however_built(build):
    record = build(_UNSORTED_FILES)
    assert type(record) is ContractRecord
    assert record.files == (SourceFile("", "Z.sol", "z"), SourceFile("src", "A.sol", "a"),
                            SourceFile("src", "B.sol", "b"))


def test_written_contract_records_are_sorted(tmp_path):
    from conftest import make_record

    a = make_record("0x" + "aa" * 20, "0x" + "e1" * 20)
    b = make_record("0x" + "bb" * 20, "0x" + "e1" * 20)
    write_corpus(Corpus(events=[], contracts={b.address: b, a.address: a}),
                 tmp_path / "t.ndjson", tmp_path / "c.ndjson")
    lines = (tmp_path / "c.ndjson").read_text().strip().split("\n")
    assert "0x" + "aa" * 20 in lines[0]
    assert "0x" + "bb" * 20 in lines[1]


EVENT_ROW = event_row(PROXY, CALLEE, 10, 1, "tx1")
EVENT_LINE = json.dumps(EVENT_ROW).encode()
# the event with NaN or Infinity for its timestamp, a leading BOM, an integer longer than
# int() converts, and a raw NUL in a string
SHAPED_LINES = [
    json.dumps({**EVENT_ROW, "timestamp": float("nan")}).encode(),
    json.dumps({**EVENT_ROW, "timestamp": float("inf")}).encode(),
    "\ufeff".encode() + EVENT_LINE,
    EVENT_LINE.replace(b": 10,", b": " + b"9" * (sys.get_int_max_str_digits() + 1) + b","),
    EVENT_LINE.replace(b'"tx1"', b'"tx\x001"'),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(EVENT_LINE), st.just(b""), st.binary(max_size=12),
                          st.sampled_from(SHAPED_LINES)), max_size=6))
def test_any_bytes_load_or_raise_parse_error_with_its_line(lines):
    data = b"\n".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ndjson"
        path.write_bytes(data)
        for read in (load_trace_events, read_json):
            try:
                read(path)
            except ParseError as exc:
                assert exc.path == str(path)
                assert 1 <= exc.line_number <= data.count(b"\n") + 1


_GOOD_ROWS = st.builds(
    event_row,
    proxy=st.sampled_from([PROXY, PROXY.upper(), "0x" + "1A" * 20]),
    callee=st.sampled_from([CALLEE, CALLEE.upper(), "0x" + "aA" * 20, "0x" + "bb" * 20]),
    timestamp=st.integers(0, 6),  # drawn apart from the block, so timestamps often go back
    block=st.integers(0, 4),  # few blocks: equal blocks are common
    tx_id=st.sampled_from(["t1", "t2", "t3"]),  # few transactions: duplicates are common
    selector=st.sampled_from(["0x3659cfe6", "0x3659CFE6", "0x4f1ef286"]),
)
_BAD_VALUES = {
    "tx_id": ["", 5],
    "timestamp": [True, 1.5, -3, "7", 10**12],
    "block_number": [False, 2.0, -1],
    "proxy_address": [[PROXY], "0x12", None],
    "callee_address": [{"a": CALLEE}, CALLEE + "\n"],
    "selector": ["0x3659", "0xzzzzzzzz", ["0x3659cfe6"]],
}


@st.composite
def _bad_rows(draw):
    row = draw(_GOOD_ROWS)
    kind = draw(st.sampled_from(["missing", "extra", "not-an-object", "value"]))
    if kind == "missing":
        del row[draw(st.sampled_from(sorted(row)))]
    elif kind == "extra":
        row["extra"] = 1
    elif kind == "not-an-object":
        return draw(st.sampled_from([[row], "row", 7, None]))
    else:  # with several bad values, the first one checked names the error
        for field in draw(st.lists(st.sampled_from(sorted(_BAD_VALUES)), min_size=1, unique=True)):
            row[field] = draw(st.sampled_from(_BAD_VALUES[field]))
    return row


def _outcome(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return str(exc), exc.line_number


@st.composite
def _consistent_rows(draw):
    """Valid rows, each with the block and timestamp of its tx_id's first row."""
    placed = {}
    rows = draw(st.lists(_GOOD_ROWS, max_size=14))
    for row in rows:
        place = (row["block_number"], row["timestamp"])
        row["block_number"], row["timestamp"] = placed.setdefault(row["tx_id"], place)
    return rows


@st.composite
def _trace_rows(draw):
    """Valid rows with, half the time, one or two malformed rows among them. In half the
    files the rows of a tx_id agree on block and timestamp; in the others a reused tx_id
    mostly moves to another block or timestamp."""
    rows = draw(st.one_of(_consistent_rows(), st.lists(_GOOD_ROWS, max_size=14)))
    for bad in draw(st.lists(_bad_rows(), max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), bad)
    return rows


@settings(max_examples=400, deadline=None)
@given(_trace_rows())
def test_trace_loading_matches_the_two_pass_oracle(rows):
    # equal events and diagnostics in order, or an equal ParseError on an equal line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ndjson"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert _outcome(load_trace_events, path) == _outcome(oracle_load_trace_events, path)


@pytest.mark.parametrize("field, value, message", [
    ("proxy_address", CALLEE[:-1],
     f"proxy_address must be 0x + 40 hex chars, got '{CALLEE[:-1]}'"),
    ("callee_address", "0x3659cfe6", "callee_address must be 0x + 40 hex chars, got '0x3659cfe6'"),
    ("selector", CALLEE, f"selector must be 0x + 8 hex chars, got '{CALLEE}'"),
    ("proxy_address", [PROXY], "proxy_address must be a string, got list"),
    ("callee_address", {"a": CALLEE}, "callee_address must be a string, got dict"),
    ("selector", ["0x3659cfe6"], "selector must be a string, got list"),
    ("callee_address", 7, "callee_address must be a string, got int"),
    ("timestamp", -1, "timestamp must be >= 0, got -1"),
    ("timestamp", 1.5, "timestamp must be an integer, got 1.5"),
    ("timestamp", 10**12, "timestamp must be <= 253402300799 (9999-12-31T23:59:59Z), "
                          "got 1000000000000"),
    ("block_number", True, "block_number must be an integer, got True"),
    ("block_number", "2", "block_number must be an integer, got '2'"),
    ("tx_id", "", "tx_id must be a non-empty string, got ''"),
    ("tx_id", 7, "tx_id must be a non-empty string, got int"),
    ("callee_address", CALLEE + "\n",
     f"callee_address must be 0x + 40 hex chars, got '{CALLEE}\\n'"),
    ("selector", "0x3659cfe6\n", "selector must be 0x + 8 hex chars, got '0x3659cfe6\\n'"),
], ids=["short-proxy", "selector-as-callee", "address-as-selector", "list-proxy",
        "object-callee", "list-selector", "int-callee", "negative-timestamp",
        "float-timestamp", "timestamp-after-year-9999", "bool-block", "string-block", "empty-tx", "int-tx",
        "newline-after-callee", "newline-after-selector"])
def test_bad_trace_value_is_a_parse_error_on_its_own_line(tmp_path, field, value, message):
    # Row 1 holds every value of the bad row validly, the selector and the
    # callee among them, so a per-load memo of validated values must not let
    # the bad row through; loading twice must raise twice.
    traces = tmp_path / "t.ndjson"
    good = event_row(PROXY, CALLEE, 10, 1, "tx1")
    write_trace_fixture(traces, [good, {**good, "tx_id": "tx2", field: value},
                                 {**good, "tx_id": "tx3"}])
    for _ in range(2):
        with pytest.raises(ParseError) as excinfo:
            load_trace_events(traces)
        assert excinfo.value.line_number == 2
        assert str(excinfo.value) == f"{traces}:2: {message}"


@pytest.mark.parametrize("kind", ["contract", "finding", "fingerprint"])
def test_address_with_a_trailing_newline_is_a_parse_error(tmp_path, kind):
    # `$` also matches before a final newline, so an anchored pattern used
    # with re.match let such an address through, and emit then made a
    # directory whose name ends in a newline
    from proxylineage import load_findings
    from proxylineage.corpus import load_contract_records
    from proxylineage.fingerprint import read_fingerprints

    bad = CALLEE + "\n"
    if kind == "contract":
        rows = [_contract_row(PROXY), _contract_row(bad)]
        read = load_contract_records
    elif kind == "finding":
        finding = {"tool": "slither", "vuln_type": "tx-origin", "contract": PROXY,
                   "directory": "", "filename": "A.sol", "start_line": 1, "end_line": 1,
                   "message": "m"}
        rows = [finding, {**finding, "contract": bad}]
        read = load_findings
    else:
        # k 64: a file's first row must have a k the LSH bands split
        fingerprint = {"address": PROXY, "k": 64, "seed": 0, "shingle_count": 0,
                       "signature": "00" * 8 * 64}
        rows = [fingerprint, {**fingerprint, "address": bad}]
        read = read_fingerprints
    path = tmp_path / f"{kind}.ndjson"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError) as excinfo:
        read(path)
    assert (excinfo.value.path, excinfo.value.line_number) == (str(path), 2)
    assert str(excinfo.value).endswith(f"must be 0x + 40 hex chars, got {bad!r}")


def test_mixed_case_addresses_share_one_normalized_string(tmp_path):
    traces = tmp_path / "t.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
        event_row(PROXY, CALLEE.upper().replace("0X", "0x"), 20, 2, "tx2"),
        event_row(CALLEE, PROXY, 30, 3, "tx3"),
    ])
    events, _ = load_trace_events(traces)
    assert [(e.proxy_address, e.callee_address) for e in events] == [
        (PROXY, CALLEE), (PROXY, CALLEE), (CALLEE, PROXY)]
    assert events[0].callee_address is events[1].callee_address is events[2].proxy_address


def test_a_contract_spelling_a_trace_callee_in_mixed_case_loads(tmp_path):
    # one address memo serves both readers, so the contract reader finds the
    # callee's lowercase spelling already validated and shares its string
    traces, contracts = tmp_path / "t.ndjson", tmp_path / "c.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, CALLEE, 10, 1, "tx1")])
    mixed, creator = "0x" + "aA" * 20, PROXY.upper().replace("0X", "0x")
    write_contract_fixture(contracts, [_contract_row(mixed, creator=creator)])
    corpus = load_corpus(traces, contracts)
    (record,) = corpus.contracts.values()
    assert (record.address, record.creator) == (CALLEE, PROXY)
    assert record.address is corpus.events[0].callee_address
    assert record.creator is corpus.events[0].proxy_address
    assert corpus.diagnostics == []


@pytest.mark.parametrize("field, value, message", [
    ("address", "0x" + "ab" * 19, "address must be 0x + 40 hex chars, got '0x" + "ab" * 19 + "'"),
    ("creator", CALLEE + "\n", f"creator must be 0x + 40 hex chars, got '{CALLEE}\\n'"),
    ("address", 7, "address must be a string, got int"),
    ("creator", None, "creator must be a string, got NoneType"),
], ids=["short-address", "creator-with-newline", "int-address", "null-creator"])
def test_a_bad_contract_address_never_seen_in_the_traces_names_its_field(tmp_path, field, value,
                                                                         message):
    traces, contracts = tmp_path / "t.ndjson", tmp_path / "c.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, CALLEE, 10, 1, "tx1")])
    write_contract_fixture(contracts, [_contract_row(CALLEE),
                                       {**_contract_row(PROXY), field: value}])
    for _ in range(2):
        with pytest.raises(ParseError) as excinfo:
            load_corpus(traces, contracts)
        assert str(excinfo.value) == f"{contracts}:2: {message}"


@pytest.mark.parametrize("field, value, message", [
    ("address", [CALLEE], "address must be a string, got list"),
    ("creator", {"a": PROXY}, "creator must be a string, got dict"),
], ids=["list-address", "object-creator"])
def test_an_unhashable_contract_address_is_named_like_any_other_non_string(tmp_path, field, value,
                                                                            message):
    # the traces fill the memo with every valid address, so only its type check can turn
    # the value away: a lookup of a list or an object would raise TypeError (the trace
    # fields' own case is in test_bad_trace_value_is_a_parse_error_on_its_own_line)
    traces, contracts = tmp_path / "t.ndjson", tmp_path / "c.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, CALLEE, 10, 1, "tx1")])
    contract = _contract_row(CALLEE, creator=PROXY)
    write_contract_fixture(contracts, [contract, {**contract, "address": PROXY, field: value}])
    with pytest.raises(ParseError) as excinfo:
        load_corpus(traces, contracts)
    assert str(excinfo.value) == f"{contracts}:2: {message}"


@pytest.mark.parametrize("edit, message", [
    ({"block_number": 12}, tx_conflict_message("tx00", 12, 100, 1, 10, 100)),
    ({"timestamp": 99}, tx_conflict_message("tx00", 10, 99, 1, 10, 100)),
    ({"callee_address": PROXY, "block_number": 11, "timestamp": 101},
     tx_conflict_message("tx00", 11, 101, 1, 10, 100)),
], ids=["block", "timestamp", "other-callee"])
def test_rows_of_one_transaction_must_agree_on_block_and_timestamp(tmp_path, edit, message):
    # line 4 reuses line 1's tx_id, once with line 1's block and timestamp (a repeat,
    # dropped) and then, on line 6, with the edit
    traces = tmp_path / "t.ndjson"
    rows = _equal_rows(5)
    rows[3] = rows[0]
    rows.insert(5, {**rows[0], **edit})
    write_trace_fixture(traces, rows)
    with pytest.raises(ParseError) as excinfo:
        load_trace_events(traces)
    assert (excinfo.value.line_number, str(excinfo.value)) == (6, f"{traces}:6: {message}")


@pytest.mark.parametrize("conflict_line, bad_line", [(3, 5), (4, 2)])
def test_a_conflict_and_a_bad_row_the_first_in_the_file_is_reported(tmp_path, conflict_line,
                                                                       bad_line):
    traces = tmp_path / "t.ndjson"
    rows = _equal_rows(6)
    rows[conflict_line - 1] = {**rows[0], "block_number": 99}
    rows[bad_line - 1] = {**rows[bad_line - 1], "selector": "0x3659cfzz"}
    write_trace_fixture(traces, rows)
    with pytest.raises(ParseError) as excinfo:
        load_trace_events(traces)
    assert excinfo.value.line_number == min(conflict_line, bad_line)


@settings(max_examples=200, deadline=None)
@given(_consistent_rows(), st.randoms(use_true_random=False))
def test_shuffling_a_consistent_trace_file_never_changes_the_load(rows, rng):
    # equal events, diagnostics and duplicate count whichever copy of a repeat comes first
    shuffled = rows[:]
    rng.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        loads = []
        for name, order in (("a", rows), ("b", shuffled)):
            path = Path(tmp) / f"{name}.ndjson"
            write_trace_fixture(path, order)
            loads.append(load_trace_events(path))
    assert loads[0] == loads[1]


def test_generated_corpora_place_each_transaction_in_one_block():
    # the generators name a transaction by its proxy, callee (or version) and position
    # in the window, so no tx_id is reused at another block or timestamp
    for seed in range(40):
        rng = random.Random(seed)
        for corpus in (random_rule_corpus(rng), varied_sourced_corpus(rng), eval_corpus(rng),
                       planted_eval_corpus(seed=seed)):
            places = {}
            for event in corpus.events:
                place = (event.block_number, event.timestamp)
                assert places.setdefault(event.tx_id, place) == place


# Quotes, backslashes, control characters, a lone surrogate and non-BMP text
# besides arbitrary characters: each has its own JSON escape.
_TEXT = st.text(st.one_of(st.characters(),
                          st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\U0001f600é')))
_U64 = st.integers(min_value=0, max_value=2**64)
_EVENTS = st.lists(st.builds(TraceEvent, proxy_address=_TEXT, callee_address=_TEXT,
                             timestamp=_U64, block_number=_U64, selector=_TEXT, tx_id=_TEXT),
                   max_size=8)


@settings(max_examples=300, deadline=None)
@given(_EVENTS)
def test_trace_serialization_matches_json_dumps(events):
    expected = oracle_trace_ndjson(events)
    corpus = Corpus(events=events, contracts={})
    assert corpus_digests(corpus)["traces"] == hashlib.sha256(expected).hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        traces = Path(tmp) / "t.ndjson"
        write_corpus(corpus, traces, Path(tmp) / "c.ndjson")
        assert traces.read_bytes() == expected


def test_corpus_digests_of_loaded_corpus_match_json_dumps(tmp_path):
    traces, contracts = tmp_path / "t.ndjson", tmp_path / "c.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, CALLEE, 20, 2, "tx-\u00e9\"2"),
        event_row(PROXY, CALLEE, 10, 1, "tx1"),
    ])
    write_contract_fixture(contracts, [_contract_row(CALLEE)])
    corpus = load_corpus(traces, contracts)
    written = tmp_path / "written-contracts.ndjson"
    write_corpus(corpus, tmp_path / "written-traces.ndjson", written)
    assert corpus_digests(corpus) == {
        "traces": hashlib.sha256(oracle_trace_ndjson(corpus.events)).hexdigest(),
        "contracts": hashlib.sha256(written.read_bytes()).hexdigest(),
    }
    # The digest these two rows have always had (json.dumps per row).
    assert corpus_digests(corpus)["traces"] == (
        "42dd7c64970d8a7005fa48163884323f2a5bfaf19c9962df86cefaed17c55635")


_FEW_INTS = st.integers(min_value=0, max_value=2)
_FEW_TEXTS = st.sampled_from(["", "a", "b"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(TraceEvent, block_number=_FEW_INTS, tx_id=_FEW_TEXTS,
                          proxy_address=_FEW_TEXTS, callee_address=_FEW_TEXTS,
                          selector=_FEW_TEXTS, timestamp=_FEW_INTS), max_size=12))
def test_sorted_events_follow_the_canonical_key(events):
    # Small value ranges so that events tie on leading fields and later ones decide.
    canonical = sorted(events, key=lambda e: (e.block_number, e.tx_id, e.proxy_address,
                                              e.callee_address, e.selector, e.timestamp))
    assert sorted(events) == canonical


_FILES = st.lists(st.builds(SourceFile, directory=st.sampled_from(["", "a", "b/c"]) | _TEXT,
                            filename=st.sampled_from(["A.sol", "B.sol"]) | _TEXT,
                            content=_TEXT),
                  max_size=4, unique_by=lambda f: (f.directory, f.filename)).map(tuple)  # no repeated path
_CONTRACTS = st.builds(ContractRecord, address=_TEXT, creator=_TEXT,
                       deploy_timestamp=st.integers(min_value=-2**70, max_value=2**70),
                       verified=st.booleans(), open_source=st.booleans(), files=_FILES)


@settings(max_examples=150, deadline=None)
@given(st.lists(_CONTRACTS, max_size=4))
def test_contract_serialization_matches_json_dumps(records):
    for record in records:
        assert _contract_line(record) == json.dumps(contract_to_obj(record), sort_keys=True,
                                                    separators=(",", ":")) + "\n"
    contracts = {r.address: r for r in records}
    expected = "".join(json.dumps(contract_to_obj(contracts[a]), sort_keys=True,
                                  separators=(",", ":")) + "\n" for a in sorted(contracts))
    assert "".join(_contract_lines(contracts)) == expected


# --- the NDJSON reader -----------------------------------------------------------

def lone_surrogate(value, where: str = "") -> str | None:
    """Where the first surrogate code point of a parsed JSON value sits, and which, as the
    reader words it; None if there is none."""
    if isinstance(value, str):
        found = [char for char in value if 0xD800 <= ord(char) <= 0xDFFF]
        return (f"{where or 'the value'} holds the lone surrogate U+{ord(found[0]):04X}, "
                "which UTF-8 cannot encode") if found else None
    if isinstance(value, dict):
        for key, item in value.items():
            fault = (lone_surrogate(key, f"a key of {where}" if where else "a key")
                     or lone_surrogate(item, f"{where}.{key}" if where else key))
            if fault:
                return fault
    if isinstance(value, list):
        for index, item in enumerate(value):
            if fault := lone_surrogate(item, f"{where}[{index}]"):
                return fault
    return None


def ndjson_by_json_loads(data: bytes):
    """json.loads per non-blank line without its line end: [(line number, row)], or the
    ParseError text and line of the first bad line, a row that holds a lone surrogate
    among them. A message that json ends in "at" gains the column."""
    rows = []
    for number, raw in enumerate(io.BytesIO(data), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"invalid UTF-8: {exc.reason}", number
        if not line.strip():
            continue
        try:
            row = json.loads(line.rstrip("\r\n"))
        except json.JSONDecodeError as exc:
            at = f" column {exc.colno}" if exc.msg.endswith(" at") else ""
            return f"invalid JSON: {exc.msg}{at}", number
        except ValueError:
            return f"invalid JSON: integer longer than {sys.get_int_max_str_digits()} digits", number
        if fault := lone_surrogate(row):
            return fault, number
        rows.append((number, row))
    return rows


_JSON_VALUE = (st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                            | st.text(max_size=4),
                            lambda c: st.lists(c, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                               c, max_size=3),
                            max_leaves=6).map(json.dumps)
               | st.sampled_from(["NaN", "-Infinity", "1" * 5000, "-" + "2" * 4301,
                                  '{"timestamp": %s}' % ("9" * 5001), "1." + "3" * 5000,
                                  "{", '{"a" 1}', "[1,]", "tru", '"open', '"\\ud800"', "0123",
                                  '{"k": ["\\u00e9", "\\udfff"], "\\udc00": 1}']))
# JSON whitespace, a BOM and spaces that str.strip() removes but JSON does not allow
_SPACE = st.sampled_from(["", " ", "\t", "\r", "\ufeff", "\u3000", "\x85", "\xa0", "\x1c",
                          "\u2028", "\x0b\x0c"])
_TRAILER = _SPACE | st.sampled_from(["x", "]", ",1", "{}", "\x00", " \r\t "])
_LINE = (st.tuples(_SPACE, _JSON_VALUE, _TRAILER).map(lambda parts: "".join(parts).encode())
         | st.lists(_SPACE, max_size=3).map(lambda spaces: "".join(spaces).encode())
         | st.binary(max_size=8))


def assert_read_like_json_loads(data: bytes) -> None:
    expected = ndjson_by_json_loads(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.ndjson"
        path.write_bytes(data)
        try:
            got = list(_iter_ndjson(path, lambda obj: obj))
        except ParseError as exc:
            message, line_number = expected
            assert (str(exc), exc.line_number) == (f"{path}:{line_number}: {message}", line_number)
        else:
            assert repr(got) == repr(expected)  # repr: NaN is not equal to itself


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_LINE, st.sampled_from([b"\n", b"\r\n"])), max_size=5), _LINE)
def test_ndjson_reader_matches_json_loads_per_line(lines, last):
    assert_read_like_json_loads(b"".join(line + end for line, end in lines) + last)


@pytest.mark.parametrize("line", [
    '{"a": 1}', '{"a": 1}\r', ' {"a": 1}', '\ufeff{"a": 1}', '{"a": 1}\ufeff', "NaN", "[NaN]",
    '{"a": 1} x', '{"a": 1}\x85', '{"a": 1}\u3000', "\u3000\u2003", "\x85", "\x1c \t", "",
    "1" * 5000, '{"t": %s}' % ("1" * 5001), "1" * 5001 + " x", "\u3000" + "1" * 5001,
])
def test_ndjson_reader_edge_lines_match_json_loads(line):
    assert_read_like_json_loads(b'{"a": 0}\r\n' + line.encode() + b"\n" + b'{"b": 2}')


# --- trace diagnostics and faults on fixed rows ----------------------------------

def _equal_rows(count: int) -> list[dict]:
    """Valid trace rows whose JSON lines are all one length, in canonical order."""
    return [event_row(PROXY, CALLEE, 100 + i, 10 + i, f"tx{i:02d}") for i in range(count)]


def test_a_repeat_and_a_timestamp_going_back_are_diagnosed(tmp_path):
    traces = tmp_path / "t.ndjson"
    rows = _equal_rows(10)
    # line 6 repeats line 3, and line 7 goes back in time at its block
    rows[5] = rows[2]
    rows[6] = {**rows[6], "timestamp": 101}
    write_trace_fixture(traces, rows)
    events, diagnostics = load_trace_events(traces)
    assert len(events) == 9
    assert diagnostics == ["traces: dropped 1 duplicate event(s) (same tx_id, proxy and callee)",
                           "traces: non-monotonic timestamp 101 at block 16 (tx tx06); "
                           "earlier block had 104"]


@pytest.mark.parametrize("bad_lines", [(8, 11), (2, 11), (5, 6)])
def test_with_two_bad_trace_rows_the_first_in_the_file_is_reported(tmp_path, bad_lines):
    traces = tmp_path / "t.ndjson"
    rows = _equal_rows(12)
    for line in bad_lines:
        rows[line - 1] = {**rows[line - 1], "selector": "0x3659cfzz"}
    write_trace_fixture(traces, rows)
    with pytest.raises(ParseError) as excinfo:
        load_trace_events(traces)
    first = bad_lines[0]
    assert str(excinfo.value) == (f"{traces}:{first}: selector must be 0x + 8 hex chars, "
                                  "got '0x3659cfzz'")
    assert excinfo.value.line_number == first


def test_overlong_integer_in_a_json_document_names_its_line(tmp_path):
    # Digits in a string and in a float's fraction and exponent come first and
    # convert; the negative integer on line 5 is the first that int() refuses.
    digits = "7" * 5001
    path = tmp_path / "doc.json"
    path.write_text('{\n "text": "%s \\" %s",\n "float": 1.%se%s,\n "small": -12,\n'
                    ' "big": -%s,\n "bigger": %s\n}\n' % (digits, digits, digits, digits, digits,
                                                      digits))
    with pytest.raises(ParseError) as excinfo:
        read_json(path)
    limit = sys.get_int_max_str_digits()
    assert str(excinfo.value) == f"{path}:5: invalid JSON: integer longer than {limit} digits"


def test_deep_nesting_in_a_json_document_names_its_line(tmp_path):
    # Brackets in a string do not nest; the line is that of the first bracket at the
    # greatest depth, on line 4 of a nesting that spreads over lines 3 to 5.
    path = tmp_path / "doc.json"
    path.write_text('{\n "text": "%s",\n "deep": %s\n%s\n%s\n}\n'
                    % ("[" * 9000, "[" * 400, "[" * 5000 + "]" * 5000, "]" * 400))
    with pytest.raises(ParseError) as excinfo:
        read_json(path)
    assert str(excinfo.value) == f"{path}:4: invalid JSON: nested deeper than the decoder allows"


# --- json_text ------------------------------------------------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.text()
                | st.integers(min_value=-2**100, max_value=2**100) | st.floats())
# keys of one type per dict: json.dumps cannot sort str against int keys
JSON_KEYS = (st.text(), st.integers(min_value=-2**70, max_value=2**70), st.floats(),
             st.booleans(), st.none())
UNSUPPORTED = (st.builds(set) | st.binary(max_size=2) | st.builds(object)
               | st.complex_numbers(max_magnitude=1))


def json_values(leaves):
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.one_of([st.dictionaries(keys, children, max_size=4) for keys in JSON_KEYS])),
        max_leaves=30)


def dumped_or_error(encode, obj):
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(json_values(JSON_SCALARS))
def test_json_text_matches_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(json_values(JSON_SCALARS | UNSUPPORTED)
       | st.dictionaries(st.frozensets(st.integers(), max_size=1) | st.booleans() | st.none()
                         | st.floats(), JSON_SCALARS, max_size=3))
def test_json_text_fails_like_json_dumps(obj):
    expected = dumped_or_error(lambda o: json.dumps(o, sort_keys=True, indent=2) + "\n", obj)
    assert dumped_or_error(json_text, obj) == expected


@settings(max_examples=100, deadline=None)
@given(json_values(JSON_SCALARS))
def test_write_json_writes_the_bytes_of_json_text(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write_json(path, obj)
        assert path.read_bytes() == json_text(obj).encode("utf-8")


def test_json_text_edge_values():
    obj = {"nested": {"empty_list": [], "empty_dict": {}, "tuple": (1, (2, [])),
                      "text": "caf\u00e9 \u2603 \U0001f600 \x00\x1f\"\\\n"},
           "floats": [0.0, -0.0, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")],
           "ints": [2**64, -(2**80), True, False, None],
           "subclasses": [MatchKind.FUZZY_NAME, SimilarityCategory.HIGH,
                          {MatchKind.EXACT_SIGNATURE: SimilarityCategory.LOW}]}
    assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert json_text([]) == "[]\n" and json_text("x") == '"x"\n'


@pytest.mark.parametrize("text, line, where", [
    ('{\n  "a": ["ok", "\\u00e9"],\n  "b": {"c": "x\\ud800"}\n}\n', 3, "b.c"),
    ('[{"a": 1},\n {"a": 2, "\\udfff": 3}]', 2, "a key of [1]"),
    ('"\\ud800"', 1, "the value"),
], ids=["nested-value", "key-in-a-table-row", "top-level-string"])
def test_read_json_names_the_line_and_field_of_a_lone_surrogate(tmp_path, text, line, where):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        read_json(path)
    surrogate = "D800" if "\\ud800" in text else "DFFF"
    assert str(excinfo.value) == (f"{path}:{line}: {where} holds the lone surrogate "
                                  f"U+{surrogate}, which UTF-8 cannot encode")


def test_surrogate_pairs_and_escaped_text_read_as_text(tmp_path):
    # a \u escape of a whole character, a pair among them, is valid text
    path = tmp_path / "doc.json"
    path.write_text('{"a": "\\ud83d\\ude00 \\u00e9", "b": "\\\\ud800"}')
    assert read_json(path) == {"a": "\U0001F600 \u00e9", "b": "\\ud800"}
