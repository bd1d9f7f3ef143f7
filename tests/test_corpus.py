"""Selector computation and corpus loading."""

from __future__ import annotations

import random

import pytest

from proxylineage import (
    ParseError,
    ValidationError,
    build_lineages,
    compute_selector,
    keccak_256,
    load_corpus,
    monitored_selectors,
    upgrade_proxies,
    write_corpus,
)
from proxylineage.corpus import load_trace_events, serialize_contract_records, serialize_trace_events

from corpusgen import event_row, write_contract_fixture, write_trace_fixture
from oracles import oracle_selector

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
    assert serialize_trace_events(corpus_a.events) == serialize_trace_events(corpus_b.events)


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
    assert reloaded == corpus
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


def test_serialize_contract_records_sorted():
    from conftest import make_record

    a = make_record("0x" + "aa" * 20, "0x" + "e1" * 20)
    b = make_record("0x" + "bb" * 20, "0x" + "e1" * 20)
    data = serialize_contract_records({b.address: b, a.address: a})
    lines = data.decode().strip().split("\n")
    assert "0x" + "aa" * 20 in lines[0]
    assert "0x" + "bb" * 20 in lines[1]
