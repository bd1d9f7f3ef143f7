"""ingest --explorer-url against a real local HTTP explorer stub."""

from __future__ import annotations

import http.server
import json
import sys
import threading

import pytest

from proxylineage.cli import main
from proxylineage.errors import FetchError
from proxylineage.explorer import ExplorerClient, fetch_contract

from conftest import ADDR_A, ADDR_B, CREATOR_X, PROXY
from corpusgen import contract_row, event_row, write_contract_fixture, write_trace_fixture
from conftest import make_record
from proxylineage import SourceFile

SRC = "pragma solidity ^0.8.0;\ncontract Fetched { function f() public {} }\n"


class ExplorerStub(http.server.BaseHTTPRequestHandler):
    records: dict[str, dict] = {}
    hits: list[str] = []
    queries: list[str] = []
    # address -> (status, body) replies served, in order, before its record
    scripted: dict[str, list[tuple[int, bytes]]] = {}

    def do_GET(self):
        path, mark, query = self.path.partition("?")
        address = path.rstrip("/").split("/")[-1]
        type(self).hits.append(address)
        type(self).queries.append(mark + query)
        record = self.records.get(address)
        if self.scripted.get(address):
            status, body = self.scripted[address].pop(0)
        elif record is None:
            self.send_response(404)
            self.end_headers()
            return
        else:
            status, body = 200, json.dumps(record).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output quiet
        pass


@pytest.fixture
def explorer_server():
    ExplorerStub.records = {}
    ExplorerStub.hits = []
    ExplorerStub.queries = []
    ExplorerStub.scripted = {}
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), ExplorerStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


def test_explorer_url_fetches_missing_callees(tmp_path, explorer_server):
    server, url = explorer_server
    ExplorerStub.records[ADDR_B] = contract_row(
        make_record(ADDR_B, CREATOR_X, [SourceFile("src", "Fetched.sol", SRC)]))

    traces = tmp_path / "traces.ndjson"
    contracts = tmp_path / "contracts.ndjson"
    write_trace_fixture(traces, [
        event_row(PROXY, ADDR_A, 1, 1, "t1"),
        event_row(PROXY, ADDR_B, 10, 10, "t2"),
    ])
    write_contract_fixture(contracts, [contract_row(make_record(ADDR_A, CREATOR_X))])

    out = tmp_path / "corpus"
    cache = tmp_path / "cache"
    code = main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out), "--explorer-url", url, "--cache-dir", str(cache)])
    assert code == 0
    assert ExplorerStub.hits == [ADDR_B]
    merged = [json.loads(line) for line in (out / "contracts.ndjson").read_text().splitlines()]
    assert {row["address"] for row in merged} == {ADDR_A, ADDR_B}
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert not any("no metadata" in d for d in diagnostics["diagnostics"])
    assert (cache / f"{ADDR_B}.json").exists()

    # warm cache: shut the server down and re-run; the record must come from disk
    server.shutdown()
    out2 = tmp_path / "corpus2"
    code = main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out2), "--explorer-url", url, "--cache-dir", str(cache)])
    assert code == 0
    assert ExplorerStub.hits == [ADDR_B]  # no second network call
    assert (out2 / "contracts.ndjson").read_bytes() == (out / "contracts.ndjson").read_bytes()


def test_explorer_url_reports_unknown_addresses(tmp_path, explorer_server):
    _, url = explorer_server
    traces = tmp_path / "traces.ndjson"
    contracts = tmp_path / "contracts.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, ADDR_B, 10, 10, "t1")])
    contracts.write_text("")
    out = tmp_path / "corpus"
    code = main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out), "--explorer-url", url,
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert any("fetch failed" in d for d in diagnostics["diagnostics"])
    assert any("no metadata" in d for d in diagnostics["diagnostics"])


def test_explorer_url_requires_cache_dir(tmp_path, explorer_server, capsys):
    _, url = explorer_server
    traces = tmp_path / "traces.ndjson"
    contracts = tmp_path / "contracts.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, ADDR_A, 1, 1, "t1")])
    contracts.write_text("")
    code = main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(tmp_path / "out"), "--explorer-url", url])
    assert code == 1
    err = capsys.readouterr().err
    assert "--explorer-url" in err and "--cache-dir" in err
    assert ExplorerStub.hits == []
    assert not (tmp_path / "out").exists()


def test_cache_dir_requires_explorer_url(tmp_path, capsys):
    traces = tmp_path / "traces.ndjson"
    contracts = tmp_path / "contracts.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, ADDR_A, 1, 1, "t1")])
    contracts.write_text("")
    code = main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--cache-dir" in err and "--explorer-url" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_default_transport_retries_server_errors_and_not_unknown_contracts(explorer_server):
    _, url = explorer_server
    row = contract_row(make_record(ADDR_B, CREATOR_X, [SourceFile("src", "Fetched.sol", SRC)]))
    ExplorerStub.records[ADDR_B] = row
    ExplorerStub.scripted[ADDR_B] = [(500, b"")]
    ExplorerStub.scripted[ADDR_A] = [(200, b"<html>not json</html>")]
    client = ExplorerClient(url, api_key="k&1", sleep=lambda s: None)

    assert contract_row(client.fetch_record(ADDR_B)) == row
    assert ExplorerStub.hits == [ADDR_B, ADDR_B]
    assert ExplorerStub.queries == ["?apikey=k%261"] * 2

    with pytest.raises(FetchError, match="malformed explorer response"):
        client.fetch_record(ADDR_A)
    with pytest.raises(FetchError, match="explorer does not know this contract"):
        client.fetch_record(PROXY)
    assert ExplorerStub.hits == [ADDR_B, ADDR_B, ADDR_A, PROXY]

    ExplorerStub.queries = []
    ExplorerClient(url, api_key="", sleep=lambda s: None).fetch_record(ADDR_B)
    assert ExplorerStub.queries == [""]


def _bad_bodies():
    """(id, 200 reply body, fault the fetch names): bodies the readers refuse."""
    row = contract_row(make_record(ADDR_B, CREATOR_X, [SourceFile("src", "Fetched.sol", SRC)]))
    long_integer = "9" * (sys.get_int_max_str_digits() + 1)
    return [
        ("deep-nesting", b"[" * 100_000 + b"]" * 100_000,
         ":1: invalid JSON: nested deeper than the decoder allows"),
        ("not-json", b"{not json",
         ":1: invalid JSON: Expecting property name enclosed in double quotes"),
        ("not-utf8", b"\xff", ":1: invalid UTF-8: invalid start byte"),
        ("overlong-integer", json.dumps(row).replace('"deploy_timestamp": 0',
                                                     f'"deploy_timestamp": {long_integer}').encode(),
         f":1: invalid JSON: integer longer than {sys.get_int_max_str_digits()} digits"),
        # json.dumps writes the lone surrogate as a \ud800 escape
        ("lone-surrogate", json.dumps(row | {"files": [row["files"][0] | {
            "content": SRC + "\ud800"}]}).encode(),
         ":1: files[0].content holds the lone surrogate U+D800, which UTF-8 cannot encode"),
    ]


@pytest.mark.parametrize("body, fault", [case[1:] for case in _bad_bodies()],
                         ids=[case[0] for case in _bad_bodies()])
def test_default_transport_fails_a_refused_body_at_once(tmp_path, explorer_server, body, fault):
    # a retry would fetch the same bytes: one request, no backoff, nothing cached
    _, url = explorer_server
    ExplorerStub.scripted[ADDR_B] = [(200, body)]
    sleeps = []
    client = ExplorerClient(url, api_key="secret", sleep=sleeps.append)
    cache = tmp_path / "cache"
    with pytest.raises(FetchError) as excinfo:
        fetch_contract(ADDR_B, cache, client)
    assert str(excinfo.value) == (f"fetch failed for {ADDR_B}: malformed explorer response: "
                                  f"{url}/contract/{ADDR_B}{fault}")
    assert ExplorerStub.hits == [ADDR_B]
    assert sleeps == []
    assert not cache.exists()


def test_explorer_url_notes_a_refused_body_and_goes_on(tmp_path, explorer_server):
    _, url = explorer_server
    (_, body, fault), = [case for case in _bad_bodies() if case[0] == "lone-surrogate"]
    ExplorerStub.scripted[ADDR_B] = [(200, body)]
    traces = tmp_path / "traces.ndjson"
    contracts = tmp_path / "contracts.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, ADDR_A, 1, 1, "t1"),
                                 event_row(PROXY, ADDR_B, 10, 10, "t2")])
    write_contract_fixture(contracts, [contract_row(make_record(ADDR_A, CREATOR_X))])
    out = tmp_path / "corpus"
    cache = tmp_path / "cache"
    code = main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out), "--explorer-url", url, "--cache-dir", str(cache)])
    assert code == 0
    assert ExplorerStub.hits == [ADDR_B]
    diagnostics = json.loads((out / "diagnostics.json").read_text())["diagnostics"]
    assert f"explorer: fetch failed for {ADDR_B}: malformed explorer " \
           f"response: {url}/contract/{ADDR_B}{fault}" in diagnostics
    assert f"contracts: no metadata for callee {ADDR_B}" in diagnostics
    rows = [json.loads(line) for line in (out / "contracts.ndjson").read_text().splitlines()]
    assert [row["address"] for row in rows] == [ADDR_A]
    assert not cache.exists()


def test_explorer_url_names_a_corrupt_cache_file_once(tmp_path, explorer_server):
    # a cache file's ParseError reads like a FetchError: the prefix once, then the reason
    _, url = explorer_server
    traces = tmp_path / "traces.ndjson"
    contracts = tmp_path / "contracts.ndjson"
    write_trace_fixture(traces, [event_row(PROXY, ADDR_B, 10, 10, "t1")])
    contracts.write_text("")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"{ADDR_B}.json").write_text("{not json\n")
    out = tmp_path / "corpus"
    code = main(["ingest", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(out), "--explorer-url", url, "--cache-dir", str(cache)])
    assert code == 0
    assert ExplorerStub.hits == []
    diagnostics = json.loads((out / "diagnostics.json").read_text())["diagnostics"]
    failures = [d for d in diagnostics if d.startswith("explorer: ")]
    assert failures == [f"explorer: fetch failed for {ADDR_B}: {cache / ADDR_B}.json:1: "
                        "invalid JSON: Expecting property name enclosed in double quotes"]
