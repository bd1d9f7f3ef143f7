"""Explorer client: caching, rate limiting, retries."""

from __future__ import annotations

import json
import time

import pytest

from proxylineage import FetchError, RateLimiter, fetch_contract, fetch_contracts
from proxylineage.corpus import _contract_line
from proxylineage.explorer import BACKOFF_BASE, MAX_RETRIES, RATE_LIMIT_RPS, ExplorerClient

ADDRESS = "0x" + "ab" * 20
OTHER = "0x" + "cd" * 20
CREATOR = "0x" + "e1" * 20


def response_body(address=ADDRESS, verified=True, files=None):
    if files is None:
        files = [{"directory": "src", "filename": "A.sol", "content": "contract A {}"}]
    return {
        "address": address,
        "creator": CREATOR,
        "deploy_timestamp": 1700000000,
        "verified": verified,
        "open_source": bool(files),
        "files": files,
    }


class CountingTransport:
    """Serves (status, JSON value) replies, or raises exceptions, in order; a transport
    returns the body as bytes."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = 0

    def __call__(self, url, params):
        self.calls += 1
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        status, body = result
        return status, json.dumps(body).encode()


def make_client(transport, **kwargs):
    # the fake sleep also keeps the rate limiter from waiting
    kwargs.setdefault("sleep", lambda _: None)
    return ExplorerClient("https://explorer.test/api", api_key="k", transport=transport, **kwargs)


def test_fetch_populates_cache_and_warm_cache_is_network_free(tmp_path):
    transport = CountingTransport([(200, response_body())])
    client = make_client(transport)
    first = fetch_contract(ADDRESS, tmp_path, client)
    second = fetch_contract(ADDRESS, tmp_path, client)
    assert first == second
    assert transport.calls == 1
    # the cache file holds the record's canonical contracts.ndjson row
    assert (tmp_path / f"{ADDRESS}.json").read_text() == _contract_line(first)
    # no leftover temp files from the atomic write
    assert [p.name for p in tmp_path.iterdir()] == [f"{ADDRESS}.json"]


def test_unverified_contract_has_no_files(tmp_path):
    body = response_body(verified=False)
    transport = CountingTransport([(200, body)])
    client = make_client(transport)
    record = fetch_contract(ADDRESS, tmp_path, client)
    assert record.verified is False
    assert record.open_source is False
    assert record.files == ()


def test_rate_limiter_delays_third_call():
    limiter = RateLimiter(2.0)
    start = time.monotonic()
    limiter.acquire()
    limiter.acquire()
    limiter.acquire()
    elapsed = time.monotonic() - start
    # at 2 req/s the third call cannot land before ~1.0 s, so it was held
    # back by at least half a second
    assert elapsed >= 0.95


def test_retries_use_exponential_backoff():
    sleeps = []
    transport = CountingTransport([(500, None), (503, None), (200, response_body())])
    client = make_client(transport, sleep=sleeps.append)
    record = client.fetch_record(ADDRESS)
    assert record.address == ADDRESS
    # over three calls each rate-limiter wait is under two intervals, so
    # every sleep of at least BACKOFF_BASE is a backoff
    assert 2 / RATE_LIMIT_RPS < BACKOFF_BASE
    backoffs = [s for s in sleeps if s >= BACKOFF_BASE]
    assert backoffs == [BACKOFF_BASE, 2 * BACKOFF_BASE]


def test_fetch_error_after_bounded_retries():
    transport = CountingTransport([(500, None)] * (MAX_RETRIES + 1))
    client = make_client(transport)
    with pytest.raises(FetchError) as excinfo:
        client.fetch_record(ADDRESS)
    assert excinfo.value.address == ADDRESS
    assert transport.calls == MAX_RETRIES + 1


def test_unknown_contract_is_not_retried():
    transport = CountingTransport([(404, None)])
    client = make_client(transport)
    with pytest.raises(FetchError):
        client.fetch_record(ADDRESS)
    assert transport.calls == 1


def test_transport_exceptions_are_retryable():
    transport = CountingTransport([ConnectionError("boom"), (200, response_body())])
    client = make_client(transport)
    assert client.fetch_record(ADDRESS).address == ADDRESS


def test_malformed_response_raises_fetch_error():
    transport = CountingTransport([(200, {"nope": 1})])
    client = make_client(transport)
    with pytest.raises(FetchError):
        client.fetch_record(ADDRESS)


def test_fetch_contracts_aggregates_records_and_failures(tmp_path):
    def transport(url, params):
        if ADDRESS in url:
            return 200, json.dumps(response_body()).encode()
        return 404, b""

    client = make_client(transport)
    records, failures = fetch_contracts([ADDRESS, OTHER, ADDRESS], tmp_path, client)
    assert set(records) == {ADDRESS}
    assert set(failures) == {OTHER}


def test_corrupt_cache_entry_is_a_failure_and_others_are_fetched(tmp_path):
    (tmp_path / f"{ADDRESS}.json").write_text("{not json")

    transport = CountingTransport([(200, response_body(address=OTHER))])
    records, failures = fetch_contracts([ADDRESS, OTHER], tmp_path, make_client(transport))
    assert set(records) == {OTHER}
    assert set(failures) == {ADDRESS}
    assert f"{ADDRESS}.json:1: invalid JSON" in failures[ADDRESS]
    assert transport.calls == 1  # the cached address is not fetched again


def test_cache_entry_nested_too_deep_is_a_failure_and_others_are_fetched(tmp_path):
    cache_file = tmp_path / f"{ADDRESS}.json"
    cache_file.write_text("{\n" + '"files": ' + "[" * 100_000 + "]" * 100_000 + "\n}\n")
    transport = CountingTransport([(200, response_body(address=OTHER))])
    records, failures = fetch_contracts([ADDRESS, OTHER], tmp_path, make_client(transport))
    assert set(records) == {OTHER}
    assert failures == {ADDRESS: f"{cache_file}:2: invalid JSON: nested deeper than the decoder allows"}


def test_cached_record_of_another_address_is_a_failure(tmp_path):
    (tmp_path / f"{ADDRESS}.json").write_text(json.dumps(response_body(address=OTHER)) + "\n")
    transport = CountingTransport([])
    records, failures = fetch_contracts([ADDRESS], tmp_path, make_client(transport))
    assert records == {}
    cache_file = tmp_path / f"{ADDRESS}.json"
    assert failures[ADDRESS] == f"cache file {cache_file} returned record for {OTHER}"
    assert transport.calls == 0


def test_cached_record_repeating_a_file_path_is_a_failure_naming_the_cache_file(tmp_path):
    file = {"directory": "src", "filename": "T.sol", "content": "contract T {}"}
    cache_file = tmp_path / f"{ADDRESS}.json"
    cache_file.write_text(json.dumps(response_body(files=[file, file])) + "\n")
    records, failures = fetch_contracts([ADDRESS], tmp_path, make_client(CountingTransport([])))
    assert records == {}
    assert failures[ADDRESS] == (f"cached record {cache_file}: "
                                 "duplicate file path 'src'/'T.sol'")


def test_fetched_record_of_another_address_is_a_failure_and_not_cached(tmp_path):
    transport = CountingTransport([(200, response_body(address=OTHER))])
    records, failures = fetch_contracts([ADDRESS], tmp_path, make_client(transport))
    assert records == {}
    assert failures[ADDRESS] == f"explorer returned record for {OTHER}"
    assert list(tmp_path.iterdir()) == []


def test_cache_file_in_the_spaced_json_format_still_loads(tmp_path):
    # caches written before the compact canonical row used json.dump's spacing
    (tmp_path / f"{ADDRESS}.json").write_text(json.dumps(response_body(), sort_keys=True) + "\n")
    transport = CountingTransport([])
    record = fetch_contract(ADDRESS, tmp_path, make_client(transport))
    assert record.address == ADDRESS
    assert record.files[0].content == "contract A {}"
    assert transport.calls == 0
