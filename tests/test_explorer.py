"""Explorer client: caching, rate limiting, retries."""

from __future__ import annotations

import json
import time

import pytest

from proxylineage import FetchError, RateLimiter, fetch_contract, fetch_contracts
from proxylineage.explorer import ExplorerClient

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
    def __init__(self, responses):
        self.responses = responses
        self.calls = 0

    def __call__(self, url, params):
        self.calls += 1
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def make_client(transport, **kwargs):
    kwargs.setdefault("rate_limit_rps", 10000.0)
    kwargs.setdefault("sleep", lambda _: None)
    return ExplorerClient("https://explorer.test/api", api_key="k", transport=transport, **kwargs)


def test_fetch_populates_cache_and_warm_cache_is_network_free(tmp_path):
    transport = CountingTransport([(200, response_body())])
    client = make_client(transport)
    first = fetch_contract(ADDRESS, tmp_path, client)
    second = fetch_contract(ADDRESS, tmp_path, client)
    assert first == second
    assert transport.calls == 1
    cached = json.loads((tmp_path / f"{ADDRESS}.json").read_text())
    assert cached["address"] == ADDRESS
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
    client = ExplorerClient(
        "https://explorer.test", api_key="k", transport=transport,
        rate_limit_rps=10000.0, sleep=sleeps.append, backoff_base=1.0,
    )
    record = client.fetch_record(ADDRESS)
    assert record.address == ADDRESS
    backoffs = [s for s in sleeps if s >= 0.5]
    assert backoffs == [1.0, 2.0]


def test_fetch_error_after_bounded_retries():
    transport = CountingTransport([(500, None)] * 3)
    client = ExplorerClient(
        "https://explorer.test", api_key="k", transport=transport,
        rate_limit_rps=10000.0, sleep=lambda _: None, max_retries=2,
    )
    with pytest.raises(FetchError) as excinfo:
        client.fetch_record(ADDRESS)
    assert excinfo.value.address == ADDRESS
    assert transport.calls == 3


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
            return 200, response_body()
        return 404, None

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
