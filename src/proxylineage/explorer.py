"""Optional block-explorer client: rate-limited fetches with an on-disk cache.

The pipeline is fixture-first; this client only runs when networking is
explicitly allowed. It speaks a minimal JSON protocol: GET
``{base_url}/contract/{address}`` returns one contract-record object in the
same shape as a contract-fixture row. Responses are cached per address, each
file holding the record's canonical contracts.ndjson row, so warm re-runs
make no network calls.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from .corpus import (ContractRecord, _contract_line, _decode, _utf8, contract_from_obj,
                     normalize_address, read_json)
from .errors import FetchError, ParseError, ValidationError

API_KEY_ENV = "EXPLORER_API_KEY"
RATE_LIMIT_RPS = 4.0
MAX_RETRIES = 5
BACKOFF_BASE = 1.0
MAX_IN_FLIGHT = 4

# transport(url, params) -> (http status, body bytes)
Transport = Callable[[str, dict], tuple[int, bytes]]


class RateLimiter:
    """Spaces calls at least 1/rps apart; thread-safe."""

    def __init__(self, rps: float, sleep=time.sleep):
        if rps <= 0:
            raise ValidationError(f"rate limit must be positive, got {rps}")
        self._interval = 1.0 / rps
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_slot = None

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            if self._next_slot is None or now >= self._next_slot:
                self._next_slot = now + self._interval
                return
            wait = self._next_slot - now
            self._next_slot += self._interval
        self._sleep(wait)


def _urllib_transport(url: str, params: dict) -> tuple[int, bytes]:
    # imported here so that offline runs skip their load time
    from urllib.error import HTTPError
    from urllib.parse import urlencode
    from urllib.request import urlopen

    if params:
        url = f"{url}?{urlencode(params)}"
    try:
        with urlopen(url, timeout=30) as response:
            return response.status, response.read()
    except HTTPError as exc:  # a 4xx or 5xx reply, which fetch_record judges by its status
        with exc:
            return exc.code, exc.read()


class ExplorerClient:
    """Fetches contract records with retries and exponential backoff."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        transport: Transport | None = None,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._transport = transport or _urllib_transport
        self._sleep = sleep
        self._limiter = RateLimiter(RATE_LIMIT_RPS, sleep=sleep)

    def fetch_record(self, address: str) -> ContractRecord:
        address = normalize_address(address)
        url = f"{self.base_url}/contract/{address}"
        params = {"apikey": self.api_key} if self.api_key else {}
        last_failure = "no attempts made"
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self._sleep(BACKOFF_BASE * (2 ** (attempt - 1)))
            self._limiter.acquire()
            try:
                status, body = self._transport(url, params)
            except Exception as exc:  # transport-level failure is retryable
                last_failure = f"transport error: {exc}"
                continue
            if status == 200:  # a refused body fails at once: a retry would fetch the same bytes
                return self._record_from_body(address, url, body)
            if status == 404:
                raise FetchError(address, "explorer does not know this contract")
            if status == 429 or status >= 500:
                last_failure = f"HTTP {status}"
                continue
            raise FetchError(address, f"unexpected HTTP {status}")
        raise FetchError(address, f"{last_failure} after {MAX_RETRIES} retries")

    def _record_from_body(self, address: str, url: str, body: bytes) -> ContractRecord:
        try:
            record = contract_from_obj(_decode(_utf8(body, url), url))
        except ParseError as exc:
            raise FetchError(address, f"malformed explorer response: {exc}") from exc
        except ValidationError as exc:  # the record's own fault, on the body's first line
            raise FetchError(address, f"malformed explorer response: {url}:1: {exc}") from exc
        if not record.verified:
            # Unverified source cannot be trusted; keep only the metadata.
            record = record._replace(open_source=False, files=())
        return record


def fetch_contract(address: str, cache_dir: str | Path, client: ExplorerClient) -> ContractRecord:
    """Fetch one contract record, serving from and populating the cache.

    A record for another address, cached or fetched, is a FetchError. The
    cache write is atomic (temp file + rename), so a crashed run never leaves
    a partial record and concurrent fetchers of the same address converge on
    one complete file.
    """
    address = normalize_address(address)
    cache_file = Path(cache_dir) / f"{address}.json"
    cached = cache_file.exists()
    if cached:
        record = contract_from_obj(read_json(cache_file), where=f"cached record {cache_file}")
    else:
        record = client.fetch_record(address)
    if record.address != address:
        source = f"cache file {cache_file}" if cached else "explorer"
        raise FetchError(address, f"{source} returned record for {record.address}")
    if cached:
        return record
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=cache_file.parent, prefix=f".{address}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_contract_line(record))
        os.replace(tmp_name, cache_file)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return record


def fetch_contracts(
    addresses, cache_dir: str | Path, client: ExplorerClient
) -> tuple[dict[str, ContractRecord], dict[str, str]]:
    """Fetch many addresses with bounded parallelism.

    Returns (records, failures); failures map address -> why it failed, a
    message that does not repeat the address.
    Addresses are deduplicated so each cache file has a single writer.
    """
    unique = sorted({normalize_address(a) for a in addresses})
    records: dict[str, ContractRecord] = {}
    failures: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
        futures = {pool.submit(fetch_contract, a, cache_dir, client): a for a in unique}
        for future, address in futures.items():
            try:
                records[address] = future.result()
            except FetchError as exc:
                failures[address] = exc.message
            except ValidationError as exc:
                failures[address] = str(exc)
    return records, failures
