"""Optional block-explorer client: rate-limited fetches with an on-disk cache.

The pipeline is fixture-first; this client only runs when networking is
explicitly allowed. It speaks a minimal JSON protocol: GET
``{base_url}/contract/{address}`` returns one contract-record object in the
same shape as a contract-fixture row. Responses are cached per address as
JSON files so warm re-runs make no network calls.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from .corpus import ContractRecord, contract_from_obj, contract_to_obj, normalize_address, read_json
from .errors import FetchError, ValidationError

API_KEY_ENV = "EXPLORER_API_KEY"
DEFAULT_RATE_LIMIT_RPS = 4.0
DEFAULT_MAX_RETRIES = 5
DEFAULT_BACKOFF_BASE = 1.0
DEFAULT_MAX_IN_FLIGHT = 4

# transport(url, params) -> (http status, decoded JSON body)
Transport = Callable[[str, dict], tuple[int, object]]


class RateLimiter:
    """Spaces calls at least 1/rps apart; thread-safe."""

    def __init__(self, rps: float, clock=time.monotonic, sleep=time.sleep):
        if rps <= 0:
            raise ValidationError(f"rate limit must be positive, got {rps}")
        self._interval = 1.0 / rps
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_slot = None

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            if self._next_slot is None or now >= self._next_slot:
                self._next_slot = now + self._interval
                return
            wait = self._next_slot - now
            self._next_slot += self._interval
        self._sleep(wait)


def _requests_transport(url: str, params: dict) -> tuple[int, object]:
    import requests  # imported here so that offline runs skip its load time

    response = requests.get(url, params=params, timeout=30)
    try:
        body = response.json()
    except ValueError:
        body = None
    return response.status_code, body


class ExplorerClient:
    """Fetches contract records with retries and exponential backoff."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        rate_limit_rps: float = DEFAULT_RATE_LIMIT_RPS,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        transport: Transport | None = None,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._transport = transport or _requests_transport
        self._sleep = sleep
        self._limiter = RateLimiter(rate_limit_rps, sleep=sleep)

    def fetch_record(self, address: str) -> ContractRecord:
        address = normalize_address(address)
        url = f"{self.base_url}/contract/{address}"
        params = {"apikey": self.api_key} if self.api_key else {}
        last_failure = "no attempts made"
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
            self._limiter.acquire()
            try:
                status, body = self._transport(url, params)
            except Exception as exc:  # transport-level failure is retryable
                last_failure = f"transport error: {exc}"
                continue
            if status == 200:
                return self._record_from_body(address, body)
            if status == 404:
                raise FetchError(address, "explorer does not know this contract")
            if status == 429 or status >= 500:
                last_failure = f"HTTP {status}"
                continue
            raise FetchError(address, f"unexpected HTTP {status}")
        raise FetchError(address, f"{last_failure} after {self.max_retries} retries")

    def _record_from_body(self, address: str, body: object) -> ContractRecord:
        try:
            record = contract_from_obj(body, where="explorer response")
        except ValidationError as exc:
            raise FetchError(address, f"malformed explorer response: {exc}") from exc
        if record.address != address:
            raise FetchError(address, f"explorer returned record for {record.address}")
        if not record.verified:
            # Unverified source cannot be trusted; keep only the metadata.
            record = ContractRecord(
                address=record.address,
                creator=record.creator,
                deploy_timestamp=record.deploy_timestamp,
                verified=False,
                open_source=False,
                files=(),
            )
        return record


def _cache_path(cache_dir: str | Path, address: str) -> Path:
    return Path(cache_dir) / f"{address}.json"


def fetch_contract(address: str, cache_dir: str | Path, client: ExplorerClient) -> ContractRecord:
    """Fetch one contract record, serving from and populating the cache.

    The cache write is atomic (temp file + rename), so a crashed run never
    leaves a partial record and concurrent fetchers of the same address
    converge on one complete file.
    """
    address = normalize_address(address)
    cache_file = _cache_path(cache_dir, address)
    if cache_file.exists():
        return contract_from_obj(read_json(cache_file), where=f"cached record {cache_file}")
    record = client.fetch_record(address)
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=cache_file.parent, prefix=f".{address}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(contract_to_obj(record), handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, cache_file)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return record


def fetch_contracts(
    addresses,
    cache_dir: str | Path,
    client: ExplorerClient,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
) -> tuple[dict[str, ContractRecord], dict[str, str]]:
    """Fetch many addresses with bounded parallelism.

    Returns (records, failures); failures map address -> error message.
    Addresses are deduplicated so each cache file has a single writer.
    """
    unique = sorted({normalize_address(a) for a in addresses})
    records: dict[str, ContractRecord] = {}
    failures: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        futures = {pool.submit(fetch_contract, a, cache_dir, client): a for a in unique}
        for future, address in futures.items():
            try:
                records[address] = future.result()
            except (FetchError, ValidationError) as exc:
                failures[address] = str(exc)
    return records, failures
