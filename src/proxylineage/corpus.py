"""Delegatecall trace and contract-metadata corpus: NDJSON fixtures in, canonical corpus out.

The trace fixture holds one delegatecall observation per line; the contract
fixture holds one contract record per line with embedded source files.
Loading validates every row, normalizes addresses to lowercase, sorts events
into canonical order and deduplicates repeated observations, so that the same
input bytes always produce the same corpus.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ParseError, ValidationError
from .keccak import keccak_256

_ADDRESS_RE = re.compile(r"^0x[0-9a-f]{40}$")
_SELECTOR_RE = re.compile(r"^0x[0-9a-f]{8}$")
_SIGNATURE_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*\(.*\)$")

TRACE_FIELDS = frozenset(
    {"proxy_address", "callee_address", "timestamp", "block_number", "selector", "tx_id"}
)
CONTRACT_FIELDS = frozenset(
    {"address", "creator", "deploy_timestamp", "verified", "open_source", "files"}
)
FILE_FIELDS = frozenset({"directory", "filename", "content"})

# Common proxy upgrade entry points; override per run when a proxy uses a
# bespoke admin interface.
DEFAULT_UPGRADE_SIGNATURES = ("upgradeTo(address)", "upgradeToAndCall(address,bytes)")


@dataclass(frozen=True)
class TraceEvent:
    """One observed delegatecall from a proxy to an implementation."""

    proxy_address: str
    callee_address: str
    timestamp: int
    block_number: int
    selector: str
    tx_id: str


@dataclass(frozen=True)
class SourceFile:
    directory: str
    filename: str
    content: str


@dataclass(frozen=True)
class ContractRecord:
    """On-chain contract version: identity, creator and published source."""

    address: str
    creator: str
    deploy_timestamp: int
    verified: bool
    open_source: bool
    files: tuple[SourceFile, ...] = ()


@dataclass
class Corpus:
    """Canonical event stream plus contract metadata keyed by address."""

    events: list[TraceEvent]
    contracts: dict[str, ContractRecord]
    diagnostics: list[str] = field(default_factory=list, compare=False)


def normalize_address(value: object, where: str = "address") -> str:
    """Lowercase a 0x-prefixed 20-byte hex address, rejecting anything else."""
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {type(value).__name__}")
    normalized = value.lower()
    if not _ADDRESS_RE.match(normalized):
        raise ValidationError(f"{where} must be 0x + 40 hex chars, got {value!r}")
    return normalized


def normalize_selector(value: object, where: str = "selector") -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {type(value).__name__}")
    normalized = value.lower()
    if not _SELECTOR_RE.match(normalized):
        raise ValidationError(f"{where} must be 0x + 8 hex chars, got {value!r}")
    return normalized


def compute_selector(signature: str) -> str:
    """4-byte function selector: first 4 bytes of keccak-256 of the signature.

    The signature must be canonical, e.g. ``transfer(address,uint256)``:
    no spaces, no parameter names.
    """
    if not isinstance(signature, str):
        raise ValidationError("signature must be a string")
    if any(ch.isspace() for ch in signature):
        raise ValidationError(f"signature must not contain spaces: {signature!r}")
    if not _SIGNATURE_RE.match(signature):
        raise ValidationError(f"malformed signature: {signature!r}")
    depth = 0
    for ch in signature:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValidationError(f"unbalanced parentheses in signature: {signature!r}")
    if depth != 0:
        raise ValidationError(f"unbalanced parentheses in signature: {signature!r}")
    try:
        raw = signature.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"signature must be ASCII: {signature!r}") from exc
    return "0x" + keccak_256(raw)[:4].hex()


def monitored_selectors(signatures: Iterable[str] = DEFAULT_UPGRADE_SIGNATURES) -> dict[str, str]:
    """Map selector -> signature for the configured upgrade entry points."""
    return {compute_selector(sig): sig for sig in signatures}


def upgrade_proxies(corpus: Corpus, signatures: Iterable[str] = DEFAULT_UPGRADE_SIGNATURES) -> list[str]:
    """Proxies with at least one monitored upgrade-call selector in their stream."""
    watched = set(monitored_selectors(signatures))
    return sorted({e.proxy_address for e in corpus.events if e.selector in watched})


def _require_int(value: object, where: str, minimum: int | None = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{where} must be >= {minimum}, got {value}")
    return value


def _require_fields(obj: dict, expected: frozenset, where: str) -> None:
    keys = set(obj)
    missing = expected - keys
    if missing:
        raise ValidationError(f"{where} missing fields: {', '.join(sorted(missing))}")
    extra = keys - expected
    if extra:
        raise ValidationError(f"{where} has unknown fields: {', '.join(sorted(extra))}")


def validate_directory(value: object, where: str = "directory") -> str:
    """Normalized relative path: forward slashes, no '.'/'..' segments, may be empty."""
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {type(value).__name__}")
    if value == "":
        return value
    if "\\" in value or "\x00" in value:
        raise ValidationError(f"{where} must use forward slashes: {value!r}")
    if value.startswith("/") or value.endswith("/"):
        raise ValidationError(f"{where} must be a relative path without trailing slash: {value!r}")
    for segment in value.split("/"):
        if segment in ("", ".", ".."):
            raise ValidationError(f"{where} contains an illegal path segment: {value!r}")
    return value


def _event_from_obj(obj: object, where: str) -> TraceEvent:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    _require_fields(obj, TRACE_FIELDS, where)
    tx_id = obj["tx_id"]
    if not isinstance(tx_id, str) or not tx_id:
        raise ValidationError(f"{where}: tx_id must be a non-empty string")
    return TraceEvent(
        proxy_address=normalize_address(obj["proxy_address"], "proxy_address"),
        callee_address=normalize_address(obj["callee_address"], "callee_address"),
        timestamp=_require_int(obj["timestamp"], "timestamp"),
        block_number=_require_int(obj["block_number"], "block_number"),
        selector=normalize_selector(obj["selector"]),
        tx_id=tx_id,
    )


def contract_from_obj(obj: object, where: str = "contract record") -> ContractRecord:
    """Validate one contract-record JSON object (fixture row or explorer payload)."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    _require_fields(obj, CONTRACT_FIELDS, where)
    verified = obj["verified"]
    open_source = obj["open_source"]
    if not isinstance(verified, bool) or not isinstance(open_source, bool):
        raise ValidationError(f"{where}: verified and open_source must be booleans")
    raw_files = obj["files"]
    if not isinstance(raw_files, list):
        raise ValidationError(f"{where}: files must be a list")
    files = []
    seen_paths = set()
    for idx, raw in enumerate(raw_files):
        fwhere = f"{where} files[{idx}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{fwhere} must be a JSON object")
        _require_fields(raw, FILE_FIELDS, fwhere)
        directory = validate_directory(raw["directory"], f"{fwhere} directory")
        filename = raw["filename"]
        if not isinstance(filename, str) or not filename.endswith(".sol") or "/" in filename:
            raise ValidationError(f"{fwhere}: filename must be a bare name ending in .sol")
        content = raw["content"]
        if not isinstance(content, str):
            raise ValidationError(f"{fwhere}: content must be a string")
        path = (directory, filename)
        if path in seen_paths:
            raise ValidationError(f"{fwhere}: duplicate file path {directory!r}/{filename!r}")
        seen_paths.add(path)
        files.append(SourceFile(directory=directory, filename=filename, content=content))
    if open_source and not files:
        raise ValidationError(f"{where}: open_source contract must have files")
    if not open_source and files:
        raise ValidationError(f"{where}: closed-source contract must not have files")
    return ContractRecord(
        address=normalize_address(obj["address"], "address"),
        creator=normalize_address(obj["creator"], "creator"),
        deploy_timestamp=_require_int(obj["deploy_timestamp"], "deploy_timestamp"),
        verified=verified,
        open_source=open_source,
        files=tuple(sorted(files, key=lambda f: (f.directory, f.filename))),
    )


def _canonical_event_key(event: TraceEvent):
    return (event.block_number, event.tx_id, event.proxy_address,
            event.callee_address, event.selector, event.timestamp)


def _iter_ndjson(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_number, f"invalid JSON: {exc.msg}") from exc
            yield line_number, obj


def load_trace_events(path: str | Path) -> tuple[list[TraceEvent], list[str]]:
    """Load, sort and deduplicate the trace fixture. Returns (events, diagnostics).

    Events repeating a (tx_id, proxy, callee) observation are dropped; two
    proxies delegating to one implementation in the same transaction are two
    observations and both are kept.
    """
    path = Path(path)
    raw_events = []
    for line_number, obj in _iter_ndjson(path):
        try:
            raw_events.append(_event_from_obj(obj, "trace event"))
        except ValidationError as exc:
            raise ParseError(path, line_number, str(exc)) from exc

    raw_events.sort(key=_canonical_event_key)
    diagnostics = []
    events = []
    seen = set()
    duplicates = 0
    for event in raw_events:
        dedup_key = (event.tx_id, event.proxy_address, event.callee_address)
        if dedup_key in seen:
            duplicates += 1
            continue
        seen.add(dedup_key)
        events.append(event)
    if duplicates:
        diagnostics.append(
            f"traces: dropped {duplicates} duplicate event(s) (same tx_id, proxy and callee)"
        )

    # Timestamps must move forward with block numbers within one stream.
    prev_block = None
    prev_max_ts = None
    for event in events:
        if prev_block is not None and event.block_number > prev_block and event.timestamp <= prev_max_ts:
            diagnostics.append(
                f"traces: non-monotonic timestamp {event.timestamp} at block "
                f"{event.block_number} (tx {event.tx_id}); earlier block had {prev_max_ts}"
            )
        if prev_block is None or event.block_number > prev_block:
            prev_block = event.block_number
            prev_max_ts = event.timestamp
        else:
            prev_max_ts = max(prev_max_ts, event.timestamp)
    return events, diagnostics


def load_contract_records(path: str | Path) -> tuple[dict[str, ContractRecord], list[str]]:
    path = Path(path)
    contracts: dict[str, ContractRecord] = {}
    for line_number, obj in _iter_ndjson(path):
        try:
            record = contract_from_obj(obj)
        except ValidationError as exc:
            raise ParseError(path, line_number, str(exc)) from exc
        if record.address in contracts:
            raise ParseError(path, line_number, f"duplicate contract address {record.address}")
        contracts[record.address] = record
    return contracts, []


def load_corpus(trace_path: str | Path, contracts_path: str | Path) -> Corpus:
    """Load both fixtures into a canonical corpus.

    Events come out sorted by (block_number, tx_id); duplicated observations
    (same tx_id, proxy and callee) are dropped. Rows that violate the schema raise
    ParseError naming the offending line; cross-row oddities (timestamp
    inversions, callees without metadata) are recorded in diagnostics.
    """
    events, diagnostics = load_trace_events(trace_path)
    contracts, contract_diags = load_contract_records(contracts_path)
    diagnostics.extend(contract_diags)
    for callee in sorted({e.callee_address for e in events} - set(contracts)):
        diagnostics.append(f"contracts: no metadata for callee {callee}")
    return Corpus(events=events, contracts=contracts, diagnostics=diagnostics)


def _event_to_obj(event: TraceEvent) -> dict:
    return {
        "proxy_address": event.proxy_address,
        "callee_address": event.callee_address,
        "timestamp": event.timestamp,
        "block_number": event.block_number,
        "selector": event.selector,
        "tx_id": event.tx_id,
    }


def contract_to_obj(record: ContractRecord) -> dict:
    return {
        "address": record.address,
        "creator": record.creator,
        "deploy_timestamp": record.deploy_timestamp,
        "verified": record.verified,
        "open_source": record.open_source,
        "files": [
            {"directory": f.directory, "filename": f.filename, "content": f.content}
            for f in sorted(record.files, key=lambda f: (f.directory, f.filename))
        ],
    }


def _ndjson_bytes(objs: Iterable[dict]) -> bytes:
    lines = [json.dumps(obj, sort_keys=True, separators=(",", ":")) for obj in objs]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def serialize_trace_events(events: Iterable[TraceEvent]) -> bytes:
    return _ndjson_bytes(_event_to_obj(e) for e in sorted(events, key=_canonical_event_key))


def serialize_contract_records(contracts: dict[str, ContractRecord]) -> bytes:
    return _ndjson_bytes(contract_to_obj(contracts[a]) for a in sorted(contracts))


def write_corpus(corpus: Corpus, trace_path: str | Path, contracts_path: str | Path) -> None:
    """Write the canonical NDJSON serialization (byte-stable for equal corpora)."""
    Path(trace_path).write_bytes(serialize_trace_events(corpus.events))
    Path(contracts_path).write_bytes(serialize_contract_records(corpus.contracts))


def corpus_digests(corpus: Corpus) -> dict[str, str]:
    """SHA-256 digests of the canonical serialization, for bundle manifests."""
    return {
        "traces": hashlib.sha256(serialize_trace_events(corpus.events)).hexdigest(),
        "contracts": hashlib.sha256(serialize_contract_records(corpus.contracts)).hexdigest(),
    }


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
