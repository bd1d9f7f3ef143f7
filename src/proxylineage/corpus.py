"""Delegatecall trace and contract-metadata corpus: NDJSON fixtures in, canonical corpus out.

The trace fixture holds one delegatecall observation per line; the contract
fixture holds one contract record per line with embedded source files.
Loading validates every row, normalizes addresses to lowercase, sorts events
into canonical order and deduplicates repeated observations, so that the same
input bytes always produce the same corpus.
"""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ParseError, ValidationError

# used with fullmatch: a `$` anchor would also match before a final newline
_ADDRESS_RE = re.compile(r"0x[0-9a-f]{40}")
_SELECTOR_RE = re.compile(r"0x[0-9a-f]{8}")
_SIGNATURE_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*\(.*\)")

# 9999-12-31T23:59:59Z, the last second a datetime shows; a gap between two such is a finite float
MAX_TIMESTAMP = 253402300799

# Common proxy upgrade entry points; override per run when a proxy uses a
# bespoke admin interface.
DEFAULT_UPGRADE_SIGNATURES = ("upgradeTo(address)", "upgradeToAndCall(address,bytes)")


class TraceEvent(NamedTuple):
    """One observed delegatecall from a proxy to an implementation.

    The fields are in canonical order, so plain tuple comparison sorts
    events canonically: by block, transaction, proxy, callee, selector and
    timestamp.
    """

    block_number: int
    tx_id: str
    proxy_address: str
    callee_address: str
    selector: str
    timestamp: int


class SourceFile(NamedTuple):
    directory: str
    filename: str
    content: str


_file_path = attrgetter("directory", "filename")


class _ContractFields(NamedTuple):
    address: str
    creator: str
    deploy_timestamp: int
    verified: bool
    open_source: bool
    files: tuple[SourceFile, ...] = ()


class ContractRecord(_ContractFields):
    """On-chain contract version: identity, creator and published source.

    Every reader sees a contract's files in (directory, filename) order, and
    no two files share a path: a repeated path raises ValidationError.
    """

    __slots__ = ()

    def __new__(cls, address, creator, deploy_timestamp, verified, open_source, files=()):
        files = tuple(sorted(files, key=_file_path))
        paths = list(map(_file_path, files))
        for path, following in zip(paths, paths[1:]):  # sorted, a repeat is its neighbour
            if path == following:
                raise ValidationError("duplicate file path %r/%r" % path)
        return super().__new__(cls, address, creator, deploy_timestamp, verified, open_source, files)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both keep the file order too
        return cls(*iterable)


class Corpus(NamedTuple):
    """Canonical event stream plus contract metadata keyed by address.

    Without diagnostics a corpus holds an empty tuple, not one list shared
    by every such corpus.
    """

    events: list[TraceEvent]
    contracts: dict[str, ContractRecord]
    diagnostics: list[str] = ()


def normalize_address(value: object, where: str = "address") -> str:
    """Lowercase a 0x-prefixed 20-byte hex address, rejecting anything else."""
    normalized = _text(value, where).lower()
    if not _ADDRESS_RE.fullmatch(normalized):
        raise ValidationError(f"{where} must be 0x + 40 hex chars, got {value!r}")
    return normalized


def normalize_selector(value: object, where: str = "selector") -> str:
    normalized = _text(value, where).lower()
    if not _SELECTOR_RE.fullmatch(normalized):
        raise ValidationError(f"{where} must be 0x + 8 hex chars, got {value!r}")
    return normalized


def compute_selector(signature: str) -> str:
    """4-byte function selector: first 4 bytes of keccak-256 of the signature.

    The signature must be canonical, e.g. ``transfer(address,uint256)``:
    no spaces, no parameter names.
    """
    if any(ch.isspace() for ch in _text(signature, "signature")):
        raise ValidationError(f"signature must not contain spaces: {signature!r}")
    if not _SIGNATURE_RE.fullmatch(signature):
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
    from .keccak import keccak_256

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


def _require_timestamp(value: object, where: str) -> int:
    if _require_int(value, where) > MAX_TIMESTAMP:
        raise ValidationError(f"{where} must be <= {MAX_TIMESTAMP} (9999-12-31T23:59:59Z), got {value}")
    return value


def _text(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {type(value).__name__}")
    return value


def _line_span(start_line: object, end_line: object) -> None:
    """Check a span of source lines: integers from 1, the start not after the end."""
    if type(start_line) is not int or type(end_line) is not int or not 1 <= start_line <= end_line:
        if _require_int(start_line, "start_line", 1) > _require_int(end_line, "end_line", 1):
            raise ValidationError(f"start_line {start_line} is after end_line {end_line}")


def _line_count(text: str) -> int:
    """The number of lines of a source text, as functions and findings number them: each
    line ends at "\\n", and a final "\\n" opens no line (so "" has none)."""
    return text.count("\n") + (text[-1:] not in ("", "\n"))


def _fields(row: object, names, where: str = "row", also=()) -> tuple:
    """The values of `names` (two or more) in `row`, once it is a JSON object that holds each
    of them, may hold the keys in `also` and holds no other key.

    This is the one check of a row's shape. A reader with a faster path for valid rows
    calls it only to name a fault; a row no longer than `names` that holds each of them
    holds no other key, so only a longer row pays for a set difference.
    """
    if not isinstance(row, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(row).__name__}")
    try:
        values = itemgetter(*names)(row)
    except KeyError:
        missing = sorted(name for name in names if name not in row)
        raise ValidationError(f"{where} missing fields: {', '.join(missing)}") from None
    if len(row) > len(names) and (extra := row.keys() - {*names, *also}):
        raise ValidationError(f"{where} has unknown fields: {', '.join(sorted(extra))}")
    return values


def _record(cls, row: object, *also: str, where: str = "row"):
    """The `cls` a row describes: the row holds cls's fields, may hold the keys named in
    `also`, and holds no others."""
    return cls._make(_fields(row, cls._fields, where, also))


def validate_directory(value: object, where: str = "directory") -> str:
    """Normalized relative path: forward slashes, no '.'/'..' segments, no NUL, may be empty."""
    if _text(value, where) == "":
        return value
    if "\x00" in value:
        raise ValidationError(f"{where} must not hold a NUL character: {value!r}")
    if "\\" in value:
        raise ValidationError(f"{where} must use forward slashes: {value!r}")
    if value.startswith("/") or value.endswith("/"):
        raise ValidationError(f"{where} must be a relative path without trailing slash: {value!r}")
    for segment in value.split("/"):
        if segment in ("", ".", ".."):
            raise ValidationError(f"{where} contains an illegal path segment: {value!r}")
    return value


def _memo_normalize(memo: dict[str, str], value: object, normalize, where: str) -> str:
    """normalize(value, where), validated once per distinct value in one load.

    Raw spellings of one value (mixed case) map to one shared normalized string.
    """
    try:
        return memo[value]
    except KeyError:
        normalized = normalize(value, where)
        memo[value] = normalized = memo.setdefault(normalized, normalized)
        return normalized
    except TypeError:  # unhashable: a list or an object, never valid
        return normalize(value, where)


def _event_from_obj(obj: object, where: str, memo: tuple[dict, dict]) -> TraceEvent:
    """Validate one trace row; `memo` holds (addresses, selectors) already normalized."""
    try:
        if len(obj) != len(TraceEvent._fields):
            raise KeyError
        tx_id, raw_proxy, raw_callee = obj["tx_id"], obj["proxy_address"], obj["callee_address"]
        timestamp, block_number, raw_selector = obj["timestamp"], obj["block_number"], obj["selector"]
    except (KeyError, TypeError):  # not an object, a field missing or another present
        _fields(obj, TraceEvent._fields, where)
    if not isinstance(tx_id, str) or not tx_id:
        got = repr(tx_id) if isinstance(tx_id, str) else type(tx_id).__name__
        raise ValidationError(f"tx_id must be a non-empty string, got {got}")
    addresses, selectors = memo
    try:
        proxy, callee, selector = addresses[raw_proxy], addresses[raw_callee], selectors[raw_selector]
    except (KeyError, TypeError):  # a value not seen yet in this load, or an unhashable one
        proxy = _memo_normalize(addresses, raw_proxy, normalize_address, "proxy_address")
        callee = _memo_normalize(addresses, raw_callee, normalize_address, "callee_address")
        selector = None
    if type(timestamp) is not int or not 0 <= timestamp <= MAX_TIMESTAMP:
        timestamp = _require_timestamp(timestamp, "timestamp")
    if type(block_number) is not int or block_number < 0:
        block_number = _require_int(block_number, "block_number")
    if selector is None:
        selector = _memo_normalize(selectors, raw_selector, normalize_selector, "selector")
    # tuple.__new__ skips the Python-level __new__ of a NamedTuple: same event, half the cost
    return tuple.__new__(TraceEvent, (block_number, tx_id, proxy, callee, selector, timestamp))


def contract_from_obj(obj: object, where: str = "contract record") -> ContractRecord:
    """Validate one contract-record JSON object (fixture row or explorer payload)."""
    try:
        if len(obj) != len(ContractRecord._fields):
            raise KeyError
        address, creator, deploy_timestamp = obj["address"], obj["creator"], obj["deploy_timestamp"]
        verified, open_source, raw_files = obj["verified"], obj["open_source"], obj["files"]
    except (KeyError, TypeError):  # not an object, a field missing or another present
        _fields(obj, ContractRecord._fields, where)
    if not isinstance(verified, bool) or not isinstance(open_source, bool):
        name, value = (("open_source", open_source) if isinstance(verified, bool)
                       else ("verified", verified))
        raise ValidationError(f"{name} must be a boolean, got {type(value).__name__}")
    if not isinstance(raw_files, list):
        raise ValidationError(f"files must be a list, got {type(raw_files).__name__}")
    files = []
    for idx, raw in enumerate(raw_files):
        fwhere = f"{where} files[{idx}]"
        directory, filename, content = _fields(raw, SourceFile._fields, fwhere)
        directory = validate_directory(directory, f"{fwhere} directory")
        if not _text(filename, f"{fwhere} filename").endswith(".sol") or "/" in filename:
            raise ValidationError(f"{fwhere}: filename must be a bare name ending in .sol")
        validate_directory(filename, f"{fwhere} filename")  # a one-segment path
        files.append(SourceFile(directory, filename, _text(content, f"{fwhere} content")))
    if open_source and not files:
        raise ValidationError(f"{where}: open_source contract must have files")
    if not open_source and files:
        raise ValidationError(f"{where}: closed-source contract must not have files")
    address = normalize_address(address, "address")
    creator = normalize_address(creator, "creator")
    deploy_timestamp = _require_timestamp(deploy_timestamp, "deploy_timestamp")
    try:
        return ContractRecord(address, creator, deploy_timestamp, verified, open_source, files)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _utf8(data: bytes, where, first_line: int = 1) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = first_line + data.count(b"\n", 0, exc.start)
        raise ParseError(where, line_number, f"invalid UTF-8: {exc.reason}") from exc


_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _iter_ndjson(path: Path, parse):
    """(line number, parse(row)) per non-blank line of an NDJSON file.

    A row is what json.loads(line) returns. A line holding one JSON value at
    its start and only JSON whitespace after it is read by a single call of
    the decoder's scanner; every other line is skipped as blank or goes through
    `_decode` without its line end, whose json.loads gives the same value or raises
    the same error, except that a string cut off by the line end reads as
    unterminated rather than as holding a control character.
    Bad UTF-8, bad JSON, a string that UTF-8 cannot encode or a row that `parse`
    rejects with a ValidationError raises ParseError naming the file and line.
    """
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = _utf8(raw, path, line_number)
            try:
                obj, end = _scan_json(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end < 0 or line[end:].strip(_JSON_SPACE):
                if not line.strip():
                    continue
                obj = _decode(line.rstrip("\r\n"), path, line_number)
            # a row without a backslash skips the slower search for the two characters
            elif "\\" in line and "\\u" in line:
                _check_encodable(obj, line, path, line_number)
            try:
                parsed = parse(obj)
            except ValidationError as exc:
                raise ParseError(path, line_number, str(exc)) from exc
            yield line_number, parsed


def _decode(text: str, where, first_line: int = 1):
    """The JSON value of `text`, which starts on line `first_line` of `where` (a path or a URL).
    Bad JSON or a string that UTF-8 cannot encode raises ParseError naming `where` and the line."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:  # an error at the end of the text is on its last line
        line = first_line + text.count("\n", 0, min(exc.pos, len(text) - 1))
        # json puts a position after "at" only in str(exc), so two messages end cut off
        at = f" column {exc.colno}" if exc.msg.endswith(" at") else ""
        raise ParseError(where, line, f"invalid JSON: {exc.msg}{at}") from exc
    except (ValueError, RecursionError) as exc:
        raise _undecodable(where, text, exc, first_line) from exc
    if "\\u" in text:
        _check_encodable(obj, text, where, first_line)
    return obj


def read_json(path: str | Path):
    """Parse one JSON document; bad UTF-8, bad JSON or a string that UTF-8 cannot encode
    raises ParseError with its line."""
    return _decode(_utf8(Path(path).read_bytes(), path), path)


def _unencodable(value) -> str | None:
    """Why the first string of a parsed JSON value, key or value, cannot encode as UTF-8,
    naming where it sits; None if every string can. Only a \\u escape writes such a string:
    a lone surrogate. The walk keeps its own stack, so a deep value costs no recursion."""
    stack = [("", value)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, str):
            if not value.isascii():
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:
                    return (f"{where or 'the value'} holds the lone surrogate "
                            f"U+{ord(value[exc.start]):04X}, which UTF-8 cannot encode")
        elif isinstance(value, dict):
            for key, item in reversed(value.items()):
                stack.append((f"{where}.{key}" if where else key, item))
                stack.append((f"a key of {where}" if where else "a key", key))
        elif isinstance(value, list):
            stack.extend((f"{where}[{i}]", item) for i, item in reversed(list(enumerate(value))))
    return None


def _check_encodable(obj, text: str, path, first_line: int = 1) -> None:
    """Raise ParseError if a string of `obj`, parsed from `text`, cannot encode as UTF-8.

    The line is that of the first string literal in `text` that decodes to such a string.
    """
    fault = _unencodable(obj)
    if fault is not None:
        at = next((match.start() for match in _JSON_TOKEN.finditer(text)
                   if match[0][0] == '"' and _unencodable(json.loads(match[0]))), 0)
        raise ParseError(path, first_line + text.count("\n", 0, at), fault)


# A JSON string, an opening bracket, a closing bracket, or the digits of a JSON integer
# (not of a fraction or an exponent)
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|([\[{])|([\]}])|(?<![0-9.eE+-])-?([0-9]+)(?![0-9.eE])')


def _undecodable(path, text: str, exc: Exception, first_line: int = 1) -> ParseError:
    """The ParseError for the two errors json.loads raises besides JSONDecodeError, neither
    with a position: a RecursionError for nesting deeper than the decoder's stack allows,
    and a ValueError for an integer with more digits than int() converts.

    The line comes from a scan that skips strings. Too deep a nesting is reported on the
    line of the first bracket at the greatest depth. json.loads converts integers in text
    order and everything before the failing one was valid JSON, so an overlong integer's
    line is that of the first integer over the limit.
    """
    at = 0
    if isinstance(exc, RecursionError):
        message = "nested deeper than the decoder allows"
        depth = deepest = 0
        for match in _JSON_TOKEN.finditer(text):
            depth += (match[1] is not None) - (match[2] is not None)
            if depth > deepest:
                at, deepest = match.start(), depth
    else:
        limit = sys.get_int_max_str_digits()
        message = f"integer longer than {limit} digits"
        for match in _JSON_TOKEN.finditer(text):
            if match[3] is not None and len(match[3]) > limit:
                at = match.start()
                break
    return ParseError(path, first_line + text.count("\n", 0, at), f"invalid JSON: {message}")


def json_text(obj) -> str:
    """The pretty form of every JSON report and bundle table: sorted keys, two-space indent.

    The bytes of json.dumps(obj, sort_keys=True, indent=2) plus a newline,
    without the pure-Python encoder that `indent` selects; an unsupported
    value raises the same TypeError. A cyclic container is not detected
    (it ends in RecursionError, not ValueError).
    """
    chunks: list[str] = []
    _pretty_json(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


_JSON_BOOL = {True: "true", False: "false"}
# JSON text of str, int, bool and None, by exact type
_SCALAR_JSON = {str: _json_str, int: int.__repr__, bool: _JSON_BOOL.__getitem__,
                type(None): lambda _: "null"}
_encode = json.JSONEncoder().encode  # json.dumps' own encoder, for every other value


def _pretty_json(value, newline: str, emit) -> None:
    """Emit `value` as it stands after `newline` (a line break plus its indent)."""
    text = _SCALAR_JSON.get(type(value))
    if text is not None:
        emit(text(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            # json's encoder spells (or rejects) any other key in a one-key object
            key = _json_str(key) if type(key) is str else _encode({key: None})[1:-7]
            text = _SCALAR_JSON.get(type(item))
            if text is not None:
                emit(f"{separator}{key}: {text(item)}")
            else:
                emit(f"{separator}{key}: ")
                _pretty_json(item, inner, emit)
            separator = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            text = _SCALAR_JSON.get(type(item))
            if text is not None:
                emit(separator + text(item))
            else:
                emit(separator)
                _pretty_json(item, inner, emit)
            separator = "," + inner
        emit(newline + "]")
    else:  # a float, a str, int or float subclass, or a value that json rejects with its TypeError
        emit(_encode(value))


def write_json(path: str | Path, obj) -> None:
    """Write json_text(obj) to `path` chunk by chunk, so the whole text is never held."""
    with open(path, "w", encoding="utf-8") as handle:
        _pretty_json(obj, "\n", handle.write)
        handle.write("\n")


def load_trace_events(path: str | Path) -> tuple[list[TraceEvent], list[str]]:
    """Load, sort and deduplicate the trace fixture. Returns (events, diagnostics).

    Events repeating a (tx_id, proxy, callee) observation are dropped; two
    proxies delegating to one implementation in the same transaction are two
    observations and both are kept.
    """
    path = Path(path)
    memo: tuple[dict, dict] = ({}, {})
    rows = _iter_ndjson(path, lambda obj: _event_from_obj(obj, "trace event", memo))
    raw_events = [event for _, event in rows]
    raw_events.sort()
    events = []
    seen = set()
    duplicates = 0
    non_monotonic = []
    # Timestamps must move forward with block numbers within one stream;
    # validated blocks and timestamps are >= 0, so -1 precedes them all.
    prev_block = prev_max_ts = -1
    for event in raw_events:
        block_number, tx_id, proxy, callee, _, timestamp = event
        dedup_key = (tx_id, proxy, callee)
        if dedup_key in seen:
            duplicates += 1
            continue
        seen.add(dedup_key)
        events.append(event)
        if block_number > prev_block:
            if timestamp <= prev_max_ts:
                non_monotonic.append(
                    f"traces: non-monotonic timestamp {timestamp} at block "
                    f"{block_number} (tx {tx_id}); earlier block had {prev_max_ts}"
                )
            prev_block, prev_max_ts = block_number, timestamp
        elif timestamp > prev_max_ts:
            prev_max_ts = timestamp
    diagnostics = []
    if duplicates:
        diagnostics.append(
            f"traces: dropped {duplicates} duplicate event(s) (same tx_id, proxy and callee)"
        )
    diagnostics.extend(non_monotonic)
    return events, diagnostics


def load_contract_records(path: str | Path) -> dict[str, ContractRecord]:
    path = Path(path)
    contracts: dict[str, ContractRecord] = {}
    for line_number, record in _iter_ndjson(path, contract_from_obj):
        if record.address in contracts:
            raise ParseError(path, line_number, f"duplicate contract address {record.address}")
        contracts[record.address] = record
    return contracts


def missing_metadata_note(callee: str) -> str:
    """The diagnostic of a callee that no contract record describes."""
    return f"contracts: no metadata for callee {callee}"


def load_corpus(trace_path: str | Path, contracts_path: str | Path) -> Corpus:
    """Load both fixtures into a canonical corpus.

    Events come out sorted by (block_number, tx_id); duplicated observations
    (same tx_id, proxy and callee) are dropped. Rows that violate the schema raise
    ParseError naming the offending line; cross-row oddities (timestamp
    inversions, callees without metadata) are recorded in diagnostics.
    """
    events, diagnostics = load_trace_events(trace_path)
    contracts = load_contract_records(contracts_path)
    unknown = sorted({e.callee_address for e in events} - set(contracts))
    diagnostics += map(missing_metadata_note, unknown)
    return Corpus(events=events, contracts=contracts, diagnostics=diagnostics)


def _trace_line(e: TraceEvent) -> str:
    """One canonical trace row: the bytes of json.dumps(row, sort_keys=True,
    separators=(",", ":")) on the event's fields, plus the newline."""
    return (f'{{"block_number":{e.block_number},"callee_address":{_json_str(e.callee_address)},'
            f'"proxy_address":{_json_str(e.proxy_address)},"selector":{_json_str(e.selector)},'
            f'"timestamp":{e.timestamp},"tx_id":{_json_str(e.tx_id)}}}\n')


def _trace_lines(events: Iterable[TraceEvent]) -> Iterable[str]:
    """The canonical trace file, one row at a time, in canonical order."""
    return map(_trace_line, sorted(events))


def _contract_line(r: ContractRecord) -> str:
    """One canonical contract row, plus the newline: the bytes of json.dumps
    with sort_keys=True and separators=(",", ":") of the record's six fields."""
    files = ",".join(f'{{"content":{_json_str(f.content)},"directory":{_json_str(f.directory)},'
                     f'"filename":{_json_str(f.filename)}}}'
                     for f in r.files)
    return (f'{{"address":{_json_str(r.address)},"creator":{_json_str(r.creator)},'
            f'"deploy_timestamp":{r.deploy_timestamp},"files":[{files}],'
            f'"open_source":{_JSON_BOOL[r.open_source]},"verified":{_JSON_BOOL[r.verified]}}}\n')


def _contract_lines(contracts: dict[str, ContractRecord]) -> Iterable[str]:
    """The canonical contract file, one row at a time, in address order."""
    return (_contract_line(contracts[a]) for a in sorted(contracts))


def write_corpus(corpus: Corpus, trace_path: str | Path, contracts_path: str | Path) -> None:
    """Write the canonical NDJSON serialization (byte-stable for equal corpora).

    Both files are streamed row by row, never held whole in memory.
    """
    for path, lines in ((trace_path, _trace_lines(corpus.events)),
                        (contracts_path, _contract_lines(corpus.contracts))):
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.writelines(lines)


def corpus_digests(corpus: Corpus) -> dict[str, str]:
    """SHA-256 digests of the canonical serialization, that is of the files
    write_corpus writes, for bundle manifests. Rows are hashed one at a time, so
    neither serialization is held whole in memory."""
    import hashlib  # imported here: it loads OpenSSL, which only hashing commands need

    digests = {}
    for name, lines in (("contracts", _contract_lines(corpus.contracts)),
                        ("traces", _trace_lines(corpus.events))):
        digest = hashlib.sha256()
        for line in lines:
            digest.update(line.encode("ascii"))
        digests[name] = digest.hexdigest()
    return digests
