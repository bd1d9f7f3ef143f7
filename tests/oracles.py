"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles with different
structure than the package code: the keccak oracle derives its round
constants and rotation offsets from the LFSR/permutation definitions instead
of hardcoding tables; the LCS and edit-distance oracles are plain
full-matrix DPs; the greedy name-matching oracle takes the least remaining
candidate pair one at a time, where the package sorts the candidates once;
the lineage oracle applies the classification rules by direct recursive
construction. The function extractor oracle follows the
package's control flow but reads the lexer oracle's tokens with their kinds
and lines, and balances each bracket kind with a depth loop of its own, where
the package shares one scan; malformed input is its use.
The lifecycle oracles count into running accumulators pair by pair, where
the package reads every summary figure from one table of cells. The trace
loader oracle validates each row through its key set and named fields, keeps
each transaction's first (block, timestamp, line) as it reads, deduplicates
through a set of keys before it checks timestamps, in two passes, where the
package indexes each row once, re-reads the file only to name a conflict's
first line, and drops repeats as neighbours in one pass. The evaluator oracle verifies
every LSH candidate before it filters by creator; the package verifies only
the query creator's candidates.
"""

from __future__ import annotations

import hashlib
import json

from pathlib import Path
from typing import NamedTuple

from proxylineage import (Corpus, LineageEvaluator, LshIndex, SimilarityCategory, TraceEvent,
                          query_similar)
from proxylineage.corpus import (_iter_ndjson, _memo_normalize, _require_int, _require_timestamp,
                                 normalize_address, normalize_selector)
from proxylineage.errors import ConfigurationError, ParseError, UnknownAddressError, ValidationError
from proxylineage.lifecycle import (DEFAULT_CATEGORY_MAP, INTERSECTION, UNION, FileIdentity, Finding,
                                    FindingKey, LifecycleStatus)
from proxylineage.lineage import SECONDS_PER_DAY, ContractPair
from proxylineage.pairing import FileMatch
from proxylineage.solidity import (CONTAINER_KEYWORDS, _NON_NAME_KEYWORDS, FunctionUnit,
                                   canonical_signature)


# --- keccak-256 oracle --------------------------------------------------------

def _oracle_round_constants() -> list[int]:
    def rc_bit(t: int) -> int:
        if t % 255 == 0:
            return 1
        register = 0x01
        for _ in range(t % 255):
            register <<= 1
            if register & 0x100:
                register ^= 0x171  # x^8 + x^6 + x^5 + x^4 + 1
        return register & 1

    constants = []
    for round_index in range(24):
        rc = 0
        for j in range(7):
            if rc_bit(j + 7 * round_index):
                rc |= 1 << (2 ** j - 1)
        constants.append(rc)
    return constants


def _oracle_rotations() -> dict[tuple[int, int], int]:
    offsets = {(0, 0): 0}
    x, y = 1, 0
    for t in range(24):
        offsets[(x, y)] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


def oracle_keccak_256(data: bytes) -> bytes:
    mask = (1 << 64) - 1
    rotations = _oracle_rotations()
    constants = _oracle_round_constants()

    def rotl(value: int, amount: int) -> int:
        amount %= 64
        if not amount:
            return value
        return ((value << amount) | (value >> (64 - amount))) & mask

    lanes = {(x, y): 0 for x in range(5) for y in range(5)}

    def permute() -> None:
        for rc in constants:
            parity = {
                x: lanes[(x, 0)] ^ lanes[(x, 1)] ^ lanes[(x, 2)] ^ lanes[(x, 3)] ^ lanes[(x, 4)]
                for x in range(5)
            }
            for x in range(5):
                d = parity[(x - 1) % 5] ^ rotl(parity[(x + 1) % 5], 1)
                for y in range(5):
                    lanes[(x, y)] ^= d
            rotated = {}
            for x in range(5):
                for y in range(5):
                    rotated[(y, (2 * x + 3 * y) % 5)] = rotl(lanes[(x, y)], rotations[(x, y)])
            for x in range(5):
                for y in range(5):
                    lanes[(x, y)] = rotated[(x, y)] ^ (
                        (rotated[((x + 1) % 5, y)] ^ mask) & rotated[((x + 2) % 5, y)]
                    )
            lanes[(0, 0)] ^= rc

    rate = 136
    message = bytearray(data)
    message.append(0x01)
    while len(message) % rate:
        message.append(0x00)
    message[-1] |= 0x80
    for start in range(0, len(message), rate):
        for i in range(rate // 8):
            lanes[(i % 5, i // 5)] ^= int.from_bytes(message[start + 8 * i:start + 8 * i + 8], "little")
        permute()
    return b"".join(lanes[(i % 5, i // 5)].to_bytes(8, "little") for i in range(4))


def oracle_selector(signature: str) -> str:
    return "0x" + oracle_keccak_256(signature.encode("ascii"))[:4].hex()


# --- sequence oracles ---------------------------------------------------------

def oracle_lcs_length(a, b) -> int:
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[m][n]


def oracle_line_similarity(a: str, b: str) -> float:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if not lines_a and not lines_b:
        return 1.0
    if not lines_a or not lines_b:
        return 0.0
    return oracle_lcs_length(lines_a, lines_b) / max(len(lines_a), len(lines_b))


def oracle_levenshtein(a: str, b: str) -> int:
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[m][n]


def oracle_greedy_pairs(left: list[str], right: list[str], rank) -> list[tuple[int, int, int]]:
    """Greedy one-to-one matching of two name lists, taken one pair at a time: of the
    (i, j) whose names are within two edits and whose i and j are both still free, take
    the one of least (rank(distance, i, j), i, j), until none is left. Returns the
    (distance, i, j) triples in the order taken."""
    free = {(i, j): oracle_levenshtein(a, b) for i, a in enumerate(left)
            for j, b in enumerate(right)}
    free = {ij: distance for ij, distance in free.items() if distance <= 2}
    taken = []
    while free:
        i, j = min(free, key=lambda ij: (rank(free[ij], *ij), ij))
        taken.append((free[i, j], i, j))
        free = {(a, b): distance for (a, b), distance in free.items() if a != i and b != j}
    return taken


def oracle_jaccard(a: set, b: set) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def oracle_shingle_hash(window) -> int:
    """The 8-byte blake2b digest of the tokens joined by the unit separator, little-endian."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update("\x1f".join(window).encode("utf-8"))
    return int.from_bytes(digest.digest(), byteorder="little")


_MASK64 = (1 << 64) - 1


def _oracle_splitmix64(value: int) -> int:
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def oracle_minhash_signature(shingle_hashes, k: int, seed: int) -> tuple[int, ...]:
    """One-permutation MinHash with optimal densification, in two separate steps.

    Every distinct hash h goes, as splitmix64(h xor seed) = q*k + r, into the
    list of bin r as q; a filled bin keeps the least q of its list. Then each
    empty bin i probes bins splitmix64(seed xor (i*gamma + t)) mod k for
    t = 1, 2, ... and copies the first filled one. An empty set gives the
    all-max sentinel.
    """
    hashes = set(shingle_hashes)
    if not hashes:
        return (_MASK64,) * k
    salt = seed % 2**64
    lists: list[list[int]] = [[] for _ in range(k)]
    for h in hashes:
        mixed = _oracle_splitmix64(h ^ salt)
        lists[mixed % k].append(mixed // k)
    filled = {i: min(values) for i, values in enumerate(lists) if values}
    signature = []
    for i in range(k):
        if i in filled:
            signature.append(filled[i])
            continue
        t = 1
        while (j := _oracle_splitmix64(salt ^ ((i * 0x9E3779B97F4A7C15 + t) % 2**64)) % k) not in filled:
            t += 1
        signature.append(filled[j])
    return tuple(signature)


# --- Solidity lexer oracle ------------------------------------------------------

class OracleToken(NamedTuple):
    """One token of the oracle lexer, with its kind and line; the package keeps only texts
    and start offsets."""

    kind: str  # ident | number | string | punct
    text: str
    line: int
    pos: int


def oracle_tokenize(text: str, diagnostics: list[str] | None = None) -> list[OracleToken]:
    """The lexer as a loop over characters.

    Whitespace (str.isspace) and `//` and `/* */` comments are skipped; an
    unterminated block comment runs to the end. A string literal runs to its
    closing quote, a newline or the end; a backslash escapes the next
    character, a newline included. Strings become the token '""'. Idents are
    [A-Za-z_$][A-Za-z0-9_$]*, numbers [0-9][0-9a-fA-FxX._]*, and any other
    character is one punct token. Lines count every newline before a token.
    """
    ident_start = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
    ident_cont = ident_start | set("0123456789")
    number_cont = set("0123456789abcdefABCDEFxX._")
    tokens: list[OracleToken] = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                if diagnostics is not None:
                    diagnostics.append(f"line {line}: unterminated block comment")
                end = n
            else:
                end += 2
            line += text.count("\n", i, end)
            i = end
        elif ch in ('"', "'"):
            j = i + 1
            closed = False
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                elif text[j] == ch:
                    closed = True
                    j += 1
                    break
                elif text[j] == "\n":
                    break
                else:
                    j += 1
            if not closed and diagnostics is not None:
                diagnostics.append(f"line {line}: unterminated string literal")
            tokens.append(OracleToken("string", '""', line, i))
            line += text.count("\n", i, j)
            i = j
        elif ch in ident_start or ch.isascii() and ch.isdigit():
            cont = ident_cont if ch in ident_start else number_cont
            j = i + 1
            while j < n and text[j] in cont:
                j += 1
            tokens.append(OracleToken("ident" if ch in ident_start else "number", text[i:j], line, i))
            i = j
        else:
            tokens.append(OracleToken("punct", ch, line, i))
            i += 1
    return tokens


# --- function extractor oracle ---------------------------------------------------

def oracle_extract_functions(text: str, diagnostics: list[str] | None = None) -> list[FunctionUnit]:
    """The extractor with a hand-written depth loop for each bracket kind.

    Functions at the top level of a contract, library or interface body are
    units; a body is the balanced `{...}` after the modifiers and returns
    clauses, or empty when the declaration ends at `;`. Malformed or
    truncated declarations give the same partial units and notes as the
    package's extractor.
    """
    if diagnostics is None:
        diagnostics = []
    tokens = oracle_tokenize(text, diagnostics)
    units: list[FunctionUnit] = []
    depth = 0
    container_depth: int | None = None
    pending_container = False
    i = 0
    n = len(tokens)
    while i < n:
        token = tokens[i]
        if token.kind == "punct":
            if token.text == "{":
                depth += 1
                if pending_container and container_depth is None:
                    container_depth = depth
                    pending_container = False
            elif token.text == "}":
                depth -= 1
                if container_depth is not None and depth < container_depth:
                    container_depth = None
            i += 1
            continue
        if token.kind == "ident" and token.text in CONTAINER_KEYWORDS and depth == 0:
            pending_container = True
            i += 1
            continue
        if (
            token.kind == "ident"
            and token.text == "function"
            and container_depth is not None
            and depth == container_depth
        ):
            unit, next_i = _oracle_parse_function(tokens, i, text, diagnostics)
            if unit is not None:
                units.append(unit)
                i = next_i
                continue
        i += 1
    if depth != 0:
        diagnostics.append("unbalanced braces at end of file")
    return units


def _oracle_parse_function(tokens: list[OracleToken], start: int, text: str,
                           diagnostics: list[str]) -> tuple[FunctionUnit | None, int]:
    n = len(tokens)
    if start + 2 >= n:
        return None, start + 1
    name_token = tokens[start + 1]
    open_paren = tokens[start + 2]
    if name_token.kind != "ident" or name_token.text in _NON_NAME_KEYWORDS:
        return None, start + 1
    if open_paren.kind != "punct" or open_paren.text != "(":
        return None, start + 1

    param_tokens: list[OracleToken] = []
    paren_depth = 1
    j = start + 3
    while j < n and paren_depth:
        token = tokens[j]
        if token.kind == "punct":
            if token.text == "(":
                paren_depth += 1
            elif token.text == ")":
                paren_depth -= 1
                if paren_depth == 0:
                    j += 1
                    break
        param_tokens.append(token)
        j += 1
    if paren_depth:
        diagnostics.append(
            f"line {name_token.line}: unterminated parameter list for function {name_token.text}"
        )
        return None, n

    signature = canonical_signature(name_token.text, [t.text for t in param_tokens])
    start_line = tokens[start].line

    def unit(body: str, end_line: int) -> FunctionUnit:
        return FunctionUnit(name_token.text, signature, body, start_line, end_line)

    paren_depth = 0
    while j < n:
        token = tokens[j]
        if token.kind == "punct":
            if token.text == "(":
                paren_depth += 1
            elif token.text == ")":
                paren_depth -= 1
            elif paren_depth == 0 and token.text == ";":
                return unit("", token.line), j + 1
            elif paren_depth == 0 and token.text == "{":
                brace_depth = 0
                k = j
                while k < n:
                    t = tokens[k]
                    if t.kind == "punct":
                        if t.text == "{":
                            brace_depth += 1
                        elif t.text == "}":
                            brace_depth -= 1
                            if brace_depth == 0:
                                return unit(text[token.pos:t.pos + 1], t.line), k + 1
                    k += 1
                diagnostics.append(
                    f"line {start_line}: unbalanced braces at EOF in body of "
                    f"function {name_token.text}"
                )
                return unit("", tokens[-1].line), n
        j += 1
    diagnostics.append(f"line {start_line}: function {name_token.text} has no body or terminator")
    return unit("", tokens[-1].line), n


# --- canonical trace file oracle ------------------------------------------------

def oracle_trace_ndjson(events) -> bytes:
    """The canonical trace file through the generic JSON encoder.

    Rows are ordered by (block, tx, proxy, callee, selector, timestamp); each
    is json.dumps of the event's fields with sorted keys and no spaces, and
    the rows are joined by newlines with one after the last.
    """
    ordered = sorted(events, key=lambda e: (e.block_number, e.tx_id, e.proxy_address,
                                            e.callee_address, e.selector, e.timestamp))
    rows = [json.dumps(e._asdict(), sort_keys=True, separators=(",", ":")) for e in ordered]
    return "".join(row + "\n" for row in rows).encode("utf-8")


# --- trace loader oracle ----------------------------------------------------------

ORACLE_TRACE_KEYS = {"block_number", "callee_address", "proxy_address", "selector", "timestamp",
                     "tx_id"}


def oracle_event_from_obj(obj: object, where: str, memo: tuple[dict, dict]) -> TraceEvent:
    """One validated trace row: its key set first, then each field by name in a fixed order."""
    if type(obj) is not dict:
        raise ValidationError(f"{where} must be a JSON object, got {type(obj).__name__}")
    keys = set(obj)
    if keys != ORACLE_TRACE_KEYS:
        missing = ", ".join(sorted(ORACLE_TRACE_KEYS - keys))
        unknown = ", ".join(sorted(keys - ORACLE_TRACE_KEYS))
        raise ValidationError(f"{where} missing fields: {missing}" if missing
                              else f"{where} has unknown fields: {unknown}")
    tx_id = obj["tx_id"]
    if type(tx_id) is not str:
        raise ValidationError(f"tx_id must be a non-empty string, got {type(tx_id).__name__}")
    if tx_id == "":
        raise ValidationError("tx_id must be a non-empty string, got ''")
    addresses, selectors = memo
    proxy = _memo_normalize(addresses, obj["proxy_address"], normalize_address, "proxy_address")
    callee = _memo_normalize(addresses, obj["callee_address"], normalize_address, "callee_address")
    timestamp, block_number = obj["timestamp"], obj["block_number"]
    timestamp = _require_timestamp(timestamp, "timestamp")
    if type(block_number) is not int or block_number < 0:
        block_number = _require_int(block_number, "block_number")
    selector = _memo_normalize(selectors, obj["selector"], normalize_selector, "selector")
    return TraceEvent(block_number, tx_id, proxy, callee, selector, timestamp)


def oracle_load_trace_events(path) -> tuple[list[TraceEvent], list[str]]:
    """Events whose transactions each sit in one block at one timestamp, sorted, without
    repeated (tx_id, proxy, callee) observations, then a second pass over the kept events
    for timestamps that do not move forward."""
    path = Path(path)
    memo: tuple[dict, dict] = ({}, {})
    rows = _iter_ndjson(path, lambda obj: oracle_event_from_obj(obj, "trace event", memo))
    placed: dict[str, tuple[int, int, int]] = {}  # tx_id -> its first row's block, timestamp, line
    raw_events = []
    for line_number, event in rows:
        place = (event.block_number, event.timestamp)
        block, timestamp, first_line = placed.setdefault(event.tx_id, (*place, line_number))
        if place != (block, timestamp):
            raise ParseError(path, line_number,
                             f"tx_id {event.tx_id!r} at block {event.block_number}, timestamp "
                             f"{event.timestamp} contradicts its first row, line {first_line}: "
                             f"block {block}, timestamp {timestamp}")
        raw_events.append(event)
    raw_events.sort()
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


# --- evaluator oracle -------------------------------------------------------------

class OracleEvaluator(LineageEvaluator):
    """A LineageEvaluator that searches one LSH index over every fingerprint,
    verifies every candidate, of any creator, and only then keeps those
    sharing the query's creator."""

    def __init__(self, corpus, lineages, fingerprints):
        super().__init__(corpus, lineages, fingerprints)
        self.everything = LshIndex(fingerprints.values())

    def _same_creator_neighbours(self, query: str):
        neighbours = self._neighbours.get(query)
        if neighbours is not None:
            return neighbours
        if query not in self.fingerprints:
            raise UnknownAddressError(f"no fingerprint for query {query}")
        query_record = self.corpus.contracts.get(query)
        if query_record is None:
            raise UnknownAddressError(f"no contract record for query {query}")
        neighbours = []
        for address, verdict in query_similar(
            self.fingerprints, query, min_category=SimilarityCategory.NONE, index=self.everything
        ):
            record = self.corpus.contracts.get(address)
            if record is not None and record.creator == query_record.creator:
                neighbours.append((address, verdict.category, record.open_source))
        self._neighbours[query] = neighbours
        return neighbours


# --- contract row oracle ----------------------------------------------------------

def contract_to_obj(record) -> dict:
    """A contract record as the JSON object of its canonical row, files in
    (directory, filename) order; json.dumps of it with sorted keys and no
    spaces is the row."""
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


# --- lifecycle oracles ------------------------------------------------------------

def oracle_diff_pair(
    file_pairs: list[FileMatch],
    pred_findings: list[Finding],
    succ_findings: list[Finding],
) -> dict[tuple[FindingKey, LifecycleStatus], int]:
    """Count each finding identity's fates across one version pair.

    For an identity seen p times on the predecessor and s times on the
    successor: min(p, s) PERSISTED, s-p extra INTRODUCED, p-s extra
    DISAPPEARED. Identities come in sorted order, each with its statuses in
    the order PERSISTED, DISAPPEARED, INTRODUCED; zero counts are left out.
    Only the matched file names of `file_pairs` are read, so the pairs of
    pairing.match_files serve as well as the scored pairs of pair_files.
    """
    pred_map: dict[tuple[str, str], FileIdentity] = {}
    succ_map: dict[tuple[str, str], FileIdentity] = {}
    for fp in file_pairs:
        # FileMatch and FilePair both lead with a FileIdentity's three fields
        identity = FileIdentity(*fp[:3])
        pred_map[fp.directory, fp.predecessor_filename] = identity
        succ_map[fp.directory, fp.successor_filename] = identity

    def key_for(finding: Finding, side_map, unpaired_pred: bool) -> FindingKey:
        identity = side_map.get((finding.directory, finding.filename))
        if identity is None:
            if unpaired_pred:
                identity = FileIdentity(finding.directory, finding.filename, None)
            else:
                identity = FileIdentity(finding.directory, None, finding.filename)
        return FindingKey(finding.tool, finding.vuln_type, identity)

    pred_counts: dict[FindingKey, int] = {}
    for finding in pred_findings:
        key = key_for(finding, pred_map, unpaired_pred=True)
        pred_counts[key] = pred_counts.get(key, 0) + 1
    succ_counts: dict[FindingKey, int] = {}
    for finding in succ_findings:
        key = key_for(finding, succ_map, unpaired_pred=False)
        succ_counts[key] = succ_counts.get(key, 0) + 1

    counts: dict[tuple[FindingKey, LifecycleStatus], int] = {}
    all_keys = sorted(
        set(pred_counts) | set(succ_counts),
        key=lambda k: (k.tool, k.vuln_type, k.file.directory,
                       k.file.predecessor_filename or "", k.file.successor_filename or ""),
    )
    for key in all_keys:
        p = pred_counts.get(key, 0)
        s = succ_counts.get(key, 0)
        for status, count in ((LifecycleStatus.PERSISTED, min(p, s)),
                              (LifecycleStatus.DISAPPEARED, p - s),
                              (LifecycleStatus.INTRODUCED, s - p)):
            if count > 0:
                counts[(key, status)] = count
    return counts


def _oracle_category_for(tool: str, vuln_type: str, category_map, mode: str,
                  unmapped: set[tuple[str, str]]) -> str:
    mapped = category_map.get(tool, {}).get(vuln_type)
    if mapped is not None:
        return mapped
    if mode == INTERSECTION:
        unmapped.add((tool, vuln_type))
    return f"{tool}:{vuln_type}"


def oracle_lifecycle_stats(
    diffs: dict[ContractPair, dict[tuple[FindingKey, LifecycleStatus], int]],
    mode: str = UNION,
    category_map: dict[str, dict[str, str]] | None = None,
) -> dict:
    """Summarize the diff_pair counts of each pair, combining tools by union or intersection.

    Counts are projected onto (pair, file, category, status) cells with a
    per-tool count; union takes the max across tools, intersection the min
    across every tool that has a finding. Intersection requires each observed
    vuln_type to be mapped to a shared category, otherwise a configuration
    error lists the unmapped types. A disappearance is weighted by the days
    from the predecessor's first activity to the successor's first activity,
    i.e. how long the vulnerable version was the live one before a
    warning-free successor took over. The returned summary reports
    percentages over three denominators (findings, keys, files) since each is
    a legitimate reading.
    """
    if mode not in (UNION, INTERSECTION):
        raise ConfigurationError(f"mode must be {UNION!r} or {INTERSECTION!r}, got {mode!r}")
    if category_map is None:
        category_map = DEFAULT_CATEGORY_MAP
    tools = sorted({key.tool for counts in diffs.values() for key, _ in counts})

    unmapped: set[tuple[str, str]] = set()
    status_counts = {status: 0 for status in LifecycleStatus}
    keys_seen: set[tuple] = set()
    keys_with: dict[LifecycleStatus, set[tuple]] = {s: set() for s in LifecycleStatus}
    files_seen: set[FileIdentity] = set()
    files_with: dict[LifecycleStatus, set[FileIdentity]] = {s: set() for s in LifecycleStatus}
    contracts: set[str] = set()
    proxies: set[str] = set()
    patched_without_new = 0
    disappear_weight = 0
    disappear_days = 0.0
    for pair, counts in diffs.items():
        # cell: (file identity, category, status) -> {tool: count}
        cells: dict[tuple, dict[str, int]] = {}
        for (key, status), count in counts.items():
            category = _oracle_category_for(key.tool, key.vuln_type, category_map, mode, unmapped)
            tool_counts = cells.setdefault((key.file, category, status), {})
            tool_counts[key.tool] = tool_counts.get(key.tool, 0) + count
        days_gone = (
            pair.successor_window.first_call - pair.predecessor_window.first_call
        ) / SECONDS_PER_DAY
        pair_files_with: dict[LifecycleStatus, set[FileIdentity]] = {
            s: set() for s in LifecycleStatus}
        for (identity, category, status), tool_counts in cells.items():
            if mode == UNION:
                value = max(tool_counts.values())
            else:
                value = min(tool_counts.get(tool, 0) for tool in tools)
            if not value:
                continue
            status_counts[status] += value
            key_id = (identity, category)
            keys_seen.add(key_id)
            keys_with[status].add(key_id)
            files_seen.add(identity)
            files_with[status].add(identity)
            pair_files_with[status].add(identity)
            proxies.add(pair.proxy)
            if status in (LifecycleStatus.PERSISTED, LifecycleStatus.DISAPPEARED):
                contracts.add(pair.predecessor)
            if status in (LifecycleStatus.PERSISTED, LifecycleStatus.INTRODUCED):
                contracts.add(pair.successor)
            if status is LifecycleStatus.DISAPPEARED:
                disappear_weight += value
                disappear_days += value * days_gone
        patched_without_new += len(pair_files_with[LifecycleStatus.DISAPPEARED]
                                   - pair_files_with[LifecycleStatus.INTRODUCED])
    if unmapped:
        listing = ", ".join(f"{tool}/{vt}" for tool, vt in sorted(unmapped))
        raise ConfigurationError(f"intersection mode requires categories for: {listing}")

    total = sum(status_counts.values())

    def pct(numerator: int, denominator: int) -> float | None:
        return 100.0 * numerator / denominator if denominator else None

    return {
        "mode": mode,
        "tools": list(tools),
        "findings": {
            "total": total,
            "introduced": status_counts[LifecycleStatus.INTRODUCED],
            "persisted": status_counts[LifecycleStatus.PERSISTED],
            "disappeared": status_counts[LifecycleStatus.DISAPPEARED],
        },
        "distinct_keys": len(keys_seen),
        "vulnerable_files": len(files_seen),
        "vulnerable_contracts": len(contracts),
        "lineages_touched": len(proxies),
        "percent_introduced": {
            "of_findings": pct(status_counts[LifecycleStatus.INTRODUCED], total),
            "of_keys": pct(len(keys_with[LifecycleStatus.INTRODUCED]), len(keys_seen)),
            "of_files": pct(len(files_with[LifecycleStatus.INTRODUCED]), len(files_seen)),
        },
        "percent_disappeared": {
            "of_findings": pct(status_counts[LifecycleStatus.DISAPPEARED], total),
            "of_keys": pct(len(keys_with[LifecycleStatus.DISAPPEARED]), len(keys_seen)),
            "of_files": pct(len(files_with[LifecycleStatus.DISAPPEARED]), len(files_seen)),
        },
        "mean_days_to_disappear": (disappear_days / disappear_weight) if disappear_weight else None,
        "patched_without_new_file_count": patched_without_new,
    }


# --- rule-based lineage oracle --------------------------------------------------

def oracle_lineages(corpus: Corpus):
    """Direct application of the four classification rules.

    Returns (lineages, exclusions): lineages as tuples
    (proxy, creator, ((callee, first, last), ...)) and exclusions as a set of
    (proxy, callee, reason) strings, mirroring the package's accounting.
    """
    observed: dict[str, dict[str, list[int]]] = {}
    for event in corpus.events:
        observed.setdefault(event.proxy_address, {}).setdefault(
            event.callee_address, []
        ).append(event.timestamp)

    lineages = []
    exclusions = set()
    for proxy in sorted(observed):
        windows = {
            callee: (min(stamps), max(stamps))
            for callee, stamps in observed[proxy].items()
        }
        by_creator: dict[str, list[str]] = {}
        for callee in windows:
            record = corpus.contracts.get(callee)
            if record is None:
                exclusions.add((proxy, callee, "UNRESOLVED_METADATA"))
            else:
                by_creator.setdefault(record.creator, []).append(callee)
        if not by_creator:
            continue

        # one creator per lineage: keep the biggest group, preferring
        # the earliest-active then lexicographically-smallest creator on ties.
        ranked = sorted(
            by_creator.items(),
            key=lambda item: (
                -len(item[1]),
                min(windows[c][0] for c in item[1]),
                item[0],
            ),
        )
        creator, members = ranked[0]
        for other_creator, others in ranked[1:]:
            for callee in others:
                exclusions.add((proxy, callee, "NOT_SAME_CREATOR"))

        # chronological, non-overlapping ordering: recursively keep the
        # earliest member and continue with members starting strictly after
        # its window ends.
        remaining = sorted(members, key=lambda c: (windows[c][0], c))

        def chain(candidates: list[str]) -> list[str]:
            if not candidates:
                return []
            head = candidates[0]
            _, head_last = windows[head]
            tail = []
            for callee in candidates[1:]:
                if windows[callee][0] > head_last:
                    tail.append(callee)
                else:
                    exclusions.add((proxy, callee, "OVERLAPPING_WINDOW"))
            return [head] + chain(tail)

        kept = chain(remaining)
        if len(kept) >= 2:
            lineages.append(
                (proxy, creator, tuple((c, windows[c][0], windows[c][1]) for c in kept))
            )
        else:
            for callee in kept:
                exclusions.add((proxy, callee, "SINGLETON"))
    return lineages, exclusions


def assert_rules_hold(corpus: Corpus, lineages) -> None:
    """Check the four classification rules directly against the corpus."""
    called = {}
    for event in corpus.events:
        called.setdefault(event.proxy_address, set()).add(event.callee_address)
    for lineage in lineages:
        versions = lineage.versions
        # members must be callees of the lineage's proxy
        for version in versions:
            assert version.address in called.get(lineage.proxy, set()), (
                f"{version.address} never called by {lineage.proxy}"
            )
        # at least two versions
        assert len(versions) >= 2
        # one creator across all versions
        creators = {corpus.contracts[v.address].creator for v in versions}
        assert creators == {lineage.creator}
        # chronological order with no window overlap
        for earlier, later in zip(versions, versions[1:]):
            assert earlier.window.last_call < later.window.first_call
            assert earlier.window.first_call <= earlier.window.last_call
            assert later.window.first_call <= later.window.last_call
