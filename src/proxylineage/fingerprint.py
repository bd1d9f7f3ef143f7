"""MinHash fingerprints over tokenized source, with LSH-banded retrieval.

A contract's normalized token stream (comments gone, string literals
blanked) is shingled into 5-token windows; each shingle is hashed once, into
one of k signature slots that keeps the least hash, and an empty slot copies a
filled one. The fraction of agreeing slots between two signatures estimates
the Jaccard similarity of the underlying shingle sets, which is bucketed into
NONE/LOW/MEDIUM/HIGH categories. A banding index over signature slices
retrieves candidates in sublinear time; every candidate is then verified.
"""

from __future__ import annotations

import operator
import re
import struct
from enum import IntEnum
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .corpus import (ContractRecord, _fields, _iter_ndjson, _json_str, _require_int,
                     normalize_address)
from .errors import (
    ConfigurationError,
    NotFingerprintableError,
    ParseError,
    UnknownAddressError,
    ValidationError,
)

DEFAULT_SIGNATURE_LENGTH = 256
DEFAULT_SEED = 0
SHINGLE_SIZE = 5
# bands * rows must equal the signature length; 64x4 keeps banding recall at
# Jaccard 0.6 above 99.9% per pair, which the coarser 32x8 split cannot do.
BANDS = 64

HIGH_THRESHOLD = 0.90
MEDIUM_THRESHOLD = 0.70
LOW_THRESHOLD = 0.50

_MASK64 = (1 << 64) - 1
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
_GAMMA = 0x9E3779B97F4A7C15
# above every value a bin can keep: v // k of a 64-bit v
_EMPTY = 1 << 64

_HEX_RE = re.compile(r"[0-9a-fA-F]*")


class SimilarityCategory(IntEnum):
    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    def __str__(self) -> str:
        return self.name.lower()


class Fingerprint(NamedTuple):
    address: str
    k: int
    seed: int
    signature: tuple[int, ...]
    shingle_count: int

    @property
    def is_sentinel(self) -> bool:
        return self.shingle_count == 0


class SimilarityVerdict(NamedTuple):
    estimated_jaccard: float
    category: SimilarityCategory


def category_for(estimated_jaccard: float) -> SimilarityCategory:
    if estimated_jaccard >= HIGH_THRESHOLD:
        return SimilarityCategory.HIGH
    if estimated_jaccard >= MEDIUM_THRESHOLD:
        return SimilarityCategory.MEDIUM
    if estimated_jaccard >= LOW_THRESHOLD:
        return SimilarityCategory.LOW
    return SimilarityCategory.NONE


def _mix(value: int) -> int:
    """splitmix64 finalizer of a 64-bit value."""
    value = ((value ^ (value >> 30)) * _MIX_C1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_C2) & _MASK64
    return value ^ (value >> 31)


class _WindowHashes(dict):
    """window -> the stable 64-bit hash of its tokens: the 8-byte blake2b digest of the
    tokens joined by "\x1f", read little-endian. A window is hashed on its first lookup."""

    __slots__ = ("_blake2b",)

    def __init__(self):
        # the builtin blake2b, which hashlib.blake2b is: importing hashlib would also load
        # OpenSSL's _hashlib. Imported here, so that commands which hash nothing skip even this.
        from _blake2 import blake2b

        self._blake2b = blake2b

    def __missing__(self, window: tuple[str, ...]) -> int:
        digest = self._blake2b("\x1f".join(window).encode("utf-8"), digest_size=8).digest()
        self[window] = h = int.from_bytes(digest, "little")
        return h


class _Slots(dict):
    """shingle hash h -> its slot under one (k, seed): (value, bin) = divmod(v, k) for
    v = mix(h ^ seed). A hash is placed on its first lookup.

    The slots hold only for the k and seed the memo was made with; `minhash_signature`
    refuses a memo made for another.
    """

    __slots__ = ("k", "seed", "_salt")

    def __init__(self, k: int, seed: int):
        self.k, self.seed, self._salt = k, seed, seed & _MASK64

    def __missing__(self, h: int) -> tuple[int, int]:
        self[h] = slot = divmod(_mix(h ^ self._salt), self.k)
        return slot


def minhash_signature(shingle_hashes: Iterable[int], k: int, seed: int, *,
                      slots: _Slots | None = None) -> tuple[int, ...]:
    """One-permutation MinHash with optimal densification, one hash per shingle.

    Each distinct shingle hash h is mixed once, v = mix(h ^ seed); bin v % k
    keeps the least v // k. An empty bin i takes the value of the first filled
    bin j = mix(seed ^ (i * gamma + attempt)) % k, attempt = 1, 2, ..., so two
    sets agree in a bin with probability equal to their Jaccard similarity.
    An empty set yields the all-max sentinel signature.

    `slots`, the memo of hashes already placed, must have been made for this k
    and seed, or ConfigurationError is raised.
    """
    if k <= 0:
        raise ConfigurationError(f"signature length must be positive, got {k}")
    if slots is None:
        slots = _Slots(k, seed)
    elif (slots.k, slots.seed) != (k, seed):
        raise ConfigurationError(f"slot memo is for k {slots.k}, seed {slots.seed}; "
                                 f"the signature has k {k}, seed {seed}")
    hashes = set(shingle_hashes)
    if not hashes:
        return (_MASK64,) * k
    bins = [_EMPTY] * k
    for value, i in map(slots.__getitem__, hashes):
        if value < bins[i]:
            bins[i] = value
    signature = bins[:]
    salt = seed & _MASK64
    for i, value in enumerate(bins):
        attempt = 1
        while value == _EMPTY:
            value = bins[_mix(salt ^ ((i * _GAMMA + attempt) & _MASK64)) % k]
            attempt += 1
        signature[i] = value
    return tuple(signature)


def record_shingles(record: ContractRecord, *, memo: _WindowHashes | None = None) -> set[int]:
    """Hashed 5-token shingles over all files, in the record's file order.

    A shingle that recurs in the record is hashed once, and one that `memo` holds is
    not hashed again.
    """
    from .solidity import token_texts  # imported here: only the commands that lex load it

    tokens: list[str] = []
    for file in record.files:
        tokens.extend(token_texts(file.content))
    if memo is None:
        memo = _WindowHashes()
    return set(map(memo.__getitem__, zip(*(islice(tokens, i, None) for i in range(SHINGLE_SIZE)))))


def fingerprint(
    record: ContractRecord,
    k: int = DEFAULT_SIGNATURE_LENGTH,
    seed: int = DEFAULT_SEED,
    *,
    memo: _WindowHashes | None = None,
    slots: _Slots | None = None,
) -> Fingerprint:
    """Fingerprint a contract's source; closed-source contracts are rejected.

    Contracts whose normalized token stream is shorter than one shingle get
    the sentinel signature with shingle_count 0. `memo` is passed on to
    `record_shingles`, and `slots` to `minhash_signature`.
    """
    if not record.open_source:
        raise NotFingerprintableError(
            f"contract {record.address} is not open source (NOT_FINGERPRINTABLE)"
        )
    shingles = record_shingles(record, memo=memo)
    return Fingerprint(
        address=record.address,
        k=k,
        seed=seed,
        signature=minhash_signature(shingles, k, seed, slots=slots),
        shingle_count=len(shingles),
    )


def fingerprint_contracts(contracts: Mapping[str, ContractRecord], k: int = DEFAULT_SIGNATURE_LENGTH,
                          seed: int = DEFAULT_SEED) -> dict[str, Fingerprint]:
    """Fingerprints of the open-source records, keyed by address in address
    order, as `read_fingerprints` returns them; the other records have no source.

    Records whose files hold the same contents in the same path order read
    the same token stream, so each distinct source is fingerprinted once.
    Sources built from shared templates share most of their shingles, so two
    memos serve the whole call: each distinct shingle is hashed once and placed
    in its bin once. Both are dropped when the call returns.
    """
    memo = _WindowHashes()
    slots = _Slots(k, seed)
    done: dict[tuple[str, ...], Fingerprint] = {}
    fingerprints: dict[str, Fingerprint] = {}
    for _, record in sorted(contracts.items()):
        if not record.open_source:
            continue
        source = tuple(file.content for file in record.files)
        known = done.get(source)
        if known is None:
            done[source] = known = fingerprint(record, k=k, seed=seed, memo=memo, slots=slots)
        fingerprints[record.address] = known._replace(address=record.address)
    return fingerprints


def compare(a: Fingerprint, b: Fingerprint) -> SimilarityVerdict:
    """Estimate Jaccard as the fraction of agreeing slots and categorize it.

    Sentinel fingerprints (no shingles) never resemble anything: the verdict
    is 0.0 / NONE.
    """
    if a.k != b.k:
        raise ConfigurationError(f"signature length mismatch: {a.k} vs {b.k}")
    if a.seed != b.seed:
        raise ConfigurationError(f"seed mismatch: {a.seed} vs {b.seed}")
    if a.is_sentinel or b.is_sentinel:
        return SimilarityVerdict(0.0, SimilarityCategory.NONE)
    equal = sum(map(operator.eq, a.signature, b.signature))
    estimate = equal / a.k
    return SimilarityVerdict(estimate, category_for(estimate))


def check_signature_length(k: int, where: str = "") -> None:
    """Raise ConfigurationError, led by `where`, unless the LSH bands split k slots evenly."""
    if k <= 0 or k % BANDS:
        raise ConfigurationError(f"{where}signature length k must be a positive multiple of "
                                 f"{BANDS} (the LSH bands), got {k}")


def check_comparable(fingerprints: list[Fingerprint]) -> None:
    """Raise ConfigurationError unless the fingerprints share one seed and one
    signature length, which the LSH bands split evenly."""
    if not fingerprints:
        return
    first = fingerprints[0]
    check_signature_length(first.k)
    for fp in fingerprints:
        if (fp.k, fp.seed) != (first.k, first.seed):
            raise ConfigurationError(
                f"fingerprint {fp.address} has k {fp.k}, seed {fp.seed}; "
                f"{first.address} has k {first.k}, seed {first.seed}"
            )


class LshIndex:
    """Banding index: signatures sliced into bands of rows hashed to buckets."""

    def __init__(self, fingerprints: Iterable[Fingerprint]):
        fingerprints = list(fingerprints)
        check_comparable(fingerprints)
        self._buckets: dict[tuple[int, tuple[int, ...]], list[str]] = {}
        for fp in fingerprints:
            rows = fp.k // BANDS
            for band in range(BANDS):
                key = (band, fp.signature[band * rows:(band + 1) * rows])
                self._buckets.setdefault(key, []).append(fp.address)

    def candidates(self, fp: Fingerprint) -> set[str]:
        rows = fp.k // BANDS
        found: set[str] = set()
        for band in range(BANDS):
            key = (band, fp.signature[band * rows:(band + 1) * rows])
            found.update(self._buckets.get(key, ()))
        found.discard(fp.address)
        return found


def query_similar(
    fingerprints: Mapping[str, Fingerprint],
    query: str,
    min_category: SimilarityCategory = SimilarityCategory.LOW,
    index: LshIndex | None = None,
) -> list[tuple[str, SimilarityVerdict]]:
    """Contracts similar to the query, at or above the given category.

    Banding proposes candidates; each is verified with a full signature
    comparison. The query itself is never returned. Results are ordered by
    descending estimated Jaccard, then address.

    `index`, when given, must be built over exactly the fingerprints that
    `fingerprints` maps; without it, one is built over them.
    """
    if query not in fingerprints:
        raise UnknownAddressError(f"no fingerprint for address {query}")
    if index is None:
        index = LshIndex(fingerprints.values())
    query_fp = fingerprints[query]
    results = []
    for address in index.candidates(query_fp):
        verdict = compare(query_fp, fingerprints[address])
        if verdict.category >= min_category:
            results.append((address, verdict))
    results.sort(key=lambda item: (-item[1].estimated_jaccard, item[0]))
    return results


def _fingerprint_line(fp: Fingerprint) -> str:
    """One fingerprint row: the bytes of json.dumps(row, sort_keys=True,
    separators=(",", ":")) with the signature hex-packed, plus the newline."""
    signature = struct.pack(f">{len(fp.signature)}Q", *fp.signature).hex()
    return (f'{{"address":{_json_str(fp.address)},"k":{fp.k},"seed":{fp.seed},'
            f'"shingle_count":{fp.shingle_count},"signature":"{signature}"}}\n')


def write_fingerprints(path: str | Path, fingerprints: Iterable[Fingerprint]) -> None:
    """NDJSON serialization, sorted by address; signatures hex-packed.

    Rows are written one at a time, so the file is never held in memory.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(map(_fingerprint_line, sorted(fingerprints, key=lambda f: f.address)))


def _fingerprint_from_obj(obj: object) -> Fingerprint:
    address, k, seed, signature, shingle_count = _fields(obj, Fingerprint._fields, "fingerprint")
    k = _require_int(k, "k", minimum=1)
    if not isinstance(signature, str) or not _HEX_RE.fullmatch(signature):
        raise ValidationError(f"signature must be a string of hex digits, got {signature!r:.40}")
    if len(signature) != 16 * k:
        raise ValidationError(f"signature has {len(signature)} hex digits, k {k} needs {16 * k}")
    return Fingerprint(normalize_address(address), k, _require_int(seed, "seed", minimum=None),
                       struct.unpack(f">{k}Q", bytes.fromhex(signature)),
                       _require_int(shingle_count, "shingle_count"))


def read_fingerprints(path: str | Path) -> dict[str, Fingerprint]:
    """Read a file written by `write_fingerprints`, keyed by address.

    A row that is not valid JSON, lacks or adds a field, holds a bad value or
    repeats an earlier row's address raises ParseError naming the file and
    line. The first row sets k and seed: if the LSH bands do not split its k
    evenly, or a later row's k or seed differ from it, ConfigurationError
    names the file and line.
    """
    path = Path(path)
    fingerprints: dict[str, Fingerprint] = {}
    for line_number, fp in _iter_ndjson(path, _fingerprint_from_obj):
        if not fingerprints:
            k, seed = fp.k, fp.seed
            check_signature_length(k, f"{path}:{line_number}: ")
        if (fp.k, fp.seed) != (k, seed):
            raise ConfigurationError(f"{path}:{line_number}: fingerprint has k {fp.k}, seed "
                                     f"{fp.seed}; the first row has k {k}, seed {seed}")
        if fp.address in fingerprints:
            raise ParseError(path, line_number, f"duplicate fingerprint address {fp.address}")
        fingerprints[fp.address] = fp
    return fingerprints
