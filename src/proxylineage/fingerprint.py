"""MinHash fingerprints over tokenized source, with LSH-banded retrieval.

A contract's normalized token stream (comments gone, string literals
blanked) is shingled into 5-token windows; each of the k signature slots
holds the minimum of a seeded 64-bit hash over all shingles. The fraction of
agreeing slots between two signatures estimates the Jaccard similarity of
the underlying shingle sets, which is bucketed into NONE/LOW/MEDIUM/HIGH
categories. A banding index over signature slices retrieves candidates in
sublinear time; every candidate is then verified by a full comparison.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .corpus import ContractRecord, _iter_ndjson, _require_fields, _require_int, normalize_address
from .errors import (
    ConfigurationError,
    NotFingerprintableError,
    UnknownAddressError,
    ValidationError,
)
from .solidity import tokenize

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SIGNATURE_LENGTH = 256
DEFAULT_SEED = 0
SHINGLE_SIZE = 5
# bands * rows must equal the signature length; 64x4 keeps banding recall at
# Jaccard 0.6 above 99.9% per pair, which the coarser 32x8 split cannot do.
DEFAULT_BANDS = 64

HIGH_THRESHOLD = 0.90
MEDIUM_THRESHOLD = 0.70
LOW_THRESHOLD = 0.50

_SENTINEL_SLOT = (1 << 64) - 1
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
_GAMMA = 0x9E3779B97F4A7C15
# Shingles hashed per numpy step in minhash_signature. A 64 x 256 uint64
# block is 128 KiB, which bounds the temporaries whatever the set size; on the
# lsh-boilerplate inputs 64 rows ran faster than 32 or 128 and kept the
# fingerprint command's peak RSS below that of the per-slot loop.
_MINHASH_BLOCK = 64

FINGERPRINT_FIELDS = frozenset({"address", "k", "seed", "shingle_count", "signature"})
_HEX_RE = re.compile(r"[0-9a-fA-F]*")


class SimilarityCategory(IntEnum):
    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @classmethod
    def from_name(cls, name: str) -> "SimilarityCategory":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValidationError(f"unknown similarity category: {name!r}") from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Fingerprint:
    address: str
    k: int
    seed: int
    signature: tuple[int, ...]
    shingle_count: int

    @property
    def is_sentinel(self) -> bool:
        return self.shingle_count == 0


@dataclass(frozen=True)
class SimilarityVerdict:
    address_a: str
    address_b: str
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


def _mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, applied in place to a uint64 array and returned."""
    # uint64 arithmetic throughout: Python int operands take the array's dtype
    values ^= values >> 30
    values *= _MIX_C1
    values ^= values >> 27
    values *= _MIX_C2
    values ^= values >> 31
    return values


def _salts(seed: int, k: int) -> np.ndarray:
    import numpy as np

    # splitmix64 output stream seeded at `seed`: slot i uses mix(seed + (i+1)*gamma)
    steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA & _SENTINEL_SLOT)
    return _mix64(np.uint64(seed & _SENTINEL_SLOT) + steps)


def shingle_hash(shingle: Iterable[str]) -> int:
    """Stable 64-bit hash of one token shingle."""
    joined = "\x1f".join(shingle).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(joined, digest_size=8).digest(), "little")


def minhash_signature(shingle_hashes: Iterable[int], k: int, seed: int) -> tuple[int, ...]:
    """k per-slot minima of seeded hashes over the shingle set.

    An empty set yields the all-max sentinel signature.
    """
    if k <= 0:
        raise ConfigurationError(f"signature length must be positive, got {k}")
    hashes = set(shingle_hashes)
    if not hashes:
        return (_SENTINEL_SLOT,) * k
    import numpy as np  # imported here so that commands which never hash skip its load time

    # A minimum ignores order, so the set is hashed block by block, all k
    # slots at once, and each block is folded into the running minima.
    base = np.fromiter(hashes, dtype=np.uint64, count=len(hashes))
    salts = _salts(seed, k)
    signature = np.full(k, _SENTINEL_SLOT, dtype=np.uint64)
    for start in range(0, len(base), _MINHASH_BLOCK):
        block = _mix64(base[start:start + _MINHASH_BLOCK, None] ^ salts[None, :])
        np.minimum(signature, block.min(axis=0), out=signature)
    return tuple(signature.tolist())


def record_shingles(record: ContractRecord) -> set[int]:
    """Hashed 5-token shingles over all files, in deterministic file order."""
    tokens: list[str] = []
    for file in sorted(record.files, key=lambda f: (f.directory, f.filename)):
        tokens.extend(t.text for t in tokenize(file.content))
    if len(tokens) < SHINGLE_SIZE:
        return set()
    return {
        shingle_hash(tokens[i:i + SHINGLE_SIZE])
        for i in range(len(tokens) - SHINGLE_SIZE + 1)
    }


def fingerprint(
    record: ContractRecord,
    k: int = DEFAULT_SIGNATURE_LENGTH,
    seed: int = DEFAULT_SEED,
) -> Fingerprint:
    """Fingerprint a contract's source; closed-source contracts are rejected.

    Contracts whose normalized token stream is shorter than one shingle get
    the sentinel signature with shingle_count 0.
    """
    if not record.open_source:
        raise NotFingerprintableError(
            f"contract {record.address} is not open source (NOT_FINGERPRINTABLE)"
        )
    shingles = record_shingles(record)
    return Fingerprint(
        address=record.address,
        k=k,
        seed=seed,
        signature=minhash_signature(shingles, k, seed),
        shingle_count=len(shingles),
    )


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
        return SimilarityVerdict(a.address, b.address, 0.0, SimilarityCategory.NONE)
    equal = sum(map(operator.eq, a.signature, b.signature))
    estimate = equal / a.k
    return SimilarityVerdict(a.address, b.address, estimate, category_for(estimate))


class LshIndex:
    """Banding index: signatures sliced into bands of rows hashed to buckets."""

    def __init__(self, fingerprints: Iterable[Fingerprint], bands: int = DEFAULT_BANDS):
        fingerprints = list(fingerprints)
        if fingerprints:
            k = fingerprints[0].k
            if k % bands:
                raise ConfigurationError(f"bands ({bands}) must divide signature length ({k})")
        self.bands = bands
        self._buckets: dict[tuple[int, tuple[int, ...]], list[str]] = {}
        for fp in fingerprints:
            rows = fp.k // bands
            for band in range(bands):
                key = (band, fp.signature[band * rows:(band + 1) * rows])
                self._buckets.setdefault(key, []).append(fp.address)

    def candidates(self, fp: Fingerprint) -> set[str]:
        rows = fp.k // self.bands
        found: set[str] = set()
        for band in range(self.bands):
            key = (band, fp.signature[band * rows:(band + 1) * rows])
            found.update(self._buckets.get(key, ()))
        found.discard(fp.address)
        return found


def query_similar(
    fingerprints: Mapping[str, Fingerprint],
    query: str,
    min_category: SimilarityCategory = SimilarityCategory.LOW,
    index: LshIndex | None = None,
    bands: int = DEFAULT_BANDS,
) -> list[tuple[str, SimilarityVerdict]]:
    """Contracts similar to the query, at or above the given category.

    Banding proposes candidates; each is verified with a full signature
    comparison. The query itself is never returned. Results are ordered by
    descending estimated Jaccard, then address.
    """
    if query not in fingerprints:
        raise UnknownAddressError(f"no fingerprint for address {query}")
    if index is None:
        index = LshIndex(fingerprints.values(), bands=bands)
    query_fp = fingerprints[query]
    results = []
    for address in index.candidates(query_fp):
        verdict = compare(query_fp, fingerprints[address])
        if verdict.category >= min_category:
            results.append((address, verdict))
    results.sort(key=lambda item: (-item[1].estimated_jaccard, item[0]))
    return results


def write_fingerprints(path: str | Path, fingerprints: Iterable[Fingerprint]) -> None:
    """NDJSON serialization, sorted by address; signatures hex-packed.

    Rows are written one at a time, so the file is never held in memory.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for fp in sorted(fingerprints, key=lambda f: f.address):
            handle.write(json.dumps({
                "address": fp.address,
                "k": fp.k,
                "seed": fp.seed,
                "shingle_count": fp.shingle_count,
                "signature": b"".join(v.to_bytes(8, "big") for v in fp.signature).hex(),
            }, sort_keys=True, separators=(",", ":")) + "\n")


def _fingerprint_from_obj(obj: object) -> Fingerprint:
    if not isinstance(obj, dict):
        raise ValidationError("fingerprint must be a JSON object")
    _require_fields(obj, FINGERPRINT_FIELDS, "fingerprint")
    k = _require_int(obj["k"], "k", minimum=1)
    signature = obj["signature"]
    if not isinstance(signature, str) or not _HEX_RE.fullmatch(signature):
        raise ValidationError(f"signature must be a string of hex digits, got {signature!r:.40}")
    if len(signature) != 16 * k:
        raise ValidationError(f"signature has {len(signature)} hex digits, k {k} needs {16 * k}")
    return Fingerprint(
        address=normalize_address(obj["address"]),
        k=k,
        seed=_require_int(obj["seed"], "seed", minimum=None),
        signature=struct.unpack(f">{k}Q", bytes.fromhex(signature)),
        shingle_count=_require_int(obj["shingle_count"], "shingle_count"),
    )


def read_fingerprints(path: str | Path) -> dict[str, Fingerprint]:
    """Read a file written by `write_fingerprints`, keyed by address.

    A row that is not valid JSON, lacks or adds a field, or holds a bad value
    raises ParseError naming the file and line. Rows whose k or seed differ
    from the first row's raise ConfigurationError: their signatures cannot be
    compared.
    """
    path = Path(path)
    fingerprints: dict[str, Fingerprint] = {}
    first: Fingerprint | None = None
    for line_number, fp in _iter_ndjson(path, _fingerprint_from_obj):
        if first is None:
            first = fp
        elif (fp.k, fp.seed) != (first.k, first.seed):
            raise ConfigurationError(
                f"{path}:{line_number}: fingerprint has k {fp.k}, seed {fp.seed}; "
                f"earlier rows have k {first.k}, seed {first.seed}"
            )
        fingerprints[fp.address] = fp
    return fingerprints
