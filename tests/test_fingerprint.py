"""MinHash signatures, similarity categories and LSH retrieval."""

from __future__ import annotations

import _blake2
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxylineage
from proxylineage import (
    ConfigurationError,
    ContractRecord,
    Fingerprint,
    LshIndex,
    NotFingerprintableError,
    ParseError,
    SimilarityCategory,
    SourceFile,
    UnknownAddressError,
    compare,
    minhash_signature,
    query_similar,
)
from proxylineage.fingerprint import (
    _GAMMA,
    _MASK64,
    SHINGLE_SIZE,
    _fingerprint_line,
    _mix,
    _Slots,
    check_signature_length,
    fingerprint,
    fingerprint_contracts,
    read_fingerprints,
    record_shingles,
    write_fingerprints,
)
from proxylineage.solidity import token_texts

from conftest import ADDR_A, ADDR_B, CREATOR_X, make_record
from corpusgen import addr_from_int, soup_source, varied_sourced_corpus
from oracles import oracle_jaccard, oracle_minhash_signature

K = 256
SEED = 0


def fp_from_set(address: str, shingles: set[int], k: int = K, seed: int = SEED) -> Fingerprint:
    return Fingerprint(
        address=address, k=k, seed=seed,
        signature=minhash_signature(shingles, k, seed),
        shingle_count=len(shingles),
    )


def estimated(a: set[int], b: set[int], seed: int = SEED) -> float:
    return compare(fp_from_set(ADDR_A, a, seed=seed), fp_from_set(ADDR_B, b, seed=seed)).estimated_jaccard


def test_category_threshold_boundaries():
    from proxylineage.fingerprint import category_for

    assert category_for(1.0) is SimilarityCategory.HIGH
    assert category_for(0.90) is SimilarityCategory.HIGH
    assert category_for(0.8999) is SimilarityCategory.MEDIUM
    assert category_for(0.70) is SimilarityCategory.MEDIUM
    assert category_for(0.6999) is SimilarityCategory.LOW
    assert category_for(0.50) is SimilarityCategory.LOW
    assert category_for(0.4999) is SimilarityCategory.NONE
    assert category_for(0.0) is SimilarityCategory.NONE


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(0, 600),
    draw_seed=st.integers(0, 2**32),
    k=st.sampled_from([16, 64, 256]),
    seed=st.one_of(st.integers(2**63, 2**64 - 1), st.integers(-(2**63), 2**63 - 1)),
)
@example(size=0, draw_seed=0, k=64, seed=0)
@example(size=1, draw_seed=1, k=16, seed=0)
@example(size=3, draw_seed=2, k=256, seed=0)
@example(size=40, draw_seed=3, k=16, seed=-1)
@example(size=40, draw_seed=4, k=64, seed=2**63)
@example(size=40, draw_seed=5, k=256, seed=2**64 - 1)
def test_minhash_equals_oracle(size, draw_seed, k, seed):
    # the oracle fills explicit per-bin lists, then densifies in a separate
    # loop; 3 hashes at k=256 leave almost every bin to densification, and
    # repeated hashes must count once
    rng = random.Random(draw_seed)
    hashes = [rng.getrandbits(64) for _ in range(size)]
    hashes += hashes[: size // 10]
    assert minhash_signature(hashes, k, seed) == oracle_minhash_signature(hashes, k, seed)


def test_identical_contracts_identical_signatures():
    record1 = make_record(ADDR_A, CREATOR_X, [SourceFile("", "A.sol", "contract A { uint256 x; }")])
    record2 = make_record(ADDR_B, CREATOR_X, [SourceFile("", "A.sol", "contract A { uint256 x; }")])
    assert fingerprint(record1).signature == fingerprint(record2).signature


def test_fingerprint_is_deterministic_across_calls():
    record = make_record(ADDR_A, CREATOR_X, [SourceFile("", "A.sol", "contract A { uint256 x; }")])
    assert fingerprint(record) == fingerprint(record)


def test_empty_source_yields_sentinel():
    record = make_record(ADDR_A, CREATOR_X, [SourceFile("", "A.sol", "")])
    fp = fingerprint(record)
    assert fp.shingle_count == 0
    assert set(fp.signature) == {(1 << 64) - 1}
    assert fp.is_sentinel


def test_sub_shingle_token_count_is_sentinel():
    record = make_record(ADDR_A, CREATOR_X, [SourceFile("", "A.sol", "a b c d")])
    assert fingerprint(record).is_sentinel


def test_closed_source_not_fingerprintable():
    record = make_record(ADDR_A, CREATOR_X, [])
    with pytest.raises(NotFingerprintableError):
        fingerprint(record)


def test_overlapping_ranges_estimate_one_third():
    a = set(range(1, 11))
    b = set(range(6, 16))
    assert oracle_jaccard(a, b) == pytest.approx(1 / 3)
    assert abs(estimated(a, b) - 1 / 3) <= 0.1


def test_compare_identity_is_high():
    fp = fp_from_set(ADDR_A, set(range(50)))
    verdict = compare(fp, fp)
    assert verdict.estimated_jaccard == 1.0
    assert verdict.category is SimilarityCategory.HIGH


def test_disjoint_sets_are_none():
    verdict_estimate = estimated(set(range(100)), set(range(200, 300)))
    assert verdict_estimate <= 0.05


def test_three_quarter_jaccard_lands_in_medium():
    rng = random.Random(99)
    shared = set(rng.getrandbits(64) for _ in range(120))
    only_a = set(rng.getrandbits(64) for _ in range(20))
    only_b = set(rng.getrandbits(64) for _ in range(20))
    a, b = shared | only_a, shared | only_b
    assert oracle_jaccard(a, b) == pytest.approx(0.75)
    estimate = estimated(a, b)
    assert 0.70 <= estimate < 0.90
    verdict = compare(fp_from_set(ADDR_A, a), fp_from_set(ADDR_B, b))
    assert verdict.category is SimilarityCategory.MEDIUM


def test_compare_is_symmetric():
    rng = random.Random(3)
    a = set(rng.getrandbits(64) for _ in range(64))
    b = set(rng.getrandbits(64) for _ in range(64)) | set(list(a)[:32])
    fa, fb = fp_from_set(ADDR_A, a), fp_from_set(ADDR_B, b)
    assert compare(fa, fb).estimated_jaccard == compare(fb, fa).estimated_jaccard


def test_mismatched_configuration_rejected():
    fa = fp_from_set(ADDR_A, {1, 2, 3}, k=128)
    fb = fp_from_set(ADDR_B, {1, 2, 3}, k=256)
    with pytest.raises(ConfigurationError):
        compare(fa, fb)
    fc = fp_from_set(ADDR_B, {1, 2, 3}, k=128, seed=9)
    with pytest.raises(ConfigurationError):
        compare(fa, fc)


def test_sentinel_compare_is_none():
    sentinel = fp_from_set(ADDR_A, set())
    other = fp_from_set(ADDR_B, {1, 2, 3, 4, 5})
    verdict = compare(sentinel, other)
    assert verdict.category is SimilarityCategory.NONE
    assert verdict.estimated_jaccard == 0.0
    # two sentinels do not count as similar either
    assert compare(sentinel, sentinel).category is SimilarityCategory.NONE


def test_query_excludes_itself():
    fps = {ADDR_A: fp_from_set(ADDR_A, set(range(50)))}
    assert query_similar(fps, ADDR_A) == []


def test_query_finds_exact_duplicate_as_high():
    shingles = set(range(80))
    fps = {
        ADDR_A: fp_from_set(ADDR_A, shingles),
        ADDR_B: fp_from_set(ADDR_B, shingles),
    }
    results = query_similar(fps, ADDR_A, SimilarityCategory.HIGH)
    assert [(a, v.category) for a, v in results] == [(ADDR_B, SimilarityCategory.HIGH)]


def test_query_unknown_address():
    with pytest.raises(UnknownAddressError):
        query_similar({}, ADDR_A)


def test_raising_min_category_never_adds_results():
    rng = random.Random(21)
    base = [rng.getrandbits(64) for _ in range(200)]
    fps = {}
    for i in range(30):
        keep = rng.randint(60, 200)
        shingles = set(rng.sample(base, keep)) | {rng.getrandbits(64) for _ in range(200 - keep)}
        address = addr_from_int(0x4000 + i)
        fps[address] = fp_from_set(address, shingles)
    query = addr_from_int(0x4000)
    index = LshIndex(fps.values())
    low = dict(query_similar(fps, query, SimilarityCategory.LOW, index=index))
    medium = dict(query_similar(fps, query, SimilarityCategory.MEDIUM, index=index))
    high = dict(query_similar(fps, query, SimilarityCategory.HIGH, index=index))
    assert set(high) <= set(medium) <= set(low)


def test_results_sorted_by_estimate_then_address():
    shingles = set(range(100))
    near = set(range(98)) | {1000, 1001}
    fps = {
        ADDR_A: fp_from_set(ADDR_A, shingles),
        ADDR_B: fp_from_set(ADDR_B, shingles),
        "0x" + "09" * 20: fp_from_set("0x" + "09" * 20, near),
    }
    results = query_similar(fps, ADDR_A, SimilarityCategory.LOW)
    estimates = [v.estimated_jaccard for _, v in results]
    assert estimates == sorted(estimates, reverse=True)


def test_bands_must_divide_signature_length():
    with pytest.raises(ConfigurationError):
        LshIndex([fp_from_set(ADDR_A, {1, 2, 3}, k=100)])


@pytest.mark.parametrize("k", [0, -64, 32, 100, 257])
def test_signature_length_must_be_a_positive_multiple_of_the_bands(k):
    with pytest.raises(ConfigurationError, match=f"signature length k .* got {k}$"):
        check_signature_length(k)


def test_fingerprint_contracts_takes_open_source_records_in_address_order():
    source = "contract C { function f() public { uint256 x = 1; } }"
    contracts = {
        ADDR_B: make_record(ADDR_B, CREATOR_X, [SourceFile("", "B.sol", source)]),
        addr_from_int(7): make_record(addr_from_int(7), CREATOR_X),  # closed source
        ADDR_A: make_record(ADDR_A, CREATOR_X, [SourceFile("", "A.sol", source + " ")]),
    }
    fingerprints = fingerprint_contracts(contracts, k=64, seed=3)
    assert fingerprints == {
        ADDR_A: fingerprint(contracts[ADDR_A], k=64, seed=3),
        ADDR_B: fingerprint(contracts[ADDR_B], k=64, seed=3),
    }
    assert list(fingerprints) == [ADDR_A, ADDR_B]


def test_fingerprint_contracts_fingerprints_each_distinct_source_once(monkeypatch):
    # the fingerprint reads the contents in path order and ignores the paths
    one = "contract One { function f() public { uint256 x = 1; } }"
    two = "contract Two { function g() public { uint256 y = 2; } }"
    layouts = [
        [("src", "A.sol", one)],
        [("src", "A.sol", one)],  # the same file
        [("lib", "Z.sol", one)],  # the same contents under another path
        [("", "a.sol", one), ("", "b.sol", two)],
        [("x", "a.sol", one), ("x", "b.sol", two)],  # the same pair under other paths
        [("", "a.sol", two), ("", "b.sol", one)],  # the same contents in the other order
        [("", "b.sol", one), ("", "a.sol", two)],  # listed out of order: sorted, as just above
        [("src", "A.sol", two)],
    ]
    contracts = {addr_from_int(0x100 + i): make_record(addr_from_int(0x100 + i), CREATOR_X,
                                                       [SourceFile(*f) for f in files])
                 for i, files in enumerate(layouts)}
    contracts[addr_from_int(0x1)] = make_record(addr_from_int(0x1), CREATOR_X)  # closed source
    module = sys.modules["proxylineage.fingerprint"]
    calls = []
    original = module.fingerprint
    monkeypatch.setattr(module, "fingerprint",
                        lambda record, **kwargs: calls.append(record) or original(record, **kwargs))
    fingerprints = fingerprint_contracts(contracts, k=64, seed=3)
    assert fingerprints == {address: fingerprint(contracts[address], k=64, seed=3)
                            for address in sorted(contracts) if contracts[address].open_source}
    assert len(calls) == 4
    assert len({fp.signature for fp in fingerprints.values()}) == 4


def no_template_contracts(rng: random.Random) -> dict[str, ContractRecord]:
    """Contracts of one file each, every one with a vocabulary of its own."""
    contracts = {}
    for i in range(12):
        vocab = [f"c{i}w{j}" for j in range(8)]
        address = addr_from_int(0x900 + i)
        contracts[address] = make_record(address, CREATOR_X,
                                         [SourceFile("", "C.sol", soup_source(rng, vocab, 120))])
    return contracts


def record_windows(record: ContractRecord) -> set[tuple[str, ...]]:
    tokens = [text for file in record.files for text in token_texts(file.content)]
    return {tuple(tokens[i:i + SHINGLE_SIZE]) for i in range(len(tokens) - SHINGLE_SIZE + 1)}


@pytest.mark.parametrize("templated", [True, False], ids=["shared-code", "no-templates"])
def test_fingerprint_contracts_hashes_each_distinct_shingle_once(monkeypatch, templated):
    rng = random.Random(8)
    contracts = (varied_sourced_corpus(rng, n_lineages=6).contracts if templated
                 else no_template_contracts(rng))
    open_source = {address: record for address, record in contracts.items() if record.open_source}
    # each record fingerprinted on its own, with no shingle memo
    expected = {address: fingerprint(open_source[address], k=64, seed=3)
                for address in sorted(open_source)}
    per_record = [record_windows(record) for record in open_source.values()]
    distinct = set().union(*per_record)
    # the corpus shares shingles across records exactly when it is built from templates
    assert (sum(map(len, per_record)) > len(distinct)) is templated

    hashed = []
    original = _blake2.blake2b
    monkeypatch.setattr(_blake2, "blake2b",
                        lambda data, **kwargs: hashed.append(data) or original(data, **kwargs))
    fingerprints = fingerprint_contracts(contracts, k=64, seed=3)
    assert fingerprints == expected
    assert list(fingerprints) == sorted(open_source)
    assert len(hashed) == len(set(hashed)) == len(distinct)
    # the memo lives for one call: a second call hashes every shingle again
    fingerprint_contracts(contracts, k=64, seed=3)
    assert len(hashed) == 2 * len(distinct)


def test_the_builtin_blake2b_is_the_one_hashlib_hands_out():
    # shingles are hashed with _blake2.blake2b, which spares loading OpenSSL with hashlib
    import hashlib

    assert _blake2.blake2b is hashlib.blake2b


@settings(max_examples=25, deadline=None)
@given(draw_seed=st.integers(0, 2**32), rows=st.integers(1, 4),
       seed=st.integers(-(2**64), 2**65))
def test_fingerprint_contracts_equals_signing_each_record_alone(draw_seed, rows, seed):
    # one call shares its memos across records built from shared templates; signing each
    # record on its own, with no memo, gives the same fingerprints at any k and seed
    k = rows * 64
    contracts = varied_sourced_corpus(random.Random(draw_seed), n_lineages=3).contracts
    expected = {}
    for address in sorted(contracts):
        if contracts[address].open_source:
            shingles = record_shingles(contracts[address])
            expected[address] = Fingerprint(address, k, seed, minhash_signature(shingles, k, seed),
                                            len(shingles))
    assert fingerprint_contracts(contracts, k=k, seed=seed) == expected


def densification_probes(shingles: set[int], k: int, seed: int) -> int:
    """The mixes that densifying the signature of `shingles` takes: for each empty bin, the
    attempts until one lands in a filled bin."""
    salt = seed & _MASK64
    filled = {_mix(h ^ salt) % k for h in shingles}
    probes = 0
    for i in set(range(k)) - filled:
        attempt = 1
        while _mix(salt ^ ((i * _GAMMA + attempt) & _MASK64)) % k not in filled:
            attempt += 1
        probes += attempt
    return probes


def test_fingerprint_contracts_places_each_distinct_shingle_once(monkeypatch):
    # sources of one template that differ by one token each share nearly all their shingles
    tokens = soup_source(random.Random(4), [f"w{j}" for j in range(40)], 300).split(" ")
    contracts = {}
    for i in range(8):
        edited = [*tokens[:30 * i], f"own{i}", *tokens[30 * i + 1:]]
        address = addr_from_int(0xA00 + i)
        contracts[address] = make_record(address, CREATOR_X,
                                         [SourceFile("", "C.sol", " ".join(edited))])
    per_record = [record_shingles(record) for record in contracts.values()]
    distinct = set().union(*per_record)
    assert sum(map(len, per_record)) > 4 * len(distinct)
    probes = sum(densification_probes(shingles, 64, 3) for shingles in per_record)

    module = sys.modules["proxylineage.fingerprint"]
    mixed = []
    monkeypatch.setattr(module, "_mix", lambda value: mixed.append(value) or _mix(value))
    fingerprints = fingerprint_contracts(contracts, k=64, seed=3)
    assert len(mixed) == len(distinct) + probes
    assert [fp.signature for fp in fingerprints.values()] == [
        minhash_signature(shingles, 64, 3) for shingles in per_record]


@pytest.mark.parametrize("k, seed", [(128, 3), (64, 4), (64, 3 + 2**64)],
                         ids=["k", "seed", "seed-of-the-same-salt"])
def test_a_slot_memo_serves_only_its_own_k_and_seed(k, seed):
    record = make_record(ADDR_A, CREATOR_X, [SourceFile("", "A.sol", "contract A { uint256 x; }")])
    slots = _Slots(64, 3)
    assert minhash_signature({1, 2, 3}, 64, 3, slots=slots) == minhash_signature({1, 2, 3}, 64, 3)
    with pytest.raises(ConfigurationError, match="slot memo is for k 64, seed 3; "):
        minhash_signature({1, 2, 3}, k, seed, slots=slots)
    with pytest.raises(ConfigurationError, match="slot memo is for k 64, seed 3; "):
        fingerprint(record, k=k, seed=seed, slots=slots)


@pytest.mark.parametrize("other", [{"k": 64}, {"seed": 9}], ids=["k", "seed"])
def test_index_rejects_fingerprints_of_another_k_or_seed(other):
    shingles = set(range(80))
    fps = {ADDR_A: fp_from_set(ADDR_A, shingles), ADDR_B: fp_from_set(ADDR_B, shingles, **other)}
    for query in fps:
        with pytest.raises(ConfigurationError, match="has k"):
            query_similar(fps, query)
    with pytest.raises(ConfigurationError, match="has k"):
        LshIndex(reversed(fps.values()))


@settings(max_examples=300, deadline=None)
@given(
    address=st.text(),
    k=st.integers(min_value=1, max_value=2**70),
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    shingle_count=st.integers(min_value=0, max_value=2**70),
    signature=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6),
)
def test_fingerprint_line_matches_json_dumps(address, k, seed, shingle_count, signature):
    row = {
        "address": address,
        "k": k,
        "seed": seed,
        "shingle_count": shingle_count,
        "signature": b"".join(v.to_bytes(8, "big") for v in signature).hex(),
    }
    fp = Fingerprint(address, k, seed, tuple(signature), shingle_count)
    assert _fingerprint_line(fp) == json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def test_fingerprints_roundtrip_through_ndjson(tmp_path):
    rng = random.Random(77)
    fps = {}
    for i in range(5):
        address = addr_from_int(0x6000 + i)
        fps[address] = fp_from_set(address, {rng.getrandbits(64) for _ in range(30)})
    path = tmp_path / "fps.ndjson"
    write_fingerprints(path, fps.values())
    loaded = read_fingerprints(path)
    assert loaded == fps


@pytest.mark.parametrize("other", [{"k": 128, "seed": SEED}, {"k": K, "seed": 1}],
                         ids=["k", "seed"])
def test_read_fingerprints_rejects_rows_of_another_k_or_seed(tmp_path, other):
    """The first row sets the file's k and seed; a later row that differs is rejected."""
    path = tmp_path / "fps.ndjson"
    write_fingerprints(path, [fp_from_set(ADDR_A, {1, 2, 3}),
                              fp_from_set(ADDR_B, {1, 2, 3}, **other)])
    with pytest.raises(ConfigurationError) as excinfo:
        read_fingerprints(path)
    assert str(excinfo.value) == (f"{path}:2: fingerprint has k {other['k']}, "
                                  f"seed {other['seed']}; the first row has k {K}, seed {SEED}")


def test_read_fingerprints_rejects_a_repeated_address(tmp_path):
    path = tmp_path / "fps.ndjson"
    write_fingerprints(path, [fp_from_set(ADDR_A, {1, 2, 3}), fp_from_set(ADDR_B, {4})])
    with open(path, "a", encoding="ascii") as handle:
        handle.write(_fingerprint_line(fp_from_set(ADDR_A, {5})))
    with pytest.raises(ParseError) as excinfo:
        read_fingerprints(path)
    assert str(excinfo.value) == f"{path}:3: duplicate fingerprint address {ADDR_A}"


def test_estimator_mean_error_small():
    rng = random.Random(2024)
    errors = []
    for _ in range(40):
        universe = [rng.getrandbits(64) for _ in range(300)]
        a = set(rng.sample(universe, rng.randint(30, 200)))
        b = set(rng.sample(universe, rng.randint(30, 200)))
        errors.append(abs(estimated(a, b) - oracle_jaccard(a, b)))
    assert sum(errors) / len(errors) <= 0.05


IMPORT_PROBE = """
import json, sys
import proxylineage, proxylineage.cli
heavy = ("numpy", "urllib.request", "_hashlib")
loaded_on_import = [name for name in heavy if name in sys.modules]
from proxylineage import ContractRecord, SourceFile
from proxylineage.fingerprint import fingerprint
record = ContractRecord(
    address="0x" + "aa" * 20, creator="0x" + "e1" * 20, deploy_timestamp=0,
    verified=True, open_source=True,
    files=(SourceFile("src", "Token.sol", "contract Token { function transfer(address to, "
                      "uint256 v) public returns (bool) { balance[to] += v; return true; } }"),),
)
fp = fingerprint(record, k=16, seed=7)
print(json.dumps({"loaded_on_import": loaded_on_import, "numpy_loaded": "numpy" in sys.modules,
                  "openssl_loaded": "_hashlib" in sys.modules,
                  "signature": fp.signature, "shingle_count": fp.shingle_count}))
"""


def test_import_leaves_numpy_and_urllib_request_unloaded():
    # urllib.request is imported on first use, so that commands which never
    # fetch do not pay for loading it; numpy is never needed, not even to hash,
    # and the shingles are hashed with the builtin _blake2, without OpenSSL
    src = str(Path(proxylineage.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                               capture_output=True, text=True, env=env)
    assert completed.returncode == 0, completed.stderr
    probe = json.loads(completed.stdout)
    assert probe["loaded_on_import"] == []
    assert probe["numpy_loaded"] is False
    assert probe["openssl_loaded"] is False
    # the one-permutation signature; 27 shingles in 16 bins leave some to densify
    assert probe["signature"] == [
        141740065303709729, 282304331163020342, 186244986201966331, 97543734523370879,
        625832309555790811, 257829422608311760, 248842979231539429, 186244986201966331,
        574199276841784002, 282304331163020342, 282304331163020342, 997663270278346279,
        29724419898996596, 495272108931647966, 301905143903720342, 362909572044323017,
    ]
    assert probe["shingle_count"] == 27
