"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

import proxylineage

from proxylineage import (
    ContractScope,
    Corpus,
    LineageEvaluator,
    SimilarityCategory,
    build_lineages,
    compare,
    compute_selector,
    contract_pairs,
    diff_pair,
    keccak_256,
    lifecycle_stats,
    line_similarity,
    minhash_signature,
    pair_files,
    pair_functions,
    query_similar,
)
from proxylineage import Fingerprint, LifecycleStatus, SourceFile, extract_functions
from proxylineage.lineage import ActivityWindow, ContractPair
from proxylineage.pairing import FilePair

from conftest import make_record
from corpusgen import (
    addr_from_int,
    eval_corpus,
    planted_eval_corpus,
    random_rule_corpus,
    random_sourced_corpus,
    write_corpus_fixtures,
)
from oracles import (
    assert_rules_hold,
    oracle_jaccard,
    oracle_line_similarity,
    oracle_lineages,
    oracle_selector,
)

K = 256
SEED = 0
DAY = 86400


def report(criterion: str, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: PASS ({detail})")


def corpus_for_seed(seed: int) -> Corpus:
    rng = random.Random(seed)
    size_class = rng.random()
    if size_class < 0.80:
        return random_rule_corpus(rng, max_proxies=12, max_callees_per_proxy=8)
    if size_class < 0.95:
        return random_rule_corpus(rng, max_proxies=25, max_callees_per_proxy=8)
    return random_rule_corpus(rng, max_proxies=50, max_callees_per_proxy=8)


def lineage_tuples(lineages):
    return [
        (l.proxy, l.creator,
         tuple((v.address, v.window.first_call, v.window.last_call) for v in l.versions))
        for l in lineages
    ]


def test_rule_engine_oracle_equivalence():
    """build_lineages equals a direct rule enumerator on 1,000 corpora."""
    started = time.perf_counter()
    n_corpora = 1000
    checked_lineages = 0
    for seed in range(n_corpora):
        corpus = corpus_for_seed(seed)
        assert len({e.proxy_address for e in corpus.events}) <= 50
        assert len(corpus.contracts) <= 200
        lineages, diagnostics = build_lineages(corpus)
        expected_lineages, expected_exclusions = oracle_lineages(corpus)
        assert lineage_tuples(lineages) == expected_lineages, f"seed {seed}"
        actual_exclusions = {(e.proxy, e.callee, e.reason.value)
                             for e in diagnostics.exclusions}
        assert actual_exclusions == expected_exclusions, f"seed {seed}"
        assert_rules_hold(corpus, lineages)
        checked_lineages += len(lineages)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    report("rule-engine-oracle-equivalence",
           f"{n_corpora} corpora, {checked_lineages} lineages, 100% agreement, {elapsed:.1f}s")


def test_structural_identity_and_accounting():
    """Pair counts and member/diagnostic accounting hold on every corpus."""
    violations = 0
    n_corpora = 1000
    for seed in range(n_corpora):
        corpus = corpus_for_seed(seed)
        lineages, diagnostics = build_lineages(corpus)
        pairs = contract_pairs(lineages)
        if len(pairs) != sum(len(l.versions) - 1 for l in lineages):
            violations += 1
        observations = {(e.proxy_address, e.callee_address) for e in corpus.events}
        members = {(l.proxy, v.address) for l in lineages for v in l.versions}
        diagnosed = {(e.proxy, e.callee) for e in diagnostics.exclusions}
        if members | diagnosed != observations or (members & diagnosed):
            violations += 1
        if len(members) + len(diagnosed) != len(observations):
            violations += 1
    assert violations == 0
    report("structural-identity", f"{n_corpora} corpora, 0 violations")


def _set_pair_with_jaccard(rng: random.Random, target: float, size: int):
    shared = round(2 * size * target / (1 + target))
    common = {rng.getrandbits(64) for _ in range(shared)}
    a = common | {rng.getrandbits(64) for _ in range(size - shared)}
    b = common | {rng.getrandbits(64) for _ in range(size - shared)}
    return a, b


def test_minhash_fidelity_and_banding_recall():
    """Estimator error <= 0.05 mean; LOW retrieval recovers >= 99% of J>=0.6 pairs."""
    rng = random.Random(2001)
    errors = []
    for _ in range(100):
        target = rng.uniform(0.05, 0.95)
        a, b = _set_pair_with_jaccard(rng, target, rng.randint(80, 300))
        true_j = oracle_jaccard(a, b)
        fa = Fingerprint("0xa", K, SEED, minhash_signature(a, K, SEED), len(a))
        fb = Fingerprint("0xb", K, SEED, minhash_signature(b, K, SEED), len(b))
        errors.append(abs(compare(fa, fb).estimated_jaccard - true_j))
    mean_error = sum(errors) / len(errors)
    assert mean_error <= 0.05

    must_recover = 0
    recovered = 0
    for trial in range(40):
        trial_rng = random.Random(3000 + trial)
        query_set = {trial_rng.getrandbits(64) for _ in range(150)}
        fingerprints = {}
        query_addr = addr_from_int(0x10000)
        fingerprints[query_addr] = Fingerprint(
            query_addr, K, SEED, minhash_signature(query_set, K, SEED), len(query_set))
        planted: dict[str, float] = {}
        for i in range(12):
            address = addr_from_int(0x10001 + i)
            if i < 7:
                target = trial_rng.uniform(0.6, 0.95)
                shared = round(len(query_set) * 2 * target / (1 + target))
                candidate = set(trial_rng.sample(sorted(query_set), shared))
                candidate |= {trial_rng.getrandbits(64) for _ in range(len(query_set) - shared)}
            else:
                candidate = {trial_rng.getrandbits(64) for _ in range(150)}
            true_j = oracle_jaccard(query_set, candidate)
            planted[address] = true_j
            fingerprints[address] = Fingerprint(
                address, K, SEED, minhash_signature(candidate, K, SEED), len(candidate))
        results = {a for a, _ in query_similar(fingerprints, query_addr, SimilarityCategory.LOW)}
        for address, true_j in planted.items():
            if true_j >= 0.6:
                must_recover += 1
                if address in results:
                    recovered += 1
    recall = recovered / must_recover
    assert recall >= 0.99
    report("minhash-fidelity",
           f"mean |err| {mean_error:.4f} <= 0.05 over 100 pairs; "
           f"banding recall {recovered}/{must_recover} = {recall:.4f} >= 0.99")


def brute_force_scenario_counts(evaluator, thresholds, scopes):
    """Recount tp/fp/fn from all-pairs comparisons, no banding index."""
    counts = {}
    queries = [q for q in sorted(evaluator.membership) if q in evaluator.fingerprints]
    for scope in scopes:
        for threshold in thresholds:
            tp = fp = fn = 0
            for query in queries:
                query_fp = evaluator.fingerprints[query]
                query_creator = evaluator.corpus.contracts[query].creator
                predicted = set()
                for address, fingerprint_obj in evaluator.fingerprints.items():
                    if address == query:
                        continue
                    verdict = compare(query_fp, fingerprint_obj)
                    if verdict.category < threshold:
                        continue
                    record = evaluator.corpus.contracts[address]
                    if record.creator != query_creator:
                        continue
                    if scope is ContractScope.OPEN_SOURCE_ONLY and not record.open_source:
                        continue
                    predicted.add(address)
                truth = evaluator.membership[query]
                tp += len(predicted & truth)
                fp += len(predicted - truth)
                fn += len(truth - predicted)
            counts[(scope, threshold)] = (tp, fp, fn)
    return counts


def test_algorithm_one_correctness():
    """Pooled counts match a brute-force recount; recall never rises with the
    threshold; a planted corpus scores perfectly."""
    thresholds = (SimilarityCategory.LOW, SimilarityCategory.MEDIUM, SimilarityCategory.HIGH)
    scopes = (ContractScope.OPEN_SOURCE_ONLY, ContractScope.ALL)
    corpora_checked = 0
    for seed in range(12):
        rng = random.Random(9000 + seed)
        corpus = eval_corpus(rng, n_lineages=rng.randint(2, 6),
                             noise_contracts=rng.randint(2, 8))
        assert len(corpus.contracts) <= 200
        lineages, _ = build_lineages(corpus)
        if not lineages:
            continue
        evaluator = LineageEvaluator(corpus, lineages)
        results, _ = evaluator.evaluate(thresholds=thresholds, scopes=scopes)
        recount = brute_force_scenario_counts(evaluator, thresholds, scopes)
        for result in results:
            expected = recount[(result.contract_scope, result.threshold)]
            assert (result.tp, result.fp, result.fn) == expected, f"seed {seed}"
        for scope in scopes:
            recalls = [r.recall if r.recall is not None else 0.0
                       for r in results if r.contract_scope is scope]
            assert recalls == sorted(recalls, reverse=True), f"seed {seed}"
        corpora_checked += 1
    assert corpora_checked >= 10

    planted = planted_eval_corpus(n_lineages=4, versions=3)
    lineages, _ = build_lineages(planted)
    evaluator = LineageEvaluator(planted, lineages)
    results, diagnostics = evaluator.evaluate(thresholds=thresholds, scopes=scopes)
    assert diagnostics == []
    assert all(r.precision == 1.0 and r.recall == 1.0 for r in results)
    report("algorithm-one-correctness",
           f"{corpora_checked} corpora recounted exactly; recall monotone; "
           "planted corpus precision=recall=1.0")


RENAME_TRUTH = {
    ("contracts", "Token.sol", "Token.sol", 0),
    ("contracts", "LandRegistryV2.sol", "LandRegistryV3.sol", 1),
    ("contracts", "Vault.sol", "Vlt.sol", 2),
}
UNPAIRED_PRED_TRUTH = {("contracts", "Oracle.sol"), ("misc", "Utils.sol")}
UNPAIRED_SUCC_TRUTH = {("contracts", "PriceFeed.sol"), ("lib", "Utils.sol")}

FUNCTION_SRC_PRED = """contract Core {
    function transfer(address to, uint256 amount) public returns (bool) { return true; }
    function mintV2(uint256 n) public { }
    function pause() public { }
    function deposit() public { }
}
"""
FUNCTION_SRC_SUCC = """contract Core {
    function transfer(address to, uint256 amount) public returns (bool) { return false; }
    function mintV3(uint256 n, address who) public { }
    function pauze() public { }
    function withdrawAll() public { }
}
"""
# (predecessor name, successor name, kind)
FUNCTION_TRUTH = {
    ("transfer", "transfer", "EXACT_SIGNATURE"),
    ("mintV2", "mintV3", "FUZZY_NAME"),
    ("pause", "pauze", "FUZZY_NAME"),
}


def test_file_and_function_pairing_against_hand_labels():
    content = "contract C { uint256 x; }\n"
    pred = make_record(addr_from_int(0xA1), addr_from_int(0xE1), [
        SourceFile("contracts", "Token.sol", content),
        SourceFile("contracts", "LandRegistryV2.sol", content),
        SourceFile("contracts", "Vault.sol", content),
        SourceFile("contracts", "Oracle.sol", content),
        SourceFile("misc", "Utils.sol", content),
    ])
    succ = make_record(addr_from_int(0xA2), addr_from_int(0xE1), [
        SourceFile("contracts", "Token.sol", content),
        SourceFile("contracts", "LandRegistryV3.sol", content),
        SourceFile("contracts", "Vlt.sol", content),
        SourceFile("contracts", "PriceFeed.sol", content),
        SourceFile("lib", "Utils.sol", content),
    ])
    pairing = pair_files(pred, succ)
    computed = {
        (p.directory, p.predecessor_filename, p.successor_filename, p.name_distance)
        for p in pairing.pairs
    }
    true_positives = len(computed & RENAME_TRUTH)
    precision = true_positives / len(computed)
    recall = true_positives / len(RENAME_TRUTH)
    assert precision == 1.0 and recall == 1.0
    assert set(pairing.unpaired_predecessor) == UNPAIRED_PRED_TRUTH
    assert set(pairing.unpaired_successor) == UNPAIRED_SUCC_TRUTH

    file_pair = FilePair(
        predecessor=pred.address, successor=succ.address, directory="contracts",
        predecessor_filename="Core.sol", successor_filename="Core.sol",
        name_distance=0, line_similarity=1.0, content_similarity=1.0,
    )
    pred_units = extract_functions(SourceFile("contracts", "Core.sol", FUNCTION_SRC_PRED))
    succ_units = extract_functions(SourceFile("contracts", "Core.sol", FUNCTION_SRC_SUCC))
    function_pairing = pair_functions(file_pair, pred_units, succ_units)
    computed_functions = {
        (p.predecessor.name, p.successor.name, p.match_kind.value)
        for p in function_pairing.pairs
    }
    fn_tp = len(computed_functions & FUNCTION_TRUTH)
    assert fn_tp / len(computed_functions) == 1.0
    assert fn_tp / len(FUNCTION_TRUTH) == 1.0
    assert [u.name for u in function_pairing.unpaired_predecessor] == ["deposit"]
    assert [u.name for u in function_pairing.unpaired_successor] == ["withdrawAll"]

    rng = random.Random(555)
    alphabet = ["alpha", "beta;", "gamma", "", "delta delta", "x"]
    max_delta = 0.0
    for _ in range(200):
        a = "\n".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        b = "\n".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        max_delta = max(max_delta, abs(line_similarity(a, b) - oracle_line_similarity(a, b)))
    assert max_delta <= 1e-9
    report("file-function-pairing",
           f"rename fixture precision=recall=1.0 (files and functions); "
           f"line similarity max |delta| {max_delta:.2e} <= 1e-9 on 200 pairs")


def test_lifecycle_conservation():
    """Per-key conservation on generated corpora; union dominates intersection."""
    rng = random.Random(31337)
    tools = {"slither": ["reentrancy-eth", "tx-origin", "unchecked-send"],
             "mythril": ["SWC-107", "SWC-115", "SWC-104"]}
    pairs_checked = 0
    for _ in range(25):
        corpus = random_sourced_corpus(rng, n_lineages=rng.randint(1, 4))
        lineages, _ = build_lineages(corpus)
        all_records = []
        for pair in contract_pairs(lineages):
            pred = corpus.contracts[pair.predecessor]
            succ = corpus.contracts[pair.successor]
            file_pairs = pair_files(pred, succ).pairs

            def random_findings(record):
                found = []
                for file in record.files:
                    for _ in range(rng.randint(0, 4)):
                        tool = rng.choice(sorted(tools))
                        found.append(make_finding(
                            tool, rng.choice(tools[tool]), record.address,
                            file.directory, file.filename, rng.randint(1, 5)))
                return found

            pred_findings = random_findings(pred)
            succ_findings = random_findings(succ)
            records = diff_pair(pair, file_pairs, pred_findings, succ_findings)
            check_conservation(pair, file_pairs, pred_findings, succ_findings, records)
            all_records.extend(records)
            pairs_checked += 1
        if not all_records:
            continue
        union = lifecycle_stats(all_records, mode="union")
        intersection = lifecycle_stats(all_records, mode="intersection")
        for field in ("total", "introduced", "persisted", "disappeared"):
            assert union["findings"][field] >= intersection["findings"][field]
        for field in ("distinct_keys", "vulnerable_files", "vulnerable_contracts",
                      "lineages_touched"):
            assert union[field] >= intersection[field]

    summary = hand_fixture_summary()
    assert summary["union"]["findings"] == {
        "total": 5, "introduced": 1, "persisted": 2, "disappeared": 2}
    assert summary["union"]["mean_days_to_disappear"] == pytest.approx(25.0)
    assert summary["intersection"]["findings"] == {
        "total": 2, "introduced": 0, "persisted": 1, "disappeared": 1}
    assert summary["intersection"]["mean_days_to_disappear"] == pytest.approx(30.0)
    report("lifecycle-conservation",
           f"{pairs_checked} generated pairs conserved; union >= intersection; "
           "hand fixture matches exactly")


def make_finding(tool, vuln_type, contract, directory, filename, start):
    from proxylineage import Finding

    return Finding(tool=tool, vuln_type=vuln_type, contract=contract,
                   directory=directory, filename=filename,
                   start_line=start, end_line=start + 1, message="m")


def check_conservation(pair, file_pairs, pred_findings, succ_findings, records):
    def count_by_key(records_subset, statuses):
        counts = {}
        for record in records_subset:
            if record.status in statuses:
                counts[record.key] = counts.get(record.key, 0) + 1
        return counts

    pred_side = count_by_key(records, {LifecycleStatus.PERSISTED, LifecycleStatus.DISAPPEARED})
    succ_side = count_by_key(records, {LifecycleStatus.PERSISTED, LifecycleStatus.INTRODUCED})
    assert sum(pred_side.values()) == len(pred_findings)
    assert sum(succ_side.values()) == len(succ_findings)
    for record in records:
        if record.status is LifecycleStatus.DISAPPEARED:
            assert record.days_to_disappear is not None
            assert record.days_to_disappear >= 0
        else:
            assert record.days_to_disappear is None


def hand_fixture_summary():
    proxy = addr_from_int(0xF00)
    a, b, c = (addr_from_int(0xF10 + i) for i in range(3))

    def pair_between(pred, succ, pred_first, succ_first):
        return ContractPair(
            proxy=proxy, predecessor=pred, successor=succ,
            gap_days=(succ_first - pred_first - 10 * DAY) / DAY,
            predecessor_window=ActivityWindow(pred_first, pred_first + 10 * DAY),
            successor_window=ActivityWindow(succ_first, succ_first + 10 * DAY),
        )

    pair1 = pair_between(a, b, 0, 20 * DAY)
    pair2 = pair_between(b, c, 20 * DAY, 50 * DAY)
    fp = FilePair(predecessor=a, successor=b, directory="src",
                  predecessor_filename="Core.sol", successor_filename="Core.sol",
                  name_distance=0, line_similarity=0.9, content_similarity=0.95)
    records = []
    records += diff_pair(pair1, [fp],
                         [make_finding("slither", "reentrancy-eth", a, "src", "Core.sol", 1),
                          make_finding("slither", "reentrancy-eth", a, "src", "Core.sol", 5),
                          make_finding("mythril", "SWC-107", a, "src", "Core.sol", 1)],
                         [make_finding("slither", "reentrancy-eth", b, "src", "Core.sol", 1),
                          make_finding("mythril", "SWC-107", b, "src", "Core.sol", 1),
                          make_finding("slither", "tx-origin", b, "src", "Core.sol", 2)])
    records += diff_pair(pair2, [fp],
                         [make_finding("slither", "reentrancy-eth", b, "src", "Core.sol", 1),
                          make_finding("mythril", "SWC-107", b, "src", "Core.sol", 1),
                          make_finding("slither", "tx-origin", b, "src", "Core.sol", 2)],
                         [make_finding("slither", "tx-origin", c, "src", "Core.sol", 2)])
    return {
        "union": lifecycle_stats(records, mode="union"),
        "intersection": lifecycle_stats(records, mode="intersection"),
    }


def test_selector_correctness():
    """compute_selector agrees with LFSR-derived keccak on 1,000 signatures."""
    assert keccak_256(b"").hex() == (
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470")
    rng = random.Random(4001)
    types = ["address", "uint256", "uint8", "bool", "bytes", "bytes32", "string",
             "uint256[]", "address[]"]
    for i in range(1000):
        first = rng.choice("abcdefghijklmnopqrstuvwxyz_$")
        rest = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789_$")
                       for _ in range(rng.randint(0, 14)))
        params = ",".join(rng.choice(types) for _ in range(rng.randint(0, 5)))
        signature = f"{first}{rest}({params})"
        assert compute_selector(signature) == oracle_selector(signature), signature
    report("selector-correctness",
           "1000 random signatures match the independent keccak oracle; "
           "empty-input digest c5d24601... verified")


def test_end_to_end_determinism(tmp_path):
    """Two full CLI runs on identical inputs produce byte-identical outputs.

    The runs happen in separate processes with different PYTHONHASHSEED
    values, so any hash-order dependence in the pipeline would break them.
    """
    import os
    import subprocess
    import sys

    rng = random.Random(777)
    corpus = random_sourced_corpus(rng, n_lineages=4)
    traces, contracts = write_corpus_fixtures(corpus, tmp_path / "fixtures")

    # the child must find the package that this test imported
    src = str(Path(proxylineage.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run_cli(args, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        completed = subprocess.run(
            [sys.executable, "-m", "proxylineage.cli", *args],
            capture_output=True, text=True, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        return completed

    outputs = []
    for run, hash_seed in (("one", "1"), ("two", "2")):
        run_dir = tmp_path / run
        run_dir.mkdir()
        bundle_dir = run_dir / "bundle"
        run_cli(["emit", "--traces", str(traces), "--contracts", str(contracts),
                 "--out", str(bundle_dir)], hash_seed)
        run_cli(["stats", str(bundle_dir), "--out", str(run_dir / "stats.json")], hash_seed)
        run_cli(["--seed", "42", "evaluate-lsh", "--traces", str(traces),
                 "--contracts", str(contracts),
                 "--out", str(run_dir / "results.json")], hash_seed)
        run_cli(["--seed", "42", "fingerprint", "--traces", str(traces),
                 "--contracts", str(contracts),
                 "--out", str(run_dir / "fps.ndjson")], hash_seed)
        tree = {
            str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()
        }
        outputs.append(tree)
    assert outputs[0] == outputs[1]
    stats_payload = json.loads(outputs[0]["stats.json"])
    assert stats_payload["lineage_count"] >= 1
    report("end-to-end-determinism",
           f"two pipeline runs (distinct processes and hash seeds) "
           f"byte-identical across {len(outputs[0])} files")
