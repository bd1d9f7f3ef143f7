"""Scoring similarity-predicted lineages against rule-based ground truth."""

from __future__ import annotations

import random

import pytest

from proxylineage import (
    ConfigurationError,
    ContractScope,
    Corpus,
    LineageEvaluator,
    LshIndex,
    SimilarityCategory,
    SourceFile,
    UnknownAddressError,
    build_lineages,
    query_similar,
)
from proxylineage.evaluation import results_to_csv, results_to_jsonable
from proxylineage.fingerprint import fingerprint, fingerprint_contracts

from conftest import corpus_evaluator, make_record, window_events
from corpusgen import addr_from_int, eval_corpus, planted_eval_corpus, soup_source
from oracles import OracleEvaluator

THRESHOLDS = (SimilarityCategory.LOW, SimilarityCategory.MEDIUM, SimilarityCategory.HIGH)


def scenario(results, scope: ContractScope, threshold: SimilarityCategory):
    """The one row of the six-row table for (scope, threshold)."""
    (row,) = [r for r in results if r.contract_scope is scope and r.threshold is threshold]
    return row


def planted_corpus(n_lineages: int = 3, versions: int = 3) -> Corpus:
    return planted_eval_corpus(n_lineages=n_lineages, versions=versions)


@pytest.fixture(scope="module")
def planted():
    corpus = planted_corpus()
    lineages, _ = build_lineages(corpus)
    evaluator = corpus_evaluator(corpus, lineages)
    return corpus, lineages, evaluator


def test_perfect_predictor_scores_one(planted):
    _, lineages, evaluator = planted
    assert len(lineages) == 3
    results, diagnostics = evaluator.evaluate()
    assert diagnostics == []
    assert len(results) == 6
    for result in results:
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.fp == 0 and result.fn == 0


def test_identical_candidate_included_at_every_threshold(planted):
    _, lineages, evaluator = planted
    query = lineages[0].versions[0].address
    others = {v.address for v in lineages[0].versions} - {query}
    for threshold in THRESHOLDS:
        predicted = evaluator.predicted_lineage(query, threshold, ContractScope.ALL)
        assert predicted == others


def test_creator_filter_annihilates(planted):
    corpus, lineages, _ = planted
    # same similar contracts, but rewrite the query's creator so nothing matches
    query = lineages[0].versions[0].address
    record = corpus.contracts[query]
    patched = dict(corpus.contracts)
    patched[query] = make_record(query, addr_from_int(0xEEEE), record.files)
    evaluator = corpus_evaluator(Corpus(events=corpus.events, contracts=patched), lineages)
    predicted = evaluator.predicted_lineage(query, SimilarityCategory.LOW, ContractScope.ALL)
    assert predicted == set()


def test_owner_filter_beats_similarity():
    # candidate identical to the query but owned by someone else: excluded;
    # a LOW-similarity same-owner candidate is kept at LOW, dropped at MEDIUM
    rng = random.Random(8)
    vocab = [f"s{i}" for i in range(8)]
    base = soup_source(rng, vocab, n_tokens=240)
    tokens = base.split(" ")
    # shared 190-token prefix puts the true Jaccard near 0.65: the estimate
    # lands between the LOW and MEDIUM thresholds
    fresh = [f"zz{i}" for i in range(8)]
    variant = tokens[:190] + [rng.choice(fresh) for _ in range(50)]
    low_content = " ".join(variant)

    creator = addr_from_int(0xD100)
    other_creator = addr_from_int(0xD200)
    query_addr, s1, x, s2 = (addr_from_int(0x5100 + i) for i in range(4))
    proxy = addr_from_int(0x910000)
    events = (
        window_events(proxy, query_addr, 0, 5)
        + window_events(proxy, s1, 10, 15)
    )
    contracts = {
        query_addr: make_record(query_addr, creator, [SourceFile("", "Q.sol", base)]),
        s1: make_record(s1, creator, [SourceFile("", "S1.sol", base)]),
        x: make_record(x, other_creator, [SourceFile("", "X.sol", base)]),
        s2: make_record(s2, creator, [SourceFile("", "S2.sol", low_content)]),
    }
    corpus = Corpus(events=events, contracts=contracts)
    lineages, _ = build_lineages(corpus)
    evaluator = corpus_evaluator(corpus, lineages)

    # one index over every creator proposes the other creator's copy too
    everything = LshIndex(evaluator.fingerprints.values())
    verdicts = {
        a: v.category
        for a, v in query_similar(evaluator.fingerprints, query_addr,
                                  SimilarityCategory.LOW, index=everything)
    }
    assert verdicts[s1] is SimilarityCategory.HIGH
    assert verdicts[x] is SimilarityCategory.HIGH
    assert verdicts[s2] is SimilarityCategory.LOW

    at_medium = evaluator.predicted_lineage(query_addr, SimilarityCategory.MEDIUM, ContractScope.ALL)
    assert at_medium == {s1}
    at_low = evaluator.predicted_lineage(query_addr, SimilarityCategory.LOW, ContractScope.ALL)
    assert at_low == {s1, s2}


def test_pooled_counting(planted, monkeypatch):
    _, lineages, evaluator = planted
    queries = sorted(evaluator.membership)
    gt_sizes = {q: len(evaluator.membership[q]) for q in queries}

    def fake_predicted(self, query, threshold, scope):
        truth = sorted(self.membership[query])
        # one true member plus one invention
        return {truth[0], addr_from_int(0xFFFF)}

    monkeypatch.setattr(LineageEvaluator, "predicted_lineage", fake_predicted)
    results, _ = evaluator.evaluate()
    result = scenario(results, ContractScope.ALL, SimilarityCategory.LOW)
    n = len(queries)
    assert result.tp == n  # one hit per query
    assert result.fp == n  # one miss per query
    assert result.fn == sum(gt_sizes[q] - 1 for q in queries)
    assert result.precision == 0.5
    expected_recall = result.tp / (result.tp + result.fn)
    assert result.recall == pytest.approx(expected_recall)


def test_empty_predictions_leave_precision_undefined(planted, monkeypatch):
    _, _, evaluator = planted
    monkeypatch.setattr(LineageEvaluator, "predicted_lineage",
                        lambda self, query, threshold, scope: set())
    results, _ = evaluator.evaluate()
    result = scenario(results, ContractScope.ALL, SimilarityCategory.HIGH)
    assert result.precision is None
    assert result.recall == 0.0


def test_unknown_query_raises(planted):
    _, _, evaluator = planted
    with pytest.raises(UnknownAddressError):
        evaluator.predicted_lineage(addr_from_int(0x1), SimilarityCategory.LOW, ContractScope.ALL)


def test_recall_monotone_and_scope_refinement_on_random_corpora():
    rng = random.Random(64)
    for _ in range(5):
        corpus = eval_corpus(rng)
        lineages, _ = build_lineages(corpus)
        evaluator = corpus_evaluator(corpus, lineages)
        results, _ = evaluator.evaluate()
        by_scope: dict = {}
        for result in results:
            by_scope.setdefault(result.contract_scope, {})[result.threshold] = result
        for scope_results in by_scope.values():
            recalls = [scope_results[t].recall or 0.0 for t in THRESHOLDS]
            assert recalls[0] >= recalls[1] >= recalls[2]
        for query in sorted(evaluator.membership):
            if query not in evaluator.fingerprints:
                continue
            for threshold in THRESHOLDS:
                os_set = evaluator.predicted_lineage(query, threshold, ContractScope.OPEN_SOURCE_ONLY)
                all_set = evaluator.predicted_lineage(query, threshold, ContractScope.ALL)
                assert os_set <= all_set


def test_each_query_is_retrieved_once(monkeypatch):
    # thresholds and scopes filter one verified retrieval per query; none of
    # the six (scope, threshold) cells goes back to the index
    corpus = eval_corpus(random.Random(5))
    lineages, _ = build_lineages(corpus)
    evaluator = corpus_evaluator(corpus, lineages)
    queried: list[str] = []
    original = LshIndex.candidates

    def counting(self, fp):
        queried.append(fp.address)
        return original(self, fp)

    monkeypatch.setattr(LshIndex, "candidates", counting)
    results, _ = evaluator.evaluate()
    assert len(results) == 6
    queries = [q for q in sorted(evaluator.membership) if q in evaluator.fingerprints]
    assert queries
    assert sorted(queried) == queries


def shared_creator_corpus(rng: random.Random) -> Corpus:
    """An eval_corpus whose creators are merged into one to three, so that a
    creator's contracts span several lineages and the noise."""
    corpus = eval_corpus(rng)
    pool = [addr_from_int(0xE000 + i) for i in range(rng.randint(1, 3))]
    merged = {creator: rng.choice(pool)
              for creator in sorted({r.creator for r in corpus.contracts.values()})}
    return Corpus(events=corpus.events, contracts={
        address: record._replace(creator=merged[record.creator])
        for address, record in corpus.contracts.items()})


@pytest.mark.parametrize("aggregation", ["micro", "macro"])
def test_verifying_only_same_creator_candidates_changes_no_result(aggregation):
    # The evaluator searches one index per creator; the oracle searches one
    # index over every fingerprint, verifies every candidate and then filters
    # by creator. A fingerprint without a contract record (one read from a
    # file, say) is in none of the evaluator's indexes and kept by neither.
    rng = random.Random(17)
    other_creator_proposals = 0
    for _ in range(6):
        corpus = shared_creator_corpus(rng)
        lineages, _ = build_lineages(corpus)
        fingerprints = fingerprint_contracts(corpus.contracts, 256, 0)
        stray = addr_from_int(0xFFFF)
        fingerprints[stray] = fingerprints[min(fingerprints)]._replace(address=stray)
        fast = LineageEvaluator(corpus, lineages, fingerprints)
        assert fast.evaluate(aggregation=aggregation) == OracleEvaluator(
            corpus, lineages, fingerprints).evaluate(aggregation=aggregation)
        # a global index would propose other creators' contracts, so the
        # corpora exercise the creator rule
        everything = LshIndex(fingerprints.values())
        creator = {a: r.creator for a, r in corpus.contracts.items()}
        other_creator_proposals += sum(
            creator.get(candidate) != creator[query]
            for query in fast.membership if query in fingerprints
            for candidate in everything.candidates(fingerprints[query]))
    assert other_creator_proposals


@pytest.mark.parametrize("holder", ["member", "stray"])
@pytest.mark.parametrize("other", [{"k": 64}, {"seed": 9}], ids=["k", "seed"])
def test_fingerprints_of_another_k_or_seed_are_rejected(planted, other, holder):
    # a stray fingerprint (no contract record) is in no creator's index, and
    # is rejected all the same
    corpus, lineages, evaluator = planted
    fingerprints = dict(evaluator.fingerprints)
    member = max(fingerprints)
    odd = fingerprint(corpus.contracts[member], **{"k": 256, "seed": 0, **other})
    address = member if holder == "member" else addr_from_int(0xFFFF)
    fingerprints[address] = odd._replace(address=address)
    with pytest.raises(ConfigurationError, match="has k"):
        LineageEvaluator(corpus, lineages, fingerprints)


def test_closed_source_member_skipped_with_diagnostic():
    corpus = planted_corpus(n_lineages=1, versions=3)
    lineages, _ = build_lineages(corpus)
    victim = lineages[0].versions[1].address
    patched = dict(corpus.contracts)
    old = patched[victim]
    patched[victim] = make_record(victim, old.creator, [])
    evaluator = corpus_evaluator(Corpus(events=corpus.events, contracts=patched), lineages)
    results, diagnostics = evaluator.evaluate()
    assert any(victim in note for note in diagnostics)
    # the skipped member still counts against recall for the other queries
    assert scenario(results, ContractScope.ALL, SimilarityCategory.LOW).fn > 0


def test_macro_aggregation_reports_flag(planted):
    _, _, evaluator = planted
    results, _ = evaluator.evaluate(aggregation="macro")
    assert all(r.aggregation == "macro" for r in results)
    assert all(r.precision == 1.0 and r.recall == 1.0 for r in results)


def test_results_csv_has_table_columns(planted):
    _, _, evaluator = planted
    results, _ = evaluator.evaluate()
    csv_text = results_to_csv(results)
    header = csv_text.splitlines()[0]
    assert header == "contract_type,similarity_threshold,precision_pct,recall_pct"
    assert len(csv_text.splitlines()) == 7


def test_results_jsonable_percentages(planted):
    _, _, evaluator = planted
    results, _ = evaluator.evaluate()
    for row in results_to_jsonable(results):
        assert row["precision_pct"] == 100.0
        assert row["recall_pct"] == 100.0


@pytest.mark.parametrize("aggregation", ["micro", "macro"])
def test_query_whose_truth_is_all_closed_source(aggregation):
    # Pins current behaviour, which ROADMAP direction 3 will change: v1's
    # only lineage mate v2 is closed-source, so v1 can never predict it, and
    # v1 counts one false negative in every scenario, even under open-source
    # scope and macro aggregation.
    corpus = planted_corpus(n_lineages=1, versions=2)
    lineages, _ = build_lineages(corpus)
    v1, v2 = (v.address for v in lineages[0].versions)
    patched = dict(corpus.contracts)
    patched[v2] = make_record(v2, patched[v2].creator, [])
    corpus = Corpus(events=corpus.events, contracts=patched)
    lineages, _ = build_lineages(corpus)
    assert [[v.address for v in lineage.versions] for lineage in lineages] == [[v1, v2]]
    results, diagnostics = corpus_evaluator(corpus, lineages).evaluate(aggregation=aggregation)
    assert diagnostics == [f"query {v2} skipped: not fingerprintable"]
    assert [(r.contract_scope, r.threshold) for r in results] == [
        (scope, threshold) for scope in ContractScope for threshold in THRESHOLDS]
    for result in results:
        assert (result.precision, result.recall) == (None, 0.0)
        assert (result.tp, result.fp, result.fn) == (0, 0, 1)
        assert result.aggregation == aggregation
