"""Score similarity-based lineage construction against rule-based ground truth.

For every contract in the ground-truth lineages, the similarity engine
predicts its lineage: retrieve similar contracts at or above a similarity
threshold, keep those sharing the query's creator, and optionally restrict
to open-source candidates. Since no other creator's contract is kept, each
query searches an LSH index over its creator's fingerprints alone.
Predictions are compared against the rule-based lineage members, pooling
true/false positives and false negatives across all queries into one
precision/recall figure per (scope, threshold) scenario.
"""

from __future__ import annotations

import csv
import io
from enum import Enum
from typing import Mapping, NamedTuple

from .corpus import Corpus
from .errors import UnknownAddressError, ValidationError
from .fingerprint import Fingerprint, LshIndex, SimilarityCategory, check_comparable, query_similar
from .lineage import Lineage


class ContractScope(str, Enum):
    OPEN_SOURCE_ONLY = "OPEN_SOURCE_ONLY"
    ALL = "ALL"


DEFAULT_THRESHOLDS = (SimilarityCategory.LOW, SimilarityCategory.MEDIUM, SimilarityCategory.HIGH)
DEFAULT_SCOPES = (ContractScope.OPEN_SOURCE_ONLY, ContractScope.ALL)


class ScenarioResult(NamedTuple):
    """Pooled counts and resulting metrics for one (scope, threshold) cell.

    precision is None when no predictions were made (tp+fp == 0); recall is
    None when the ground truth was empty (tp+fn == 0).
    """

    contract_scope: ContractScope
    threshold: SimilarityCategory
    precision: float | None
    recall: float | None
    tp: int
    fp: int
    fn: int
    aggregation: str = "micro"


class LineageEvaluator:
    """Holds one LSH index per creator and the ground-truth membership for scoring.

    `fingerprints` maps addresses to fingerprints of one k and seed, as
    `fingerprint_contracts` and `read_fingerprints` return them; a mapping
    that mixes them raises ConfigurationError.
    """

    def __init__(self, corpus: Corpus, lineages: list[Lineage],
                 fingerprints: Mapping[str, Fingerprint]):
        check_comparable(list(fingerprints.values()))
        self.corpus = corpus
        self.fingerprints = fingerprints
        # creator -> that creator's fingerprints and their index: a query keeps
        # no candidate of another creator, so it searches only its creator's
        by_creator: dict[str, dict[str, Fingerprint]] = {}
        for address, fp in fingerprints.items():
            record = corpus.contracts.get(address)
            if record is not None:
                by_creator.setdefault(record.creator, {})[address] = fp
        self._by_creator = {creator: (fps, LshIndex(fps.values()))
                            for creator, fps in by_creator.items()}
        # query -> same-creator neighbours as (address, category, open_source)
        self._neighbours: dict[str, list[tuple[str, SimilarityCategory, bool]]] = {}
        # A contract serving several proxies belongs to each of those
        # lineages; its ground truth is the union of their members.
        self.membership: dict[str, set[str]] = {}
        for lineage in lineages:
            members = {v.address for v in lineage.versions}
            for address in members:
                self.membership.setdefault(address, set()).update(members - {address})

    def _same_creator_neighbours(self, query: str) -> list[tuple[str, SimilarityCategory, bool]]:
        """Every similar contract of the query's creator, retrieved from that
        creator's index and verified once."""
        neighbours = self._neighbours.get(query)
        if neighbours is not None:
            return neighbours
        if query not in self.fingerprints:
            raise UnknownAddressError(f"no fingerprint for query {query}")
        query_record = self.corpus.contracts.get(query)
        if query_record is None:
            raise UnknownAddressError(f"no contract record for query {query}")
        contracts = self.corpus.contracts
        fingerprints, index = self._by_creator[query_record.creator]
        neighbours = [
            (address, verdict.category, contracts[address].open_source)
            for address, verdict in query_similar(
                fingerprints, query, min_category=SimilarityCategory.NONE, index=index)
        ]
        self._neighbours[query] = neighbours
        return neighbours

    def predicted_lineage(
        self,
        query: str,
        threshold: SimilarityCategory,
        scope: ContractScope,
    ) -> set[str]:
        """Similar contracts sharing the query's creator, per Algorithm-1 filters.

        The candidates are retrieved and verified once per query; each
        threshold and scope only filters those verdicts.
        """
        open_source_only = scope is ContractScope.OPEN_SOURCE_ONLY
        return {
            address
            for address, category, open_source in self._same_creator_neighbours(query)
            if category >= threshold and (open_source or not open_source_only)
        }

    def evaluate(self, aggregation: str = "micro") -> tuple[list[ScenarioResult], list[str]]:
        """Score the six (scope, threshold) scenarios over all ground-truth contracts.

        Queries without a fingerprint (closed-source members) or without a
        ground-truth lineage are skipped with a diagnostic. micro aggregation
        pools tp/fp/fn; macro averages per-query precision/recall, ignoring
        queries where the metric is undefined.
        """
        if aggregation not in ("micro", "macro"):
            raise ValidationError(f"unknown aggregation: {aggregation!r}")
        diagnostics: list[str] = []
        queries: list[str] = []
        for address in sorted(self.membership):
            if address not in self.fingerprints:
                diagnostics.append(f"query {address} skipped: not fingerprintable")
                continue
            queries.append(address)

        results: list[ScenarioResult] = []
        for scope in DEFAULT_SCOPES:
            for threshold in DEFAULT_THRESHOLDS:
                tp = fp = fn = 0
                precisions: list[float] = []
                recalls: list[float] = []
                for query in queries:
                    truth = self.membership[query]
                    predicted = self.predicted_lineage(query, threshold, scope)
                    q_tp = len(predicted & truth)
                    q_fp = len(predicted - truth)
                    q_fn = len(truth - predicted)
                    tp, fp, fn = tp + q_tp, fp + q_fp, fn + q_fn
                    if q_tp + q_fp:
                        precisions.append(q_tp / (q_tp + q_fp))
                    if q_tp + q_fn:
                        recalls.append(q_tp / (q_tp + q_fn))
                if aggregation == "micro":
                    precision = tp / (tp + fp) if tp + fp else None
                    recall = tp / (tp + fn) if tp + fn else None
                else:
                    precision = sum(precisions) / len(precisions) if precisions else None
                    recall = sum(recalls) / len(recalls) if recalls else None
                results.append(
                    ScenarioResult(
                        contract_scope=scope,
                        threshold=threshold,
                        precision=precision,
                        recall=recall,
                        tp=tp,
                        fp=fp,
                        fn=fn,
                        aggregation=aggregation,
                    )
                )
        return results, diagnostics


def results_to_jsonable(results: list[ScenarioResult]) -> list[dict]:
    rows = []
    for r in results:
        rows.append({
            "contract_type": "open-source" if r.contract_scope is ContractScope.OPEN_SOURCE_ONLY else "all",
            "similarity_threshold": str(r.threshold),
            "precision_pct": None if r.precision is None else round(100.0 * r.precision, 10),
            "recall_pct": None if r.recall is None else round(100.0 * r.recall, 10),
            "tp": r.tp,
            "fp": r.fp,
            "fn": r.fn,
            "aggregation": r.aggregation,
        })
    return rows


def results_to_csv(results: list[ScenarioResult]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["contract_type", "similarity_threshold", "precision_pct", "recall_pct"])
    for row in results_to_jsonable(results):
        writer.writerow([
            row["contract_type"],
            row["similarity_threshold"],
            "" if row["precision_pct"] is None else f"{row['precision_pct']:.2f}",
            "" if row["recall_pct"] is None else f"{row['recall_pct']:.2f}",
        ])
    return buffer.getvalue()
