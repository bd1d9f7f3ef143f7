"""Proxy-anchored smart-contract lineage mining and analysis.

Pipeline stages: load delegatecall traces and contract metadata into a
canonical corpus; classify each proxy's callees into chronologically ordered
lineages; pair versions at contract, file and function granularity; estimate
contract similarity with MinHash/LSH fingerprints and score similarity-based
lineage construction against the rule-based ground truth; and track
vulnerability-warning lifecycles across version pairs.

The public names below load lazily (PEP 562): importing the package loads
only ``_version``, and each name imports its submodule on first access.
"""

from importlib import import_module

from ._version import __version__

_EXPORTS = {
    "corpus": ("ContractRecord", "Corpus", "DEFAULT_UPGRADE_SIGNATURES", "SourceFile",
               "TraceEvent", "compute_selector", "load_corpus", "monitored_selectors",
               "upgrade_proxies", "write_corpus"),
    "dataset": ("DatasetBundle", "StatsReport", "build_bundle", "compute_stats", "emit_dataset",
                "load_bundle"),
    "errors": ("ConfigurationError", "FetchError", "IntegrityError", "NotFingerprintableError",
               "ParseError", "UnknownAddressError", "ValidationError"),
    "evaluation": ("ContractScope", "LineageEvaluator", "ScenarioResult"),
    "explorer": ("ExplorerClient", "RateLimiter", "fetch_contract", "fetch_contracts"),
    "fingerprint": ("Fingerprint", "LshIndex", "SimilarityCategory", "SimilarityVerdict",
                    "compare", "minhash_signature", "query_similar"),
    "keccak": ("keccak_256",),
    "lifecycle": ("Finding", "FindingKey", "LifecycleStatus", "diff_pair", "lifecycle_stats",
                  "load_findings"),
    "lineage": ("ActivityWindow", "ContractPair", "ExclusionReason", "Lineage",
                "LineageDiagnostics", "activity_windows", "build_lineages", "contract_pairs"),
    "pairing": ("FileMatch", "FilePair", "FilePairing", "FunctionPair",
                "FunctionPairing", "MatchKind", "line_similarity", "match_files", "pair_files",
                "pair_functions"),
    "solidity": ("FunctionUnit", "extract_functions", "tokenize"),
    "textmetrics": ("lcs_length", "levenshtein"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_SUBMODULE_OF)]


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

