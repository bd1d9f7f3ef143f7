"""Run one proxylineage CLI command with span wrappers around each layer.

    python3 perfbench/traced_cli.py SPANS_OUT PASS_ID LABEL CLI_ARGS...

Behaves like ``proxylineage CLI_ARGS...`` (same exit code, same output), but
first replaces the public functions of each module with wrappers that
record a span (name, start, end, parent span, pass id) per call and add up
counts derived from the call's arguments and result. Spans stay in memory
and are written to SPANS_OUT as JSON when the command ends, also when it
raises.

A function imported with ``from .x import f`` is a separate binding in
every importing module, so each wrapper replaces every binding of the
original function across the ``proxylineage`` modules.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

perf = time.perf_counter

spans: list[list] = []  # [name, start, end, parent index]; written with the pass id
stack: list[int] = []
counts: dict[str, float] = {}
lexed: set[int] = set()
queries: set[str] = set()


def add(key: str, value: float = 1) -> None:
    counts[key] = counts.get(key, 0) + value


def wrap(fn, name: str | None, after=None):
    """A wrapper that records a span called `name` (None: no span) and,
    after the call returns, passes (args, kwargs, result) to `after`."""

    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        span = [name, perf(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            add(name + ".errors")
            raise
        finally:
            span[2] = perf()
            stack.pop()
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def install(module_name: str, attr: str, name: str | None, after=None) -> None:
    """Replace every binding of module_name.attr in the proxylineage modules."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapper = wrap(original, name, after)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.split(".")[0] == "proxylineage" and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)


def install_method(module_name: str, class_name: str, attr: str, name: str | None,
                   after=None) -> None:
    cls = getattr(importlib.import_module(module_name), class_name)
    setattr(cls, attr, wrap(getattr(cls, attr), name, after))


# --- counts derived at the span boundaries ------------------------------------

def _load_corpus(args, kwargs, corpus):
    add("corpus.events_kept", len(corpus.events))
    add("corpus.contracts", len(corpus.contracts))
    add("corpus.input_mb", sum(os.path.getsize(p) for p in args[:2]) / 2**20)


def _build_lineages(args, kwargs, result):
    lineages, diagnostics = result
    add("lineage.lineages", len(lineages))
    add("lineage.pairs", sum(len(l.versions) - 1 for l in lineages))
    for exclusion in diagnostics.exclusions:
        add("lineage.exclusions." + exclusion.reason.value)


def _lcs(args, kwargs, result):
    a, b = args[0], args[1]
    add("textmetrics.lcs_calls")
    add("textmetrics.lcs_cells", len(a) * len(b))
    if a == b:
        add("textmetrics.lcs_identical")


def _tokenize(args, kwargs, result):
    text = args[0]
    add("solidity.tokenize_calls")
    add("solidity.chars_lexed", len(text))
    lexed.add(hash(text))


def _emit(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs["out_dir"]
    for root, _dirs, files in os.walk(out):
        for filename in files:
            add("dataset.files_written")
            add("dataset.bytes_written", os.path.getsize(os.path.join(root, filename)))


def _evaluate(args, kwargs, result):
    rows, _diagnostics = result
    add("evaluation.scenarios", len(rows))
    by_cell = {(r.contract_scope.value, int(r.threshold)): (r.tp, r.fp, r.fn) for r in rows}
    for (scope, threshold), counts_ in by_cell.items():
        if scope == "OPEN_SOURCE_ONLY" and by_cell.get(("ALL", threshold)) == counts_:
            add("evaluation.identical_scope_rows")


def install_all() -> None:
    install("proxylineage.corpus", "load_corpus", "corpus.load", _load_corpus)
    install("proxylineage.corpus", "_event_from_obj", None,
            lambda a, k, r: add("corpus.events_read"))
    install("proxylineage.corpus", "write_corpus", "corpus.write")
    install("proxylineage.corpus", "upgrade_proxies", "corpus.upgrade_proxies")

    install("proxylineage.lineage", "build_lineages", "lineage.build", _build_lineages)

    install("proxylineage.pairing", "pair_files", "pairing.pair_files",
            lambda a, k, r: (add("pairing.pair_files_calls"), add("pairing.file_pairs", len(r.pairs))))
    install("proxylineage.pairing", "line_similarity", "pairing.similarity")
    install("proxylineage.pairing", "content_similarity", "pairing.similarity")
    install("proxylineage.pairing", "pair_functions", "pairing.pair_functions",
            lambda a, k, r: add("pairing.function_pairs", len(r.pairs)))
    install("proxylineage.textmetrics", "levenshtein", None,
            lambda a, k, r: add("pairing.levenshtein_calls"))

    install("proxylineage.textmetrics", "lcs_length", "textmetrics.lcs", _lcs)

    install("proxylineage.solidity", "tokenize", "solidity.tokenize", _tokenize)
    install("proxylineage.solidity", "extract_functions", "solidity.extract_functions",
            lambda a, k, r: add("solidity.functions", len(r)))

    # The package re-exports a function named `fingerprint`, which shadows the
    # submodule attribute; import_module returns the module itself.
    fp_module = "proxylineage.fingerprint"
    install(fp_module, "fingerprint", "fingerprint.fingerprint",
            lambda a, k, r: (add("fingerprint.contracts"), add("fingerprint.shingles", r.shingle_count)))
    install(fp_module, "minhash_signature", "fingerprint.minhash")
    install_method(fp_module, "LshIndex", "__init__", "fingerprint.index_build")
    install_method(fp_module, "LshIndex", "candidates", "fingerprint.candidates",
                   lambda a, k, r: (add("fingerprint.retrievals"),
                                    add("fingerprint.candidates_proposed", len(r))))
    install(fp_module, "compare", "fingerprint.compare",
            lambda a, k, r: add("fingerprint.compare_calls"))
    install(fp_module, "query_similar", None,
            lambda a, k, r: add("fingerprint.candidates_kept", len(r)))
    install(fp_module, "write_fingerprints", "fingerprint.io")
    install(fp_module, "read_fingerprints", "fingerprint.io")

    install_method("proxylineage.evaluation", "LineageEvaluator", "evaluate",
                   "evaluation.evaluate", _evaluate)
    install_method("proxylineage.evaluation", "LineageEvaluator", "predicted_lineage", None,
                   lambda a, k, r: queries.add(a[1]))

    install("proxylineage.lifecycle", "load_findings", "lifecycle.load_findings",
            lambda a, k, r: add("lifecycle.findings", len(r[0])))
    install("proxylineage.lifecycle", "diff_pair", "lifecycle.diff_pair",
            lambda a, k, r: add("lifecycle.records", len(r)))
    install("proxylineage.lifecycle", "lifecycle_stats", "lifecycle.stats")

    install("proxylineage.dataset", "build_bundle", "dataset.build_bundle")
    install("proxylineage.dataset", "emit_dataset", "dataset.emit", _emit)
    install("proxylineage.dataset", "load_bundle", "dataset.load_bundle")
    install("proxylineage.dataset", "compute_stats", "dataset.compute_stats")


def main() -> int:
    spans_out, pass_id, label = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[4:]
    import proxylineage.cli as cli

    install_all()
    root = [f"cli.{label}", perf(), 0.0, -1]
    spans.append(root)
    stack.append(0)
    try:
        return cli.main(cli_args)
    finally:
        root[2] = perf()
        counts["solidity.distinct_lexed"] = len(lexed)
        counts["evaluation.queries"] = len(queries)
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "counts": counts,
                       "spans": [[index[s[0]], s[1], s[2], s[3], pass_id] for s in spans]}, handle)


if __name__ == "__main__":
    sys.exit(main())
