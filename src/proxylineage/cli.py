"""Command-line entry point for the lineage pipeline.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from ._version import __version__
from .errors import ConfigurationError, FetchError, UnknownAddressError, ValidationError

# Each command imports the modules it uses in its own body, so that a command
# loads only what it reads. Option choices and defaults are literals for the
# same reason; tests pin them to the library's constants.


def ingest(args):
    """Validate fixtures and write the canonical corpus plus diagnostics."""
    from .corpus import (DEFAULT_UPGRADE_SIGNATURES, load_corpus, missing_metadata_note,
                         monitored_selectors, upgrade_proxies, write_corpus, write_json)

    signatures = args.upgrade_signatures or list(DEFAULT_UPGRADE_SIGNATURES)
    # a malformed signature fails before anything is read
    selectors = monitored_selectors(signatures)
    if args.explorer_url and not args.cache_dir:
        raise ConfigurationError("--explorer-url requires --cache-dir")
    if args.cache_dir and not args.explorer_url:
        raise ConfigurationError("--cache-dir requires --explorer-url")
    corpus = load_corpus(args.traces_path, args.contracts_path)
    if args.explorer_url:
        from .explorer import ExplorerClient, fetch_contracts

        missing = sorted({e.callee_address for e in corpus.events} - set(corpus.contracts))
        client = ExplorerClient(args.explorer_url)
        records, failures = fetch_contracts(missing, args.cache_dir, client)
        corpus.contracts.update(records)
        resolved = set(map(missing_metadata_note, records))
        corpus.diagnostics[:] = [d for d in corpus.diagnostics if d not in resolved]
        for address, reason in sorted(failures.items()):
            corpus.diagnostics.append(f"explorer: fetch failed for {address}: {reason}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, out / "traces.ndjson", out / "contracts.ndjson")
    write_json(out / "diagnostics.json", {
        "diagnostics": corpus.diagnostics,
        "upgrade_signatures": signatures,
        "upgrade_proxies": upgrade_proxies(corpus, signatures, selectors),
    })
    print(f"ingested {len(corpus.events)} events, {len(corpus.contracts)} contracts -> {out}")


def build_lineages_command(args):
    """Apply the classification rules and write lineages plus diagnostics."""
    from .corpus import load_corpus, write_json
    from .lineage import build_lineages, lineage_diagnostics_obj, lineage_rows

    corpus = load_corpus(args.traces_path, args.contracts_path)
    lineages, diagnostics = build_lineages(corpus)
    corpus_diagnostics = corpus.diagnostics
    del corpus  # free the events before the reports are rendered
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "lineages.json", lineage_rows(lineages))
    write_json(out / "diagnostics.json", lineage_diagnostics_obj(corpus_diagnostics, diagnostics))
    print(f"built {len(lineages)} lineages ({len(diagnostics.exclusions)} exclusions) -> {out}")


def fingerprint_command(args):
    """Fingerprint every open-source contract into an NDJSON file."""
    from .corpus import load_corpus
    from .fingerprint import check_signature_length, fingerprint_contracts, write_fingerprints

    check_signature_length(args.k)
    corpus = load_corpus(args.traces_path, args.contracts_path)
    fingerprints = fingerprint_contracts(corpus.contracts, args.k, args.seed)
    write_fingerprints(args.out_path, fingerprints.values())
    print(f"wrote {len(fingerprints)} fingerprints -> {args.out_path}")


def evaluate_lsh(args):
    """Score similarity-predicted lineages against the rule-based ground truth in all six
    (scope, threshold) scenarios."""
    from .corpus import json_text, load_corpus
    from .evaluation import LineageEvaluator, results_to_csv, results_to_jsonable
    from .fingerprint import fingerprint_contracts, read_fingerprints
    from .lineage import build_lineages

    # a file, read before the corpus, sets k and seed; without one, the library defaults do
    fingerprints = read_fingerprints(args.fingerprints_path) if args.fingerprints_path else None
    corpus = load_corpus(args.traces_path, args.contracts_path)
    lineages, _ = build_lineages(corpus)
    if fingerprints is None:
        fingerprints = fingerprint_contracts(corpus.contracts)
    evaluator = LineageEvaluator(corpus, lineages, fingerprints)
    results, diagnostics = evaluator.evaluate(aggregation=args.aggregation)
    rendered = (results_to_csv(results) if args.output_format == "csv"
                else json_text(results_to_jsonable(results)))
    if args.out_path:
        Path(args.out_path).write_text(rendered, encoding="utf-8")
    sys.stdout.write(rendered)
    for note in diagnostics:
        print(f"note: {note}", file=sys.stderr)


def vuln_lifecycle(args):
    """Diff findings across every contract pair and summarize their lifecycles."""
    from .corpus import load_corpus, write_json
    from .lifecycle import diff_pair, lifecycle_stats, load_category_map, load_findings
    from .lineage import build_lineages, contract_pairs
    from .pairing import match_files

    corpus = load_corpus(args.traces_path, args.contracts_path)
    lineages, _ = build_lineages(corpus)
    pairs = contract_pairs(lineages)

    findings = []
    diagnostics = []
    for findings_path in args.findings_paths:
        loaded, notes = load_findings(findings_path, corpus)
        findings.extend(loaded)
        diagnostics.extend(f"{findings_path}: {note}" for note in notes)

    by_contract: dict[str, list] = {}
    for finding in findings:
        by_contract.setdefault(finding.contract, []).append(finding)

    diffs = {}
    for pair_ in pairs:
        pred = corpus.contracts[pair_.predecessor]
        succ = corpus.contracts[pair_.successor]
        diffs[pair_] = diff_pair(match_files(pred, succ).pairs,
                                 by_contract.get(pair_.predecessor, []),
                                 by_contract.get(pair_.successor, []))

    category_map = load_category_map(args.category_map_path) if args.category_map_path else None
    summary = lifecycle_stats(diffs, mode=args.mode, category_map=category_map)
    write_json(args.out_path, {"summary": summary, "diagnostics": diagnostics})
    print(f"classified {summary['findings']['total']} findings across "
          f"{len(pairs)} pairs -> {args.out_path}")


def stats(args):
    """Summarize an emitted dataset bundle."""
    from .corpus import json_text
    from .dataset import compute_stats, load_bundle, stats_to_csv, stats_to_jsonable

    bundle = load_bundle(args.bundle_dir)
    report = compute_stats(bundle)
    rendered = (stats_to_csv(report) if args.output_format == "csv"
                else json_text(stats_to_jsonable(report)))
    if args.out_path:
        Path(args.out_path).write_text(rendered, encoding="utf-8")
    sys.stdout.write(rendered)


def emit(args):
    """Run the full pipeline and emit the dataset bundle."""
    from .corpus import load_corpus
    from .dataset import build_bundle, emit_dataset

    bundle = build_bundle(load_corpus(args.traces_path, args.contracts_path))
    emit_dataset(bundle, args.out_dir)
    print(f"emitted bundle with {len(bundle.lineages)} lineages -> {args.out_dir}")


class _UsageError(Exception):
    """A command line argparse rejected, with the usage line of the parser that rejected it."""

    def __init__(self, usage: str, message: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so that main exits 1 rather than argparse's 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(self.format_usage(), message)


def _add_path(parser, *names, kind: str, exists: bool = False, **kwargs) -> None:
    """Add a path argument of `kind` "file" or "directory": its value may not
    name the other kind, and with `exists` it must name something."""
    wrong_kind = os.path.isdir if kind == "file" else os.path.isfile

    def check(value: str) -> str:
        if exists and not os.path.exists(value):
            raise argparse.ArgumentTypeError(f"{kind} {value!r} does not exist")
        if wrong_kind(value):
            other = "directory" if kind == "file" else "file"
            raise argparse.ArgumentTypeError(f"{kind} {value!r} is a {other}")
        return value

    kwargs.setdefault("metavar", kind.upper())
    parser.add_argument(*names, type=check, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; main builds it per call, so importing the module stays cheap."""
    parser = _Parser(prog="proxylineage", description=(
        "Mine proxy-anchored smart-contract lineages from delegatecall traces."))
    parser.add_argument("--version", action="version",
                        version=f"proxylineage, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run, corpus=True):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        if corpus:
            _add_path(sub, "--traces", dest="traces_path", kind="file", exists=True,
                      required=True, help="Trace fixture (NDJSON of delegatecall events).")
            _add_path(sub, "--contracts", dest="contracts_path", kind="file", exists=True,
                      required=True, help="Contract fixture (NDJSON of contract records).")
        return sub

    sub = command("ingest", ingest)
    _add_path(sub, "--out", dest="out_dir", kind="directory", required=True,
              help="Directory for the canonical corpus.")
    _add_path(sub, "--cache-dir", kind="directory",
              help="On-disk cache for explorer fetches (requires --explorer-url).")
    sub.add_argument("--explorer-url", metavar="URL",
                     help="Fetch metadata for unresolved callees from this explorer API "
                          "(requires --cache-dir).")
    sub.add_argument("--upgrade-signature", dest="upgrade_signatures", action="append",
                     metavar="SIGNATURE",
                     help="Monitored upgrade signature (repeatable; defaults to "
                          "upgradeTo(address) and upgradeToAndCall(address,bytes)).")

    _add_path(command("build-lineages", build_lineages_command), "--out", dest="out_dir",
              kind="directory", required=True)

    sub = command("fingerprint", fingerprint_command)
    _add_path(sub, "--out", dest="out_path", kind="file", required=True)
    sub.add_argument("--k", type=int, default=256, help="Signature length (default: %(default)s).")
    sub.add_argument("--seed", type=int, default=0, help="Hash seed (default: %(default)s).")

    sub = command("evaluate-lsh", evaluate_lsh)
    _add_path(sub, "--out", dest="out_path", kind="file",
              help="Write the scenario table here (default: stdout only).")
    sub.add_argument("--format", dest="output_format", choices=["json", "csv"], default="json",
                     help="default: %(default)s")
    sub.add_argument("--aggregation", choices=["micro", "macro"], default="micro",
                     help="default: %(default)s")
    _add_path(sub, "--fingerprints", dest="fingerprints_path", kind="file", exists=True,
              help="Take fingerprints, k and seed from this `fingerprint` output "
                   "(default: fingerprint here at k 256, seed 0).")

    sub = command("vuln-lifecycle", vuln_lifecycle)
    _add_path(sub, "--findings", dest="findings_paths", kind="file", exists=True,
              action="append", required=True,
              help="Findings report (repeat for multiple tools).")
    sub.add_argument("--mode", choices=["union", "intersection"], default="union",
                     help="default: %(default)s")
    _add_path(sub, "--category-map", dest="category_map_path", kind="file", exists=True,
              help="JSON mapping tool -> vuln_type -> shared category.")
    _add_path(sub, "--out", dest="out_path", kind="file", required=True)

    sub = command("stats", stats, corpus=False)
    _add_path(sub, "bundle_dir", kind="directory", exists=True, metavar="BUNDLE_DIR")
    sub.add_argument("--format", dest="output_format", choices=["json", "csv"], default="json",
                     help="default: %(default)s")
    _add_path(sub, "--out", dest="out_path", kind="file")

    _add_path(command("emit", emit), "--out", dest="out_dir", kind="directory", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    The records a command builds hold no reference cycles, so the collector
    would only rescan them; a command leaves the same small amount of cyclic
    garbage (its parser) whatever its input size. The caller's collector
    setting is restored on every exit.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{exc.usage}error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and --version print, then exit 0
        return exc.code
    try:
        args.run(args)
    except (ValidationError, ConfigurationError, UnknownAddressError, FetchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
