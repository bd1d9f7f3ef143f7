"""Command-line entry point for the lineage pipeline.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from ._version import __version__
from .errors import ConfigurationError, FetchError, UnknownAddressError, ValidationError

# Each command imports the modules it uses in its own body, so that a command
# loads only what it reads. Option choices and defaults are literals for the
# same reason; tests pin them to the library's constants.


def _corpus_options(command):
    command = click.option("--traces", "traces_path", required=True,
                           type=click.Path(exists=True, dir_okay=False),
                           help="Trace fixture (NDJSON of delegatecall events).")(command)
    command = click.option("--contracts", "contracts_path", required=True,
                           type=click.Path(exists=True, dir_okay=False),
                           help="Contract fixture (NDJSON of contract records).")(command)
    return command


@click.group(name="proxylineage")
@click.version_option(version=__version__)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for all randomized components (fingerprint hashing).")
@click.pass_context
def cli(ctx, seed: int):
    """Mine proxy-anchored smart-contract lineages from delegatecall traces."""
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed


@cli.command()
@_corpus_options
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False),
              help="Directory for the canonical corpus.")
@click.option("--cache-dir", type=click.Path(file_okay=False),
              help="On-disk cache for explorer fetches.")
@click.option("--allow-network", is_flag=True,
              help="Fetch metadata for unresolved callees from the explorer API.")
@click.option("--explorer-url", help="Base URL of the explorer API.")
@click.option("--upgrade-signature", "upgrade_signatures", multiple=True,
              help="Monitored upgrade signature (repeatable; defaults to "
                   "upgradeTo(address) and upgradeToAndCall(address,bytes)).")
def ingest(traces_path, contracts_path, out_dir, cache_dir, allow_network,
           explorer_url, upgrade_signatures):
    """Validate fixtures and write the canonical corpus plus diagnostics."""
    from .corpus import (DEFAULT_UPGRADE_SIGNATURES, load_corpus, upgrade_proxies, write_corpus,
                         write_json)

    corpus = load_corpus(traces_path, contracts_path)
    if allow_network:
        if not explorer_url or not cache_dir:
            raise ConfigurationError("--allow-network requires --explorer-url and --cache-dir")
        from .explorer import ExplorerClient, fetch_contracts

        missing = sorted({e.callee_address for e in corpus.events} - set(corpus.contracts))
        client = ExplorerClient(explorer_url)
        records, failures = fetch_contracts(missing, cache_dir, client)
        corpus.contracts.update(records)
        corpus.diagnostics = [
            d for d in corpus.diagnostics if not d.startswith("contracts: no metadata")
        ]
        for callee in sorted({e.callee_address for e in corpus.events} - set(corpus.contracts)):
            corpus.diagnostics.append(f"contracts: no metadata for callee {callee}")
        for address, reason in sorted(failures.items()):
            corpus.diagnostics.append(f"explorer: fetch failed for {address}: {reason}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, out / "traces.ndjson", out / "contracts.ndjson")
    signatures = list(upgrade_signatures) or list(DEFAULT_UPGRADE_SIGNATURES)
    write_json(out / "diagnostics.json", {
        "diagnostics": corpus.diagnostics,
        "upgrade_signatures": signatures,
        "upgrade_proxies": upgrade_proxies(corpus, signatures),
    })
    click.echo(f"ingested {len(corpus.events)} events, {len(corpus.contracts)} contracts -> {out}")


@cli.command(name="build-lineages")
@_corpus_options
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def build_lineages_command(traces_path, contracts_path, out_dir):
    """Apply the classification rules and write lineages plus diagnostics."""
    from .corpus import load_corpus, write_json
    from .dataset import lineage_diagnostics_obj, lineage_rows
    from .lineage import build_lineages

    corpus = load_corpus(traces_path, contracts_path)
    lineages, diagnostics = build_lineages(corpus)
    corpus_diagnostics = corpus.diagnostics
    del corpus  # free the events before the reports are rendered
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "lineages.json", lineage_rows(lineages))
    write_json(out / "diagnostics.json", lineage_diagnostics_obj(corpus_diagnostics, diagnostics))
    click.echo(f"built {len(lineages)} lineages "
               f"({len(diagnostics.exclusions)} exclusions) -> {out}")


@cli.command()
@_corpus_options
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def pair(traces_path, contracts_path, out_dir):
    """Pair contracts, files and functions; write the three pair tables."""
    from .corpus import write_json
    from .dataset import bundle_to_jsonable

    bundle = _bundle_from(traces_path, contracts_path)
    tables = bundle_to_jsonable(bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for table in ("contract_pairs", "file_pairs", "function_pairs", "diagnostics"):
        write_json(out / f"{table}.json", tables[table])
    click.echo(f"paired {len(bundle.pairs)} contract pairs, "
               f"{len(bundle.file_pairs)} file pairs, "
               f"{len(bundle.function_pairs)} function pairs -> {out}")


@cli.command(name="fingerprint")
@_corpus_options
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--k", "k", type=int, default=256, show_default=True,
              help="Signature length.")
@click.pass_context
def fingerprint_command(ctx, traces_path, contracts_path, out_path, k):
    """Fingerprint every open-source contract into an NDJSON file."""
    from .corpus import load_corpus
    from .fingerprint import check_signature_length, fingerprint_contracts, write_fingerprints

    check_signature_length(k)
    corpus = load_corpus(traces_path, contracts_path)
    fingerprints = fingerprint_contracts(corpus.contracts, k, ctx.obj["seed"])
    write_fingerprints(out_path, fingerprints)
    click.echo(f"wrote {len(fingerprints)} fingerprints -> {out_path}")


@cli.command(name="evaluate-lsh")
@_corpus_options
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="Write the scenario table here (default: stdout only).")
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--threshold", type=click.Choice(["low", "medium", "high", "all"]),
              default="all", show_default=True)
@click.option("--scope", type=click.Choice(["open-source", "all", "both"]),
              default="both", show_default=True)
@click.option("--aggregation", type=click.Choice(["micro", "macro"]),
              default="micro", show_default=True)
@click.option("--k", "k", type=int, default=256, show_default=True)
@click.option("--fingerprints", "fingerprints_path",
              type=click.Path(exists=True, dir_okay=False),
              help="Reuse fingerprints from a previous `fingerprint` run.")
@click.pass_context
def evaluate_lsh(ctx, traces_path, contracts_path, out_path, output_format,
                 threshold, scope, aggregation, k, fingerprints_path):
    """Score similarity-predicted lineages against the rule-based ground truth."""
    from .corpus import json_text, load_corpus
    from .evaluation import (DEFAULT_SCOPES, DEFAULT_THRESHOLDS, ContractScope, LineageEvaluator,
                             results_to_csv, results_to_jsonable)
    from .fingerprint import SimilarityCategory, check_signature_length, read_fingerprints
    from .lineage import build_lineages

    check_signature_length(k)
    corpus = load_corpus(traces_path, contracts_path)
    lineages, _ = build_lineages(corpus)
    thresholds = (DEFAULT_THRESHOLDS if threshold == "all"
                  else [SimilarityCategory.from_name(threshold)])
    scopes = {
        "open-source": [ContractScope.OPEN_SOURCE_ONLY],
        "all": [ContractScope.ALL],
        "both": DEFAULT_SCOPES,
    }[scope]
    seed = ctx.obj["seed"]
    prebuilt = read_fingerprints(fingerprints_path, k, seed) if fingerprints_path else None
    evaluator = LineageEvaluator(corpus, lineages, k=k, seed=seed, fingerprints=prebuilt)
    results, diagnostics = evaluator.evaluate(thresholds=thresholds, scopes=scopes,
                                              aggregation=aggregation)
    rendered = (results_to_csv(results) if output_format == "csv"
                else json_text(results_to_jsonable(results)))
    if out_path:
        Path(out_path).write_text(rendered, encoding="utf-8")
    click.echo(rendered, nl=False)
    for note in diagnostics:
        click.echo(f"note: {note}", err=True)


@cli.command(name="vuln-lifecycle")
@_corpus_options
@click.option("--findings", "findings_paths", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Findings report (repeat for multiple tools).")
@click.option("--mode", type=click.Choice(["union", "intersection"]), default="union",
              show_default=True)
@click.option("--category-map", "category_map_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON mapping tool -> vuln_type -> shared category.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def vuln_lifecycle(traces_path, contracts_path, findings_paths, mode,
                   category_map_path, out_path):
    """Diff findings across every contract pair and summarize their lifecycles."""
    from .corpus import load_corpus, write_json
    from .lifecycle import diff_pair, lifecycle_stats, load_category_map, load_findings
    from .lineage import build_lineages, contract_pairs
    from .pairing import match_files

    corpus = load_corpus(traces_path, contracts_path)
    lineages, _ = build_lineages(corpus)
    pairs = contract_pairs(lineages)

    findings = []
    diagnostics = []
    for findings_path in findings_paths:
        loaded, notes = load_findings(findings_path, corpus)
        findings.extend(loaded)
        diagnostics.extend(f"{findings_path}: {note}" for note in notes)

    by_contract: dict[str, list] = {}
    for finding in findings:
        by_contract.setdefault(finding.contract, []).append(finding)

    records = []
    for pair_ in pairs:
        pred = corpus.contracts[pair_.predecessor]
        succ = corpus.contracts[pair_.successor]
        records.extend(diff_pair(
            pair_,
            match_files(pred, succ).pairs,
            by_contract.get(pair_.predecessor, []),
            by_contract.get(pair_.successor, []),
        ))

    category_map = load_category_map(category_map_path) if category_map_path else None
    summary = lifecycle_stats(records, mode=mode, category_map=category_map)
    write_json(out_path, {"summary": summary, "diagnostics": diagnostics})
    click.echo(f"classified {summary['findings']['total']} findings across "
               f"{len(pairs)} pairs -> {out_path}")


@cli.command()
@click.argument("bundle_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def stats(bundle_dir, output_format, out_path):
    """Summarize an emitted dataset bundle."""
    from .corpus import json_text
    from .dataset import compute_stats, load_bundle, stats_to_csv, stats_to_jsonable

    bundle = load_bundle(bundle_dir)
    report = compute_stats(bundle)
    rendered = stats_to_csv(report) if output_format == "csv" else json_text(stats_to_jsonable(report))
    if out_path:
        Path(out_path).write_text(rendered, encoding="utf-8")
    click.echo(rendered, nl=False)


@cli.command()
@_corpus_options
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def emit(traces_path, contracts_path, out_dir):
    """Run the full pipeline and emit the dataset bundle."""
    from .dataset import emit_dataset

    bundle = _bundle_from(traces_path, contracts_path)
    emit_dataset(bundle, out_dir)
    click.echo(f"emitted bundle with {len(bundle.lineages)} lineages -> {out_dir}")


def _bundle_from(traces_path, contracts_path):
    from .corpus import load_corpus, sha256_file
    from .dataset import build_bundle

    corpus = load_corpus(traces_path, contracts_path)
    digests = {"traces": sha256_file(traces_path), "contracts": sha256_file(contracts_path)}
    return build_bundle(corpus, input_digests=digests)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, prog_name="proxylineage", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ValidationError, ConfigurationError, UnknownAddressError, FetchError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
