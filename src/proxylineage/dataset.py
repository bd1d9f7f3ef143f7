"""Assemble, emit, reload and summarize the lineage dataset bundle.

The bundle is a directory of sorted-key JSON files plus a sources/ tree, laid
out so that identical inputs always produce byte-identical trees: the
manifest timestamp derives from the newest input timestamp rather than the
wall clock, and every collection is emitted in a canonical order.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from ._version import __version__
from .corpus import ContractRecord, Corpus, SourceFile, corpus_digests, validate_directory
from .errors import IntegrityError
from .lineage import (
    ActivityWindow,
    ContractPair,
    ExcludedCallee,
    ExclusionReason,
    Lineage,
    LineageDiagnostics,
    LineageVersion,
    build_lineages,
    contract_pairs,
)
from .pairing import FilePair, FilePairing, FunctionPair, MatchKind, pair_files, pair_functions
from .solidity import FunctionUnit, extract_functions

BUNDLE_VERSION = "1"

MANIFEST_FILE = "manifest.json"
CONTRACTS_FILE = "contracts.json"
LINEAGES_FILE = "lineages.json"
CONTRACT_PAIRS_FILE = "contract_pairs.json"
FILE_PAIRS_FILE = "file_pairs.json"
FUNCTION_PAIRS_FILE = "function_pairs.json"
DIAGNOSTICS_FILE = "diagnostics.json"
SOURCES_DIR = "sources"


@dataclass
class Manifest:
    version: str
    generated_at: str
    inputs: dict[str, str]


@dataclass(frozen=True)
class UnpairedFunction:
    directory: str
    predecessor_filename: str | None
    successor_filename: str | None
    side: str  # "predecessor" | "successor"
    name: str
    signature: str
    start_line: int
    end_line: int


@dataclass
class PairArtifacts:
    """Everything derived from one predecessor/successor contract pair."""

    pair: ContractPair
    file_pairing: FilePairing
    function_pairs: list[FunctionPair]
    unpaired_functions: list[UnpairedFunction]


@dataclass
class DatasetBundle:
    manifest: Manifest
    contracts: dict[str, ContractRecord]
    lineages: list[Lineage]
    pair_artifacts: list[PairArtifacts]
    corpus_diagnostics: list[str]
    lineage_diagnostics: LineageDiagnostics
    source_diagnostics: list[str]

    @property
    def pairs(self) -> list[ContractPair]:
        return [artifacts.pair for artifacts in self.pair_artifacts]

    @property
    def file_pairs(self) -> list[tuple[str, FilePair]]:
        return [
            (artifacts.pair.proxy, fp)
            for artifacts in self.pair_artifacts
            for fp in artifacts.file_pairing.pairs
        ]

    @property
    def function_pairs(self) -> list[tuple[str, FunctionPair]]:
        return [
            (artifacts.pair.proxy, fp)
            for artifacts in self.pair_artifacts
            for fp in artifacts.function_pairs
        ]


def derived_timestamp(corpus: Corpus) -> str:
    """Manifest timestamp from the newest input data point (reproducible)."""
    newest = 0
    for event in corpus.events:
        newest = max(newest, event.timestamp)
    for record in corpus.contracts.values():
        newest = max(newest, record.deploy_timestamp)
    return datetime.fromtimestamp(newest, tz=timezone.utc).isoformat().replace("+00:00", "Z")


def build_bundle(corpus: Corpus, input_digests: dict[str, str] | None = None) -> DatasetBundle:
    """Run the full lineage/pairing pipeline over a corpus."""
    lineages, lineage_diags = build_lineages(corpus)
    pairs = contract_pairs(lineages)

    member_addresses = sorted({v.address for l in lineages for v in l.versions})
    contracts = {address: corpus.contracts[address] for address in member_addresses}

    source_diagnostics: list[str] = []
    # A file shared unchanged across versions is extracted once per run; its
    # notes are still reported once per (address, file).
    extracted: dict[tuple[str, str, str], tuple[list[FunctionUnit], list[str]]] = {}
    reported: set[tuple[str, str, str]] = set()

    def functions_of(address: str, file: SourceFile) -> list[FunctionUnit]:
        content_key = (file.directory, file.filename, file.content)
        if content_key not in extracted:
            notes: list[str] = []
            extracted[content_key] = (extract_functions(file, notes), notes)
        units, notes = extracted[content_key]
        if (address, file.directory, file.filename) not in reported:
            reported.add((address, file.directory, file.filename))
            source_diagnostics.extend(f"{address} {file.directory}/{file.filename}: {n}"
                                      if file.directory else f"{address} {file.filename}: {n}"
                                      for n in notes)
        return units

    artifacts: list[PairArtifacts] = []
    for pair in pairs:
        pred = corpus.contracts[pair.predecessor]
        succ = corpus.contracts[pair.successor]
        pairing = pair_files(pred, succ)
        pred_files = {(f.directory, f.filename): f for f in pred.files}
        succ_files = {(f.directory, f.filename): f for f in succ.files}
        function_pair_list: list[FunctionPair] = []
        unpaired_functions: list[UnpairedFunction] = []
        for fp in pairing.pairs:
            pred_units = functions_of(pred.address, pred_files[(fp.directory, fp.predecessor_filename)])
            succ_units = functions_of(succ.address, succ_files[(fp.directory, fp.successor_filename)])
            function_pairing = pair_functions(fp, pred_units, succ_units)
            function_pair_list.extend(function_pairing.pairs)
            for unit in function_pairing.unpaired_predecessor:
                unpaired_functions.append(UnpairedFunction(
                    fp.directory, fp.predecessor_filename, fp.successor_filename,
                    "predecessor", unit.name, unit.signature, unit.start_line, unit.end_line))
            for unit in function_pairing.unpaired_successor:
                unpaired_functions.append(UnpairedFunction(
                    fp.directory, fp.predecessor_filename, fp.successor_filename,
                    "successor", unit.name, unit.signature, unit.start_line, unit.end_line))
        unpaired_functions.sort(key=lambda u: (u.directory, u.predecessor_filename or "",
                                               u.successor_filename or "", u.side,
                                               u.start_line, u.name))
        artifacts.append(PairArtifacts(
            pair=pair,
            file_pairing=pairing,
            function_pairs=function_pair_list,
            unpaired_functions=unpaired_functions,
        ))

    manifest = Manifest(
        version=BUNDLE_VERSION,
        generated_at=derived_timestamp(corpus),
        inputs=dict(sorted((input_digests or corpus_digests(corpus)).items())),
    )
    return DatasetBundle(
        manifest=manifest,
        contracts=contracts,
        lineages=lineages,
        pair_artifacts=artifacts,
        corpus_diagnostics=list(corpus.diagnostics),
        lineage_diagnostics=lineage_diags,
        source_diagnostics=source_diagnostics,
    )


# --- serialization -----------------------------------------------------------

def _window_obj(window: ActivityWindow) -> dict:
    return {"first_call": window.first_call, "last_call": window.last_call}


def _manifest_obj(bundle: DatasetBundle) -> dict:
    return {
        "bundle_version": bundle.manifest.version,
        "tool_version": __version__,
        "generated_at": bundle.manifest.generated_at,
        "inputs": bundle.manifest.inputs,
    }


def _contracts_obj(bundle: DatasetBundle) -> list[dict]:
    rows = []
    for address in sorted(bundle.contracts):
        record = bundle.contracts[address]
        rows.append({
            "address": record.address,
            "creator": record.creator,
            "deploy_timestamp": record.deploy_timestamp,
            "verified": record.verified,
            "open_source": record.open_source,
            "files": [{"directory": f.directory, "filename": f.filename}
                      for f in sorted(record.files, key=lambda f: (f.directory, f.filename))],
        })
    return rows


def _lineages_obj(bundle: DatasetBundle) -> list[dict]:
    return [
        {
            "proxy": lineage.proxy,
            "creator": lineage.creator,
            "versions": [
                {"address": v.address, **_window_obj(v.window)} for v in lineage.versions
            ],
        }
        for lineage in bundle.lineages
    ]


def _contract_pairs_obj(bundle: DatasetBundle) -> list[dict]:
    return [
        {
            "proxy": pair.proxy,
            "predecessor": pair.predecessor,
            "successor": pair.successor,
            "gap_days": pair.gap_days,
            "predecessor_window": _window_obj(pair.predecessor_window),
            "successor_window": _window_obj(pair.successor_window),
        }
        for pair in bundle.pairs
    ]


def _file_pairs_obj(bundle: DatasetBundle) -> list[dict]:
    return [
        {
            "proxy": proxy,
            "predecessor": fp.predecessor,
            "successor": fp.successor,
            "directory": fp.directory,
            "predecessor_filename": fp.predecessor_filename,
            "successor_filename": fp.successor_filename,
            "name_distance": fp.name_distance,
            "line_similarity": fp.line_similarity,
            "content_similarity": fp.content_similarity,
        }
        for proxy, fp in bundle.file_pairs
    ]


def _function_obj(unit: FunctionUnit) -> dict:
    return {
        "name": unit.name,
        "signature": unit.signature,
        "start_line": unit.start_line,
        "end_line": unit.end_line,
    }


def _function_pairs_obj(bundle: DatasetBundle) -> list[dict]:
    return [
        {
            "proxy": proxy,
            "predecessor": pair.file_pair.predecessor,
            "successor": pair.file_pair.successor,
            "directory": pair.file_pair.directory,
            "predecessor_filename": pair.file_pair.predecessor_filename,
            "successor_filename": pair.file_pair.successor_filename,
            "match_kind": pair.match_kind.value,
            "predecessor_function": _function_obj(pair.predecessor),
            "successor_function": _function_obj(pair.successor),
        }
        for proxy, pair in bundle.function_pairs
    ]


def _diagnostics_obj(bundle: DatasetBundle) -> dict:
    return {
        "corpus": list(bundle.corpus_diagnostics),
        "lineage_exclusions": [
            {"proxy": e.proxy, "callee": e.callee, "reason": e.reason.value}
            for e in bundle.lineage_diagnostics.exclusions
        ],
        "pairs": [
            {
                "proxy": artifacts.pair.proxy,
                "predecessor": artifacts.pair.predecessor,
                "successor": artifacts.pair.successor,
                "flag": artifacts.file_pairing.flag,
                "unpaired_predecessor_files": [
                    {"directory": d, "filename": n}
                    for d, n in artifacts.file_pairing.unpaired_predecessor
                ],
                "unpaired_successor_files": [
                    {"directory": d, "filename": n}
                    for d, n in artifacts.file_pairing.unpaired_successor
                ],
                "unpaired_functions": [
                    {
                        "directory": u.directory,
                        "predecessor_filename": u.predecessor_filename,
                        "successor_filename": u.successor_filename,
                        "side": u.side,
                        "name": u.name,
                        "signature": u.signature,
                        "start_line": u.start_line,
                        "end_line": u.end_line,
                    }
                    for u in artifacts.unpaired_functions
                ],
            }
            for artifacts in bundle.pair_artifacts
        ],
        "sources": list(bundle.source_diagnostics),
    }


def bundle_to_jsonable(bundle: DatasetBundle) -> dict:
    """Canonical JSON projection of the whole bundle (sans file contents)."""
    return {
        "manifest": _manifest_obj(bundle),
        "contracts": _contracts_obj(bundle),
        "lineages": _lineages_obj(bundle),
        "contract_pairs": _contract_pairs_obj(bundle),
        "file_pairs": _file_pairs_obj(bundle),
        "function_pairs": _function_pairs_obj(bundle),
        "diagnostics": _diagnostics_obj(bundle),
    }


def _check_integrity(bundle: DatasetBundle) -> None:
    members = {v.address for l in bundle.lineages for v in l.versions}
    if set(bundle.contracts) != members:
        raise IntegrityError("bundle contracts do not match lineage members")
    for artifacts in bundle.pair_artifacts:
        pair = artifacts.pair
        if pair.predecessor not in bundle.contracts or pair.successor not in bundle.contracts:
            raise IntegrityError(f"pair {pair.predecessor}->{pair.successor} references unknown contract")
        pred_files = {(f.directory, f.filename) for f in bundle.contracts[pair.predecessor].files}
        succ_files = {(f.directory, f.filename) for f in bundle.contracts[pair.successor].files}
        for fp in artifacts.file_pairing.pairs:
            if (fp.directory, fp.predecessor_filename) not in pred_files:
                raise IntegrityError(f"file pair references unknown predecessor file {fp.predecessor_filename}")
            if (fp.directory, fp.successor_filename) not in succ_files:
                raise IntegrityError(f"file pair references unknown successor file {fp.successor_filename}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def emit_dataset(bundle: DatasetBundle, out_dir: str | Path) -> None:
    """Write the bundle; identical bundles produce byte-identical trees."""
    _check_integrity(bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / MANIFEST_FILE, _manifest_obj(bundle))
    _write_json(out / CONTRACTS_FILE, _contracts_obj(bundle))
    _write_json(out / LINEAGES_FILE, _lineages_obj(bundle))
    _write_json(out / CONTRACT_PAIRS_FILE, _contract_pairs_obj(bundle))
    _write_json(out / FILE_PAIRS_FILE, _file_pairs_obj(bundle))
    _write_json(out / FUNCTION_PAIRS_FILE, _function_pairs_obj(bundle))
    _write_json(out / DIAGNOSTICS_FILE, _diagnostics_obj(bundle))

    sources_root = out / SOURCES_DIR
    if sources_root.exists():
        shutil.rmtree(sources_root)
    resolved_root = sources_root.resolve()
    for address in sorted(bundle.contracts):
        record = bundle.contracts[address]
        for file in sorted(record.files, key=lambda f: (f.directory, f.filename)):
            validate_directory(file.directory)
            target = sources_root / address
            if file.directory:
                target = target / Path(*file.directory.split("/"))
            target = target / file.filename
            if resolved_root not in target.resolve().parents:
                raise IntegrityError(f"source path escapes bundle: {file.directory}/{file.filename}")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(file.content, encoding="utf-8")


def load_bundle(bundle_dir: str | Path) -> DatasetBundle:
    """Reload an emitted bundle into the in-memory form."""
    root = Path(bundle_dir)
    manifest_obj = json.loads((root / MANIFEST_FILE).read_text(encoding="utf-8"))
    contracts_obj = json.loads((root / CONTRACTS_FILE).read_text(encoding="utf-8"))
    lineages_obj = json.loads((root / LINEAGES_FILE).read_text(encoding="utf-8"))
    pairs_obj = json.loads((root / CONTRACT_PAIRS_FILE).read_text(encoding="utf-8"))
    file_pairs_obj = json.loads((root / FILE_PAIRS_FILE).read_text(encoding="utf-8"))
    function_pairs_obj = json.loads((root / FUNCTION_PAIRS_FILE).read_text(encoding="utf-8"))
    diagnostics_obj = json.loads((root / DIAGNOSTICS_FILE).read_text(encoding="utf-8"))

    contracts: dict[str, ContractRecord] = {}
    for row in contracts_obj:
        files = []
        for file_row in row["files"]:
            directory, filename = file_row["directory"], file_row["filename"]
            source_path = root / SOURCES_DIR / row["address"]
            if directory:
                source_path = source_path / Path(*directory.split("/"))
            source_path = source_path / filename
            files.append(SourceFile(directory, filename, source_path.read_text(encoding="utf-8")))
        contracts[row["address"]] = ContractRecord(
            address=row["address"],
            creator=row["creator"],
            deploy_timestamp=row["deploy_timestamp"],
            verified=row["verified"],
            open_source=row["open_source"],
            files=tuple(sorted(files, key=lambda f: (f.directory, f.filename))),
        )

    lineages = [
        Lineage(
            proxy=row["proxy"],
            creator=row["creator"],
            versions=tuple(
                LineageVersion(v["address"], ActivityWindow(v["first_call"], v["last_call"]))
                for v in row["versions"]
            ),
        )
        for row in lineages_obj
    ]

    pairs_by_id: dict[tuple, ContractPair] = {}
    pair_order: list[tuple] = []
    for row in pairs_obj:
        pair = ContractPair(
            proxy=row["proxy"],
            predecessor=row["predecessor"],
            successor=row["successor"],
            gap_days=row["gap_days"],
            predecessor_window=ActivityWindow(**row["predecessor_window"]),
            successor_window=ActivityWindow(**row["successor_window"]),
        )
        pair_id = (pair.proxy, pair.predecessor, pair.successor)
        pairs_by_id[pair_id] = pair
        pair_order.append(pair_id)

    file_pairs_by_id: dict[tuple, list[FilePair]] = {pid: [] for pid in pair_order}
    file_pair_lookup: dict[tuple, FilePair] = {}
    for row in file_pairs_obj:
        pair_id = (row["proxy"], row["predecessor"], row["successor"])
        fp = FilePair(
            predecessor=row["predecessor"],
            successor=row["successor"],
            directory=row["directory"],
            predecessor_filename=row["predecessor_filename"],
            successor_filename=row["successor_filename"],
            name_distance=row["name_distance"],
            line_similarity=row["line_similarity"],
            content_similarity=row["content_similarity"],
        )
        file_pairs_by_id[pair_id].append(fp)
        file_pair_lookup[(pair_id, fp.directory, fp.predecessor_filename, fp.successor_filename)] = fp

    function_pairs_by_id: dict[tuple, list[FunctionPair]] = {pid: [] for pid in pair_order}
    for row in function_pairs_obj:
        pair_id = (row["proxy"], row["predecessor"], row["successor"])
        fp = file_pair_lookup[(pair_id, row["directory"], row["predecessor_filename"],
                               row["successor_filename"])]
        pred_fn = row["predecessor_function"]
        succ_fn = row["successor_function"]
        function_pairs_by_id[pair_id].append(FunctionPair(
            file_pair=fp,
            predecessor=FunctionUnit(
                name=pred_fn["name"], signature=pred_fn["signature"], body="",
                directory=row["directory"], filename=row["predecessor_filename"],
                start_line=pred_fn["start_line"], end_line=pred_fn["end_line"],
            ),
            successor=FunctionUnit(
                name=succ_fn["name"], signature=succ_fn["signature"], body="",
                directory=row["directory"], filename=row["successor_filename"],
                start_line=succ_fn["start_line"], end_line=succ_fn["end_line"],
            ),
            match_kind=MatchKind(row["match_kind"]),
        ))

    artifacts_by_id: dict[tuple, PairArtifacts] = {}
    for row in diagnostics_obj["pairs"]:
        pair_id = (row["proxy"], row["predecessor"], row["successor"])
        artifacts_by_id[pair_id] = PairArtifacts(
            pair=pairs_by_id[pair_id],
            file_pairing=FilePairing(
                pairs=file_pairs_by_id[pair_id],
                unpaired_predecessor=[(f["directory"], f["filename"])
                                      for f in row["unpaired_predecessor_files"]],
                unpaired_successor=[(f["directory"], f["filename"])
                                    for f in row["unpaired_successor_files"]],
                flag=row["flag"],
            ),
            function_pairs=function_pairs_by_id[pair_id],
            unpaired_functions=[
                UnpairedFunction(
                    directory=u["directory"],
                    predecessor_filename=u["predecessor_filename"],
                    successor_filename=u["successor_filename"],
                    side=u["side"],
                    name=u["name"],
                    signature=u["signature"],
                    start_line=u["start_line"],
                    end_line=u["end_line"],
                )
                for u in row["unpaired_functions"]
            ],
        )

    return DatasetBundle(
        manifest=Manifest(
            version=manifest_obj["bundle_version"],
            generated_at=manifest_obj["generated_at"],
            inputs=manifest_obj["inputs"],
        ),
        contracts=contracts,
        lineages=lineages,
        pair_artifacts=[artifacts_by_id[pid] for pid in pair_order],
        corpus_diagnostics=diagnostics_obj["corpus"],
        lineage_diagnostics=LineageDiagnostics(exclusions=[
            ExcludedCallee(e["proxy"], e["callee"], ExclusionReason(e["reason"]))
            for e in diagnostics_obj["lineage_exclusions"]
        ]),
        source_diagnostics=diagnostics_obj["sources"],
    )


# --- summary statistics ------------------------------------------------------

@dataclass
class StatsReport:
    """Dataset-level summary; ratio fields are None when the denominator is zero."""

    lineage_count: int
    distinct_creator_count: int
    contract_pair_count: int
    contract_count: int
    open_source_pct: float | None
    solidity_file_count: int
    updated_file_pct: float | None
    file_pair_count: int
    average_gap_days: float | None
    files_in_pairs_pct: float | None
    average_line_similarity: float | None
    average_content_similarity: float | None
    high_similarity_file_pair_pct: float | None
    function_pair_count: int
    lineage_size_histogram: dict[int, int]


def compute_stats(bundle: DatasetBundle) -> StatsReport:
    """Compute the dataset summary metrics.

    "Updated files" are file pairs whose line similarity is below 1.0.
    "Files in pairs" is the share of files, among open-source contracts that
    participate in at least one open-source-to-open-source pair, that appear
    in at least one file pair.
    """
    lineages = bundle.lineages
    pairs = bundle.pairs
    members = sorted({v.address for l in lineages for v in l.versions})
    open_source_members = [a for a in members if bundle.contracts[a].open_source]

    histogram: dict[int, int] = {}
    for lineage in lineages:
        size = len(lineage.versions)
        histogram[size] = histogram.get(size, 0) + 1

    file_pair_rows = [fp for _, fp in bundle.file_pairs]
    updated = sum(1 for fp in file_pair_rows if fp.line_similarity < 1.0)
    high_similarity = sum(1 for fp in file_pair_rows if fp.line_similarity >= 0.90)

    paired_open_source: set[str] = set()
    for pair in pairs:
        pred = bundle.contracts[pair.predecessor]
        succ = bundle.contracts[pair.successor]
        if pred.open_source and succ.open_source:
            paired_open_source.update((pair.predecessor, pair.successor))
    eligible_files: set[tuple[str, str, str]] = set()
    for address in paired_open_source:
        for file in bundle.contracts[address].files:
            eligible_files.add((address, file.directory, file.filename))
    covered_files: set[tuple[str, str, str]] = set()
    for _, fp in bundle.file_pairs:
        covered_files.add((fp.predecessor, fp.directory, fp.predecessor_filename))
        covered_files.add((fp.successor, fp.directory, fp.successor_filename))
    covered_files &= eligible_files

    def pct(numerator: int, denominator: int) -> float | None:
        return 100.0 * numerator / denominator if denominator else None

    def mean(values: list[float]) -> float | None:
        return sum(values) / len(values) if values else None

    return StatsReport(
        lineage_count=len(lineages),
        distinct_creator_count=len({l.creator for l in lineages}),
        contract_pair_count=len(pairs),
        contract_count=len(members),
        open_source_pct=pct(len(open_source_members), len(members)),
        solidity_file_count=sum(len(bundle.contracts[a].files) for a in open_source_members),
        updated_file_pct=pct(updated, len(file_pair_rows)),
        file_pair_count=len(file_pair_rows),
        average_gap_days=mean([p.gap_days for p in pairs]),
        files_in_pairs_pct=pct(len(covered_files), len(eligible_files)),
        average_line_similarity=mean([fp.line_similarity for fp in file_pair_rows]),
        average_content_similarity=mean([fp.content_similarity for fp in file_pair_rows]),
        high_similarity_file_pair_pct=pct(high_similarity, len(file_pair_rows)),
        function_pair_count=len(bundle.function_pairs),
        lineage_size_histogram=histogram,
    )


def stats_to_jsonable(report: StatsReport) -> dict:
    return {
        "lineage_count": report.lineage_count,
        "distinct_creator_count": report.distinct_creator_count,
        "contract_pair_count": report.contract_pair_count,
        "contract_count": report.contract_count,
        "open_source_pct": report.open_source_pct,
        "solidity_file_count": report.solidity_file_count,
        "updated_file_pct": report.updated_file_pct,
        "file_pair_count": report.file_pair_count,
        "average_gap_days": report.average_gap_days,
        "files_in_pairs_pct": report.files_in_pairs_pct,
        "average_line_similarity": report.average_line_similarity,
        "average_content_similarity": report.average_content_similarity,
        "high_similarity_file_pair_pct": report.high_similarity_file_pair_pct,
        "function_pair_count": report.function_pair_count,
        "lineage_size_histogram": {str(k): v for k, v in sorted(report.lineage_size_histogram.items())},
    }


def stats_to_csv(report: StatsReport) -> str:
    import csv as _csv
    import io

    buffer = io.StringIO()
    writer = _csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value"])
    jsonable = stats_to_jsonable(report)
    histogram = jsonable.pop("lineage_size_histogram")
    for key, value in jsonable.items():
        writer.writerow([key, "" if value is None else value])
    for size, count in histogram.items():
        writer.writerow([f"lineage_size_histogram[{size}]", count])
    return buffer.getvalue()
