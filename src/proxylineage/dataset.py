"""Assemble, emit, reload and summarize the lineage dataset bundle.

The bundle is a directory of sorted-key JSON files plus a sources/ tree, laid
out so that identical inputs always produce byte-identical trees: the
manifest timestamp derives from the newest input timestamp rather than the
wall clock, and every collection is emitted in a canonical order.
"""

from __future__ import annotations

import functools
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from enum import EnumMeta
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import get_type_hints

from ._version import __version__
from .corpus import (ContractRecord, Corpus, SourceFile, _utf8, corpus_digests, read_json,
                     validate_directory, write_json)
from .errors import IntegrityError, ParseError, ValidationError
from .lineage import (
    ActivityWindow,
    ContractPair,
    ExcludedCallee,
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
    bundle_version: str
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
            for side, units in (("predecessor", function_pairing.unpaired_predecessor),
                                ("successor", function_pairing.unpaired_successor)):
                unpaired_functions.extend(
                    UnpairedFunction(fp.directory, fp.predecessor_filename, fp.successor_filename,
                                     side, unit.name, unit.signature, unit.start_line, unit.end_line)
                    for unit in units)
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
        bundle_version=BUNDLE_VERSION,
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
#
# A record whose dataclass fields are its JSON keys is written by _row and read
# back by _record; a field holding a record nests that record's row, and an
# enum field holds the enum's value.

@dataclass
class _PairKey:
    """The contract pair that a file-pair, function-pair or pair-diagnostics row belongs to."""

    proxy: str
    predecessor: str
    successor: str


@dataclass
class _FileKey(_PairKey):
    """The file pair that a function-pair row belongs to."""

    directory: str
    predecessor_filename: str
    successor_filename: str


# Read back, a key is the tuple of its fields' values.
_pair_key = itemgetter(*(f.name for f in fields(_PairKey)))
_file_key = itemgetter(*(f.name for f in fields(_FileKey)))


# A file's place in a contract: a SourceFile row without the content.
_LOCATION = ("directory", "filename")
_location = itemgetter(*_LOCATION)  # of a row
_location_of = attrgetter(*_LOCATION)  # of a SourceFile
# A function row leaves out what its function-pair row already locates.
_UNIT_CONTEXT = ("body", *_LOCATION)


@functools.cache
def _schema(cls) -> tuple[tuple[str, ...], tuple]:
    """Field names of a dataclass, and (name, encode, decode) for its record and enum fields."""
    hints = get_type_hints(cls)
    converted = []
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            converted.append((f.name, _row, functools.partial(_record, hints[f.name])))
        elif isinstance(hints[f.name], EnumMeta):
            converted.append((f.name, attrgetter("value"), hints[f.name]))
    return tuple(f.name for f in fields(cls)), tuple(converted)


def _row(record, omit=()) -> dict:
    """The JSON row of a record: one key per dataclass field not in `omit`."""
    names, converted = _schema(type(record))
    row = {name: getattr(record, name) for name in names if name not in omit}
    for name, encode, _ in converted:
        row[name] = encode(row[name])
    return row


def _record(cls, row: dict, **given):
    """Inverse of _row: the `cls` a row describes, with its omitted fields `given`."""
    names, converted = _schema(cls)
    try:
        values = {name: row[name] for name in names if name not in given}
    except KeyError as exc:
        raise ValidationError(f"row lacks field {exc}") from exc
    for name, _, decode in converted:
        values[name] = decode(values[name])
    return cls(**values, **given)


def _location_row(location: tuple[str, str]) -> dict:
    return dict(zip(_LOCATION, location))


def _source_path(root: Path, address: str, directory: str, filename: str) -> Path:
    return root.joinpath(SOURCES_DIR, address, *directory.split("/"), filename)


def _contracts_obj(bundle: DatasetBundle) -> list[dict]:
    return [
        _row(record) | {"files": list(map(_location_row, sorted(map(_location_of, record.files))))}
        for _, record in sorted(bundle.contracts.items())
    ]


def lineage_rows(lineages: list[Lineage]) -> list[dict]:
    """Rows of lineages.json; a version's row is its address and activity window."""
    return [
        _row(lineage) | {"versions": [{"address": v.address, **_row(v.window)}
                                      for v in lineage.versions]}
        for lineage in lineages
    ]


def lineage_diagnostics_obj(corpus_diagnostics: list[str], lineage: LineageDiagnostics) -> dict:
    """The diagnostics of the lineage stage; the bundle's diagnostics.json extends them."""
    return {
        "corpus": list(corpus_diagnostics),
        "lineage_exclusions": [_row(e) for e in lineage.exclusions],
    }


def _file_pairs_obj(bundle: DatasetBundle) -> list[dict]:
    return [_row(_PairKey(proxy, fp.predecessor, fp.successor)) | _row(fp)
            for proxy, fp in bundle.file_pairs]


def _function_pairs_obj(bundle: DatasetBundle) -> list[dict]:
    rows = []
    for proxy, pair in bundle.function_pairs:
        fp = pair.file_pair
        key = _FileKey(proxy, fp.predecessor, fp.successor, fp.directory,
                       fp.predecessor_filename, fp.successor_filename)
        rows.append(_row(key) | {
            "match_kind": pair.match_kind.value,
            "predecessor_function": _row(pair.predecessor, omit=_UNIT_CONTEXT),
            "successor_function": _row(pair.successor, omit=_UNIT_CONTEXT),
        })
    return rows


def _diagnostics_obj(bundle: DatasetBundle) -> dict:
    return lineage_diagnostics_obj(bundle.corpus_diagnostics, bundle.lineage_diagnostics) | {
        "pairs": [
            _row(_PairKey(a.pair.proxy, a.pair.predecessor, a.pair.successor)) | {
                "flag": a.file_pairing.flag,
                "unpaired_predecessor_files":
                    list(map(_location_row, a.file_pairing.unpaired_predecessor)),
                "unpaired_successor_files":
                    list(map(_location_row, a.file_pairing.unpaired_successor)),
                "unpaired_functions": [_row(u) for u in a.unpaired_functions],
            }
            for a in bundle.pair_artifacts
        ],
        "sources": list(bundle.source_diagnostics),
    }


# Each bundle table and the function that makes its JSON: emit_dataset writes them,
# bundle_to_jsonable keys them by file stem and load_bundle reads them back.
BUNDLE_TABLES = {
    MANIFEST_FILE: lambda bundle: _row(bundle.manifest) | {"tool_version": __version__},
    CONTRACTS_FILE: _contracts_obj,
    LINEAGES_FILE: lambda bundle: lineage_rows(bundle.lineages),
    CONTRACT_PAIRS_FILE: lambda bundle: [_row(pair) for pair in bundle.pairs],
    FILE_PAIRS_FILE: _file_pairs_obj,
    FUNCTION_PAIRS_FILE: _function_pairs_obj,
    DIAGNOSTICS_FILE: _diagnostics_obj,
}


def bundle_to_jsonable(bundle: DatasetBundle) -> dict:
    """Canonical JSON projection of the whole bundle (sans file contents)."""
    return {Path(name).stem: build(bundle) for name, build in BUNDLE_TABLES.items()}


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


def emit_dataset(bundle: DatasetBundle, out_dir: str | Path) -> None:
    """Write the bundle; identical bundles produce byte-identical trees."""
    _check_integrity(bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, build in BUNDLE_TABLES.items():
        write_json(out / name, build(bundle))

    sources_root = out / SOURCES_DIR
    if sources_root.exists():
        shutil.rmtree(sources_root)
    resolved_root = sources_root.resolve()
    for address in sorted(bundle.contracts):
        for file in sorted(bundle.contracts[address].files, key=_location_of):
            validate_directory(file.directory)
            target = _source_path(out, address, file.directory, file.filename)
            if resolved_root not in target.resolve().parents:
                raise IntegrityError(f"source path escapes bundle: {file.directory}/{file.filename}")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(file.content, encoding="utf-8")


@contextmanager
def _reading(path: Path):
    """Report a malformed row of the bundle table at `path` as a ValidationError naming it."""
    try:
        yield
    except ParseError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        detail = exc if isinstance(exc, ValidationError) else f"malformed row ({exc!r})"
        raise ValidationError(f"{path}: {detail}") from exc


def load_bundle(bundle_dir: str | Path) -> DatasetBundle:
    """Reload an emitted bundle into the in-memory form.

    A table that is not UTF-8 JSON, lacks a field or comes from another
    BUNDLE_VERSION raises ValidationError naming its file; a missing file
    raises OSError.
    """
    root = Path(bundle_dir)
    docs = {name: read_json(root / name) for name in BUNDLE_TABLES}

    with _reading(root / MANIFEST_FILE):
        manifest = _record(Manifest, docs[MANIFEST_FILE])
        if manifest.bundle_version != BUNDLE_VERSION:
            raise ValidationError(f"bundle_version {manifest.bundle_version!r} is not "
                                  f"the supported {BUNDLE_VERSION!r}")

    contracts: dict[str, ContractRecord] = {}
    with _reading(root / CONTRACTS_FILE):
        for row in docs[CONTRACTS_FILE]:
            files = []
            for directory, filename in map(_location, row["files"]):
                path = _source_path(root, row["address"], directory, filename)
                files.append(SourceFile(directory, filename, _utf8(path.read_bytes(), path)))
            record = _record(ContractRecord, row, files=tuple(sorted(files, key=_location_of)))
            contracts[record.address] = record

    with _reading(root / LINEAGES_FILE):
        lineages = [
            _record(Lineage, row, versions=tuple(
                LineageVersion(v["address"], _record(ActivityWindow, v)) for v in row["versions"]))
            for row in docs[LINEAGES_FILE]
        ]

    with _reading(root / CONTRACT_PAIRS_FILE):
        pairs = {_pair_key(row): _record(ContractPair, row)
                 for row in docs[CONTRACT_PAIRS_FILE]}

    file_pairs: dict[tuple, list[FilePair]] = {pair_id: [] for pair_id in pairs}
    file_pair_at: dict[tuple, tuple[tuple, FilePair]] = {}
    with _reading(root / FILE_PAIRS_FILE):
        for row in docs[FILE_PAIRS_FILE]:
            pair_id, fp = _pair_key(row), _record(FilePair, row)
            file_pairs[pair_id].append(fp)
            file_pair_at[_file_key(row)] = pair_id, fp

    function_pairs: dict[tuple, list[FunctionPair]] = {pair_id: [] for pair_id in pairs}
    with _reading(root / FUNCTION_PAIRS_FILE):
        for row in docs[FUNCTION_PAIRS_FILE]:
            pair_id, fp = file_pair_at[_file_key(row)]
            function_pairs[pair_id].append(FunctionPair(
                file_pair=fp,
                predecessor=_record(FunctionUnit, row["predecessor_function"], body="",
                                    directory=fp.directory, filename=fp.predecessor_filename),
                successor=_record(FunctionUnit, row["successor_function"], body="",
                                  directory=fp.directory, filename=fp.successor_filename),
                match_kind=MatchKind(row["match_kind"]),
            ))

    artifacts: dict[tuple, PairArtifacts] = {}
    with _reading(root / DIAGNOSTICS_FILE):
        diagnostics = docs[DIAGNOSTICS_FILE]
        for row in diagnostics["pairs"]:
            pair_id = _pair_key(row)
            artifacts[pair_id] = PairArtifacts(
                pair=pairs[pair_id],
                file_pairing=FilePairing(
                    pairs=file_pairs[pair_id],
                    unpaired_predecessor=list(map(_location, row["unpaired_predecessor_files"])),
                    unpaired_successor=list(map(_location, row["unpaired_successor_files"])),
                    flag=row["flag"],
                ),
                function_pairs=function_pairs[pair_id],
                unpaired_functions=[_record(UnpairedFunction, u) for u in row["unpaired_functions"]],
            )
        return DatasetBundle(
            manifest=manifest,
            contracts=contracts,
            lineages=lineages,
            pair_artifacts=[artifacts[pair_id] for pair_id in pairs],
            corpus_diagnostics=diagnostics["corpus"],
            lineage_diagnostics=LineageDiagnostics(exclusions=[
                _record(ExcludedCallee, e) for e in diagnostics["lineage_exclusions"]
            ]),
            source_diagnostics=diagnostics["sources"],
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
    histogram = {str(size): count for size, count in sorted(report.lineage_size_histogram.items())}
    return asdict(replace(report, lineage_size_histogram=histogram))


def stats_to_csv(report: StatsReport) -> str:
    import csv as _csv
    import io

    buffer = io.StringIO()
    writer = _csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value"])
    for key, value in stats_to_jsonable(report).items():
        if isinstance(value, dict):
            writer.writerows([f"{key}[{size}]", count] for size, count in value.items())
        else:
            writer.writerow([key, "" if value is None else value])
    return buffer.getvalue()
