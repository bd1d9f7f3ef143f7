"""Assemble, emit, reload and summarize the lineage dataset bundle.

The bundle is a directory of sorted-key JSON files plus a sources/ tree, laid
out so that identical inputs always produce byte-identical trees: the
manifest timestamp derives from the newest input timestamp rather than the
wall clock, and every collection is emitted in a canonical order.
"""

from __future__ import annotations

import math
import shutil
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import zip_longest
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from ._version import __version__
from .corpus import (ContractRecord, Corpus, SourceFile, _fields, _line_count, _line_span,
                     _record, _require_int, _require_timestamp, _text, _utf8, contract_from_obj,
                     corpus_digests, normalize_address, read_json, validate_directory, write_json)
from .errors import IntegrityError, ParseError, ValidationError
from .lineage import (
    ActivityWindow,
    ContractPair,
    ExcludedCallee,
    ExclusionReason,
    Lineage,
    LineageDiagnostics,
    LineageVersion,
    build_lineages,
    classify_callees,
    contract_pairs,
    lineage_diagnostics_obj,
    lineage_rows,
)
from .pairing import (FilePair, FilePairing, FunctionPair, MatchKind, match_files, pair_files,
                      pair_functions)
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


class Manifest(NamedTuple):
    bundle_version: str
    generated_at: str
    inputs: dict[str, str]


class UnpairedFunction(NamedTuple):
    directory: str
    predecessor_filename: str
    successor_filename: str
    side: str  # "predecessor" | "successor"
    name: str
    signature: str
    start_line: int
    end_line: int


class PairArtifacts(NamedTuple):
    """Everything derived from one predecessor/successor contract pair."""

    pair: ContractPair
    file_pairing: FilePairing
    function_pairs: list[FunctionPair]
    unpaired_functions: list[UnpairedFunction]


class DatasetBundle(NamedTuple):
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
    def file_pairs(self) -> list[tuple[ContractPair, FilePair]]:
        return [
            (artifacts.pair, fp)
            for artifacts in self.pair_artifacts
            for fp in artifacts.file_pairing.pairs
        ]

    @property
    def function_pairs(self) -> list[tuple[ContractPair, FunctionPair]]:
        return [
            (artifacts.pair, fp)
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


def build_bundle(corpus: Corpus) -> DatasetBundle:
    """Run the full lineage/pairing pipeline over a corpus; the bundle is a function of it alone."""
    lineages, lineage_diags = build_lineages(corpus)
    pairs = contract_pairs(lineages)

    member_addresses = sorted({v.address for l in lineages for v in l.versions})
    contracts = {address: corpus.contracts[address] for address in member_addresses}

    source_diagnostics: list[str] = []
    # A source text shared unchanged across versions, under any path, is
    # extracted once per run; its notes are still reported once per (address, file).
    extracted: dict[str, tuple[list[FunctionUnit], list[str]]] = {}
    reported: set[tuple[str, str, str]] = set()

    def functions_of(address: str, file: SourceFile) -> list[FunctionUnit]:
        if file.content not in extracted:
            notes: list[str] = []
            extracted[file.content] = (extract_functions(file.content, notes), notes)
        units, notes = extracted[file.content]
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
        unpaired_functions.sort(key=lambda u: (u.directory, u.predecessor_filename,
                                               u.successor_filename, u.side, u.start_line, u.name))
        artifacts.append(PairArtifacts(
            pair=pair,
            file_pairing=pairing,
            function_pairs=function_pair_list,
            unpaired_functions=unpaired_functions,
        ))

    manifest = Manifest(
        bundle_version=BUNDLE_VERSION,
        generated_at=derived_timestamp(corpus),
        inputs=corpus_digests(corpus),
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
# A bundle row is a record's _asdict(), with a nested record as a row of its own
# and an enum as its value; load_bundle picks the fields back out with corpus._record.
# The key of a file-pair, function-pair or pair-diagnostics row leads with the
# contract pair's first three fields, then a function-pair row's with its file pair's.
_PAIR_KEY = ContractPair._fields[:3]
_FILE_KEY = _PAIR_KEY + FilePair._fields[:3]
# Read back, a key is the tuple of its fields' values.
_pair_key = itemgetter(*_PAIR_KEY)
_file_key = itemgetter(*_FILE_KEY)

# A file's place in a contract: a SourceFile row without the content.
_LOCATION = SourceFile._fields[:2]
# A function's row: a FunctionUnit's fields but the body, which the sources/ tree holds.
_UNIT_ROW = tuple(name for name in FunctionUnit._fields if name != "body")


def _add_once(table: dict, key, value, what: str) -> None:
    """table[key] = value, unless an earlier row of the bundle table holds `key`."""
    if key in table:
        raise ValidationError(f"{what} {key!r} is listed twice")
    table[key] = value


def _location(row: dict) -> tuple[str, str]:
    """The place a row of unpaired files gives, once it has no other field."""
    return _fields(row, _LOCATION)


def _notes(values, where: str) -> list[str]:
    if not isinstance(values, list):
        raise ValidationError(f"{where} must be a list, got {type(values).__name__}")
    return [_text(value, f"{where} note") for value in values]


def _window(row: dict, proxy, *also: str) -> ActivityWindow:
    """The window a row of `proxy` describes, once its bounds are timestamps in order."""
    window = _record(ActivityWindow, row, *also)
    first, last = map(_require_timestamp, window, window._fields)
    if first > last:
        raise ValidationError(f"window of proxy {proxy}: "
                              f"first_call {first} is after last_call {last}")
    return ActivityWindow(first, last)


def _require_numbers(record, within, rule: str, *names: str):
    """`record`, once each named field holds a JSON number for which `within` holds (a
    chained comparison there also rejects NaN) and which is a float, as emit writes it."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{name} must be a number, got {value!r}")
        if not within(value):
            raise ValidationError(f"{name} must be {rule}, got {value!r}")
        if not isinstance(value, float):
            raise ValidationError(f"{name} must be a float, got {value!r}")
    return record


def _function(cls, row: dict):
    """The FunctionUnit, with an empty body, or the UnpairedFunction a row describes, once its
    text fields (all but the last two, the lines) are strings, its lines a span as
    extract_functions gives one and an unpaired side a known one."""
    if cls is FunctionUnit:
        name, signature, start_line, end_line = _fields(row, _UNIT_ROW)
        unit = FunctionUnit(name, signature, "", start_line, end_line)
    else:
        unit = _record(cls, row)
    for name, value in zip(unit._fields[:-2], unit):
        _text(value, name)
    _line_span(unit.start_line, unit.end_line)
    if cls is UnpairedFunction and unit.side not in ("predecessor", "successor"):
        raise ValidationError(f"side must be 'predecessor' or 'successor', got {unit.side!r}")
    return unit


def _lineage(row: dict) -> Lineage:
    """The lineage a row describes, once its addresses are addresses and its windows windows."""
    lineage = _record(Lineage, row)
    proxy = normalize_address(lineage.proxy, "proxy")
    return Lineage(proxy, normalize_address(lineage.creator, "creator"), tuple(
        LineageVersion(normalize_address(v["address"]), _window(v, proxy, "address"))
        for v in lineage.versions))


def _exclusion(row: dict) -> ExcludedCallee:
    """The exclusion a row describes, once its addresses are addresses and its reason known."""
    excluded = _record(ExcludedCallee, row)
    return ExcludedCallee(normalize_address(excluded.proxy, "proxy"),
                          normalize_address(excluded.callee, "callee"),
                          ExclusionReason(excluded.reason))


def _unit_row(unit: FunctionUnit) -> dict:
    return {name: getattr(unit, name) for name in _UNIT_ROW}


def _source_path(root: Path, address: str, directory: str, filename: str) -> Path:
    """sources/<address>/<directory>/<filename> in the bundle at `root`.

    Every segment must be a plain name (no '..', '.', empty segment or
    leading slash), so the path cannot leave sources/; else ValidationError.
    """
    relative = "/".join((address, directory, filename) if directory else (address, filename))
    validate_directory(relative, "source path")
    return root.joinpath(SOURCES_DIR, *relative.split("/"))


def _contracts_obj(bundle: DatasetBundle) -> list[dict]:
    return [record._asdict() | {"files": [dict(zip(_LOCATION, file)) for file in record.files]}
            for _, record in sorted(bundle.contracts.items())]


def _function_pairs_obj(bundle: DatasetBundle) -> list[dict]:
    return [
        dict(zip(_FILE_KEY, pair[:3] + function_pair.file_pair[:3])) | {
            "match_kind": function_pair.match_kind.value,
            "predecessor_function": _unit_row(function_pair.predecessor),
            "successor_function": _unit_row(function_pair.successor),
        }
        for pair, function_pair in bundle.function_pairs
    ]


def _diagnostics_obj(bundle: DatasetBundle) -> dict:
    return lineage_diagnostics_obj(bundle.corpus_diagnostics, bundle.lineage_diagnostics) | {
        "pairs": [
            dict(zip(_PAIR_KEY, a.pair[:3])) | {
                "flag": a.file_pairing.flag,
                "unpaired_predecessor_files":
                    [dict(zip(_LOCATION, place)) for place in a.file_pairing.unpaired_predecessor],
                "unpaired_successor_files":
                    [dict(zip(_LOCATION, place)) for place in a.file_pairing.unpaired_successor],
                "unpaired_functions": [u._asdict() for u in a.unpaired_functions],
            }
            for a in bundle.pair_artifacts
        ],
        "sources": list(bundle.source_diagnostics),
    }


# Each bundle table and the function that makes its JSON: emit_dataset writes them
# and load_bundle reads them back.
BUNDLE_TABLES = {
    MANIFEST_FILE: lambda bundle: bundle.manifest._asdict() | {"tool_version": __version__},
    CONTRACTS_FILE: _contracts_obj,
    LINEAGES_FILE: lambda bundle: lineage_rows(bundle.lineages),
    CONTRACT_PAIRS_FILE: lambda bundle: [
        pair._asdict() | {"predecessor_window": pair.predecessor_window._asdict(),
                          "successor_window": pair.successor_window._asdict()}
        for pair in bundle.pairs],
    FILE_PAIRS_FILE: lambda bundle: [dict(zip(_PAIR_KEY, pair[:3])) | fp._asdict()
                                     for pair, fp in bundle.file_pairs],
    FUNCTION_PAIRS_FILE: _function_pairs_obj,
    DIAGNOSTICS_FILE: _diagnostics_obj,
}


def _check_integrity(bundle: DatasetBundle, error) -> None:
    """Raise error(table, message) for the first table that differs from what the bundle derives:
    the lineage members' contracts, each lineage as classify_callees gives it from its own
    versions and their contracts, contract_pairs of the lineages, and match_files of each pair's
    contracts (file pairs, unpaired files and flag). Each function row must end within its file,
    which has one line more than it has newlines. The exclusions must name each (proxy,
    callee) once and no member of the proxy's lineage, so that members and exclusions
    account for each observation once."""
    members = {v.address for l in bundle.lineages for v in l.versions}
    if set(bundle.contracts) != members:
        raise error(CONTRACTS_FILE, "bundle contracts do not match lineage members")
    for lineage in bundle.lineages:
        derived, dropped = classify_callees(lineage.proxy, dict(lineage.versions), bundle.contracts)
        if dropped:
            raise error(LINEAGES_FILE, f"version {dropped[0].callee} of proxy {lineage.proxy}: "
                                       f"the lineage rules exclude it as {dropped[0].reason.value}")
        if derived != lineage:
            raise error(LINEAGES_FILE,
                        f"{lineage} where its versions give {derived or 'no lineage'}")
    for pair, derived in zip_longest(bundle.pairs, contract_pairs(bundle.lineages)):
        if pair != derived:
            raise error(CONTRACT_PAIRS_FILE,
                        f"{pair or 'no row'} where the lineages give {derived or 'no pair'}")
    line_count = {(address, f.directory, f.filename): _line_count(f.content)
                  for address, record in bundle.contracts.items() for f in record.files}
    for artifacts in bundle.pair_artifacts:
        pair, pairing = artifacts.pair, artifacts.file_pairing
        derived = match_files(bundle.contracts[pair.predecessor], bundle.contracts[pair.successor])
        name = f"pair {pair.predecessor}->{pair.successor}"
        matches = [fp[:4] for fp in pairing.pairs]
        if matches != derived.pairs:
            raise error(FILE_PAIRS_FILE, f"{name}: file pairs {matches} where match_files gives "
                                         f"{[tuple(m) for m in derived.pairs]}")
        if pairing[1:] != derived[1:]:
            raise error(DIAGNOSTICS_FILE, f"{name}: unpaired files and flag {pairing[1:]} "
                                          f"where match_files gives {derived[1:]}")
        # each function, paired or not, ends within its side's file
        ends = [(FUNCTION_PAIRS_FILE, fp.file_pair, side, unit) for fp in artifacts.function_pairs
                for side, unit in (("predecessor", fp.predecessor), ("successor", fp.successor))]
        ends += [(DIAGNOSTICS_FILE, u, u.side, u) for u in artifacts.unpaired_functions]
        for table, place, side, unit in ends:
            directory, filename = place.directory, getattr(place, f"{side}_filename")
            lines = line_count.get((getattr(pair, side), directory, filename), 0)
            if unit.end_line > lines:
                raise error(table, f"{name}: {side} function {unit.signature} ends on line "
                                   f"{unit.end_line} of {directory!r}/{filename!r}, which has "
                                   f"{lines} lines")
    member_of = {(l.proxy, v.address) for l in bundle.lineages for v in l.versions}
    excluded = set()
    for proxy, callee, _ in bundle.lineage_diagnostics.exclusions:
        if (proxy, callee) in member_of:
            raise error(DIAGNOSTICS_FILE, f"callee {callee} of proxy {proxy} is both excluded "
                                          f"and a member of its lineage")
        if (proxy, callee) in excluded:
            raise error(DIAGNOSTICS_FILE, f"exclusion of callee {callee} of proxy {proxy} "
                                          f"is listed twice")
        excluded.add((proxy, callee))


def emit_dataset(bundle: DatasetBundle, out_dir: str | Path) -> None:
    """Write the bundle; identical bundles produce byte-identical trees."""
    _check_integrity(bundle, lambda table, message: IntegrityError(message))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, build in BUNDLE_TABLES.items():
        write_json(out / name, build(bundle))

    sources_root = out / SOURCES_DIR
    if sources_root.exists():
        shutil.rmtree(sources_root)
    for address in sorted(bundle.contracts):
        for file in bundle.contracts[address].files:
            target = _source_path(out, address, file.directory, file.filename)
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
    BUNDLE_VERSION raises ValidationError naming its file, as does a row that
    repeats an earlier row's key or differs from what _check_integrity derives.
    So does a row with a field that emit does not write, or a value of the
    wrong kind: contract rows are checked as fixture rows are, and the other
    rows by one reader each (`_lineage`, `_window`, `_function`, ...). A
    missing file raises OSError.
    """
    root = Path(bundle_dir)
    docs = {name: read_json(root / name) for name in BUNDLE_TABLES}

    with _reading(root / MANIFEST_FILE):
        manifest = _record(Manifest, docs[MANIFEST_FILE], "tool_version")
        if manifest.bundle_version != BUNDLE_VERSION:
            raise ValidationError(f"bundle_version {manifest.bundle_version!r} is not "
                                  f"the supported {BUNDLE_VERSION!r}")
        _text(manifest.generated_at, "generated_at")
        if not isinstance(manifest.inputs, dict):
            raise ValidationError(f"inputs must be an object, got {type(manifest.inputs).__name__}")
        for name, digest in manifest.inputs.items():
            _text(digest, f"inputs[{name!r}]")

    contracts: dict[str, ContractRecord] = {}
    with _reading(root / CONTRACTS_FILE):
        for row in docs[CONTRACTS_FILE]:
            address, *_, locations = _fields(row, ContractRecord._fields)
            # the address and each location name a source path, so they are checked first
            _text(address, "address")
            if not isinstance(locations, list):
                raise ValidationError(f"files must be a list, got {type(locations).__name__}")
            files = []
            for file in locations:
                directory, filename = _fields(file, _LOCATION)
                path = _source_path(root, address, _text(directory, "directory"),
                                    _text(filename, "filename"))
                files.append(file | {"content": _utf8(path.read_bytes(), path)})
            record = contract_from_obj(row | {"files": files})
            _add_once(contracts, record.address, record, "contract address")

    lineages: dict[str, Lineage] = {}
    with _reading(root / LINEAGES_FILE):
        for row in docs[LINEAGES_FILE]:
            lineage = _lineage(row)
            _add_once(lineages, lineage.proxy, lineage, "lineage of proxy")

    with _reading(root / CONTRACT_PAIRS_FILE):
        pairs = {}
        for row in docs[CONTRACT_PAIRS_FILE]:
            pair = _require_numbers(_record(ContractPair, row), lambda x: 0 < x < math.inf,
                                    "positive and finite", "gap_days")
            _add_once(pairs, _pair_key(row), pair._replace(
                predecessor_window=_window(pair.predecessor_window, pair.proxy),
                successor_window=_window(pair.successor_window, pair.proxy)), "contract pair")

    file_pairs: dict[tuple, list[FilePair]] = {pair_id: [] for pair_id in pairs}
    file_pair_at: dict[tuple, tuple[tuple, FilePair]] = {}
    with _reading(root / FILE_PAIRS_FILE):
        for row in docs[FILE_PAIRS_FILE]:
            pair_id = _pair_key(row)
            fp = _require_numbers(_record(FilePair, row, *_PAIR_KEY), lambda x: 0 <= x <= 1,
                                  "in [0, 1]", "line_similarity", "content_similarity")
            _require_int(fp.name_distance, "name_distance")
            _add_once(file_pair_at, _file_key(row), (pair_id, fp), "file pair")
            file_pairs[pair_id].append(fp)

    function_pairs: dict[tuple, list[FunctionPair]] = {pair_id: [] for pair_id in pairs}
    listed: dict[tuple, None] = {}  # (contract pair key, function pair) of each row
    keys = (*_FILE_KEY, "match_kind", "predecessor_function", "successor_function")
    with _reading(root / FUNCTION_PAIRS_FILE):
        for row in docs[FUNCTION_PAIRS_FILE]:
            _fields(row, keys)
            pair_id, fp = file_pair_at[_file_key(row)]
            function_pair = FunctionPair(
                file_pair=fp,
                predecessor=_function(FunctionUnit, row["predecessor_function"]),
                successor=_function(FunctionUnit, row["successor_function"]),
                match_kind=MatchKind(row["match_kind"]),
            )
            _add_once(listed, (pair_id, function_pair), None, "function pair")
            function_pairs[pair_id].append(function_pair)

    artifacts: dict[tuple, PairArtifacts] = {}
    with _reading(root / DIAGNOSTICS_FILE):
        corpus_notes, exclusions, pair_rows, source_notes = _fields(
            docs[DIAGNOSTICS_FILE], ("corpus", "lineage_exclusions", "pairs", "sources"))
        for row in pair_rows:
            _fields(row, (*_PAIR_KEY, "flag", "unpaired_predecessor_files",
                          "unpaired_successor_files", "unpaired_functions"))
            pair_id = _pair_key(row)
            _add_once(artifacts, pair_id, PairArtifacts(
                pair=pairs[pair_id],
                file_pairing=FilePairing(
                    pairs=file_pairs[pair_id],
                    unpaired_predecessor=list(map(_location, row["unpaired_predecessor_files"])),
                    unpaired_successor=list(map(_location, row["unpaired_successor_files"])),
                    flag=row["flag"],
                ),
                function_pairs=function_pairs[pair_id],
                unpaired_functions=[_function(UnpairedFunction, u)
                                    for u in row["unpaired_functions"]],
            ), "diagnostics row of contract pair")
        bundle = DatasetBundle(
            manifest=manifest,
            contracts=contracts,
            lineages=list(lineages.values()),
            pair_artifacts=[artifacts[pair_id] for pair_id in pairs],
            corpus_diagnostics=_notes(corpus_notes, "corpus"),
            lineage_diagnostics=LineageDiagnostics(exclusions=list(map(_exclusion, exclusions))),
            source_diagnostics=_notes(source_notes, "sources"),
        )
    _check_integrity(bundle, lambda table, message: ValidationError(f"{root / table}: {message}"))
    return bundle


# --- summary statistics ------------------------------------------------------

class StatsReport(NamedTuple):
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
    for pair, fp in bundle.file_pairs:
        covered_files.add((pair.predecessor, fp.directory, fp.predecessor_filename))
        covered_files.add((pair.successor, fp.directory, fp.successor_filename))
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
    return report._replace(lineage_size_histogram=histogram)._asdict()


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
