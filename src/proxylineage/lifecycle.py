"""Track detector warnings across version pairs: introduced, persisted, disappeared.

Findings from different runs of the same detector cannot be matched by line
number (lines drift between versions), so a finding's identity is its tool,
its warning type and the paired file it lives in. Diffing a version pair
counts multiplicities per identity: min(pred, succ) persisted, the excess on
the successor side introduced, the excess on the predecessor side
disappeared. Summaries can combine several tools' findings by union or
intersection through a category map that reconciles tool-specific warning
taxonomies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import Corpus, _iter_ndjson, _require_fields, normalize_address, read_json
from .errors import ConfigurationError, ValidationError
from .lineage import ContractPair, SECONDS_PER_DAY
from .pairing import FilePair

FINDING_FIELDS = frozenset(
    {"tool", "vuln_type", "contract", "directory", "filename", "start_line", "end_line", "message"}
)

UNION = "union"
INTERSECTION = "intersection"

# Map tool-specific warning types onto shared categories for cross-tool
# combination; extend via a user-supplied category map for other classes.
DEFAULT_CATEGORY_MAP = {
    "slither": {
        "reentrancy-eth": "reentrancy",
        "reentrancy-no-eth": "reentrancy",
        "reentrancy-benign": "reentrancy",
        "tx-origin": "tx-origin",
        "unchecked-lowlevel": "unchecked-call",
        "unchecked-send": "unchecked-call",
    },
    "mythril": {
        "SWC-107": "reentrancy",
        "SWC-115": "tx-origin",
        "SWC-104": "unchecked-call",
    },
    "conkas": {
        "Reentrancy": "reentrancy",
        "Tx Origin": "tx-origin",
        "Unchecked Low Level Call": "unchecked-call",
    },
}


class LifecycleStatus(str, Enum):
    INTRODUCED = "INTRODUCED"
    DISAPPEARED = "DISAPPEARED"
    PERSISTED = "PERSISTED"


@dataclass(frozen=True)
class Finding:
    """One normalized detector warning."""

    tool: str
    vuln_type: str
    contract: str
    directory: str
    filename: str
    start_line: int
    end_line: int
    message: str


@dataclass(frozen=True)
class FileIdentity:
    """The paired-file a finding belongs to; one side is None when unpaired."""

    directory: str
    predecessor_filename: str | None
    successor_filename: str | None


@dataclass(frozen=True)
class FindingKey:
    tool: str
    vuln_type: str
    file: FileIdentity


@dataclass(frozen=True)
class LifecycleRecord:
    """One warning's fate across one predecessor/successor pair."""

    proxy: str
    key: FindingKey
    status: LifecycleStatus
    pair: ContractPair
    days_to_disappear: float | None = None


def load_findings(
    report_path: str | Path, corpus: Corpus | None = None
) -> tuple[list[Finding], list[str]]:
    """Load an NDJSON findings report; returns (findings, diagnostics).

    Rows violating the schema raise ParseError with the line number. Findings
    that reference contracts or files absent from the corpus are kept but
    diagnosed, as are line ranges beyond the file's length.
    """
    path = Path(report_path)
    findings: list[Finding] = []
    diagnostics: list[str] = []
    for line_number, finding in _iter_ndjson(path, _finding_from_obj):
        findings.append(finding)
        if corpus is not None:
            diagnostics.extend(_cross_check(finding, corpus, line_number))
    return findings, diagnostics


def _finding_from_obj(obj: object) -> Finding:
    if not isinstance(obj, dict):
        raise ValidationError("finding must be a JSON object")
    _require_fields(obj, FINDING_FIELDS, "finding")
    for field_name in ("tool", "vuln_type", "filename", "message"):
        if not isinstance(obj[field_name], str):
            raise ValidationError(f"{field_name} must be a string")
    if not obj["tool"] or not obj["vuln_type"]:
        raise ValidationError("tool and vuln_type must be non-empty")
    start_line, end_line = obj["start_line"], obj["end_line"]
    for name, value in (("start_line", start_line), ("end_line", end_line)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if start_line > end_line:
        raise ValidationError(f"start_line {start_line} > end_line {end_line}")
    if not isinstance(obj["directory"], str):
        raise ValidationError("directory must be a string")
    return Finding(**{**obj, "contract": normalize_address(obj["contract"], "contract")})


def _cross_check(finding: Finding, corpus: Corpus, line_number: int) -> list[str]:
    record = corpus.contracts.get(finding.contract)
    if record is None:
        return [f"line {line_number}: finding references unknown contract {finding.contract}"]
    for file in record.files:
        if (file.directory, file.filename) == (finding.directory, finding.filename):
            file_lines = len(file.content.splitlines())
            if finding.end_line > file_lines:
                return [
                    f"line {line_number}: finding lines {finding.start_line}-{finding.end_line} "
                    f"exceed {finding.filename} length {file_lines}"
                ]
            return []
    return [
        f"line {line_number}: finding references unknown file "
        f"{finding.directory!r}/{finding.filename!r} in {finding.contract}"
    ]


def _identity_maps(
    file_pairs: list[FilePair],
) -> tuple[dict[tuple[str, str], FileIdentity], dict[tuple[str, str], FileIdentity]]:
    pred_map: dict[tuple[str, str], FileIdentity] = {}
    succ_map: dict[tuple[str, str], FileIdentity] = {}
    for fp in file_pairs:
        identity = FileIdentity(fp.directory, fp.predecessor_filename, fp.successor_filename)
        pred_map[(fp.directory, fp.predecessor_filename)] = identity
        succ_map[(fp.directory, fp.successor_filename)] = identity
    return pred_map, succ_map


def diff_pair(
    pair: ContractPair,
    file_pairs: list[FilePair],
    pred_findings: list[Finding],
    succ_findings: list[Finding],
) -> list[LifecycleRecord]:
    """Classify each finding identity across one version pair.

    For an identity seen p times on the predecessor and s times on the
    successor: min(p, s) PERSISTED, s-p extra INTRODUCED, p-s extra
    DISAPPEARED. Disappearances carry the days from the predecessor's first
    activity to the successor's first activity, i.e. how long the vulnerable
    version was the live one before a warning-free successor took over.
    """
    pred_map, succ_map = _identity_maps(file_pairs)

    def key_for(finding: Finding, side_map, unpaired_pred: bool) -> FindingKey:
        identity = side_map.get((finding.directory, finding.filename))
        if identity is None:
            if unpaired_pred:
                identity = FileIdentity(finding.directory, finding.filename, None)
            else:
                identity = FileIdentity(finding.directory, None, finding.filename)
        return FindingKey(finding.tool, finding.vuln_type, identity)

    pred_counts: dict[FindingKey, int] = {}
    for finding in pred_findings:
        key = key_for(finding, pred_map, unpaired_pred=True)
        pred_counts[key] = pred_counts.get(key, 0) + 1
    succ_counts: dict[FindingKey, int] = {}
    for finding in succ_findings:
        key = key_for(finding, succ_map, unpaired_pred=False)
        succ_counts[key] = succ_counts.get(key, 0) + 1

    days_gone = (
        pair.successor_window.first_call - pair.predecessor_window.first_call
    ) / SECONDS_PER_DAY

    records: list[LifecycleRecord] = []
    all_keys = sorted(
        set(pred_counts) | set(succ_counts),
        key=lambda k: (k.tool, k.vuln_type, k.file.directory,
                       k.file.predecessor_filename or "", k.file.successor_filename or ""),
    )
    for key in all_keys:
        p = pred_counts.get(key, 0)
        s = succ_counts.get(key, 0)
        for _ in range(min(p, s)):
            records.append(LifecycleRecord(pair.proxy, key, LifecycleStatus.PERSISTED, pair))
        for _ in range(max(0, p - s)):
            records.append(
                LifecycleRecord(pair.proxy, key, LifecycleStatus.DISAPPEARED, pair,
                                days_to_disappear=days_gone)
            )
        for _ in range(max(0, s - p)):
            records.append(LifecycleRecord(pair.proxy, key, LifecycleStatus.INTRODUCED, pair))
    return records


def _category_for(tool: str, vuln_type: str, category_map, mode: str,
                  unmapped: set[tuple[str, str]]) -> str:
    mapped = category_map.get(tool, {}).get(vuln_type)
    if mapped is not None:
        return mapped
    if mode == INTERSECTION:
        unmapped.add((tool, vuln_type))
    return f"{tool}:{vuln_type}"


def lifecycle_stats(
    records: list[LifecycleRecord],
    mode: str = UNION,
    tools: list[str] | None = None,
    category_map: dict[str, dict[str, str]] | None = None,
) -> dict:
    """Summarize lifecycle records, combining tools by union or intersection.

    Findings are projected onto (pair, file, category, status) cells with a
    per-tool count; union takes the max across tools, intersection the min
    across every configured tool. Intersection requires each observed
    vuln_type to be mapped to a shared category, otherwise a configuration
    error lists the unmapped types. The returned summary reports percentages
    over three denominators (findings, keys, files) since each is a
    legitimate reading.
    """
    if mode not in (UNION, INTERSECTION):
        raise ConfigurationError(f"mode must be {UNION!r} or {INTERSECTION!r}, got {mode!r}")
    if category_map is None:
        category_map = DEFAULT_CATEGORY_MAP
    if tools is None:
        tools = sorted({r.key.tool for r in records})

    unmapped: set[tuple[str, str]] = set()
    # cell: (pair id, file identity, category, status) -> {tool: count}
    cells: dict[tuple, dict[str, int]] = {}
    pair_info: dict[tuple, ContractPair] = {}
    days_by_pair: dict[tuple, float] = {}
    for record in records:
        if record.key.tool not in tools:
            continue
        category = _category_for(record.key.tool, record.key.vuln_type, category_map,
                                 mode, unmapped)
        pair_id = (record.pair.proxy, record.pair.predecessor, record.pair.successor)
        cell = (pair_id, record.key.file, category, record.status)
        counts = cells.setdefault(cell, {})
        counts[record.key.tool] = counts.get(record.key.tool, 0) + 1
        pair_info[pair_id] = record.pair
        if record.days_to_disappear is not None:
            days_by_pair[pair_id] = record.days_to_disappear
    if unmapped:
        listing = ", ".join(f"{tool}/{vt}" for tool, vt in sorted(unmapped))
        raise ConfigurationError(f"intersection mode requires categories for: {listing}")

    combined: dict[tuple, int] = {}
    for cell, counts in cells.items():
        if mode == UNION:
            value = max(counts.values())
        else:
            value = min(counts.get(tool, 0) for tool in tools)
        if value:
            combined[cell] = value

    status_counts = {status: 0 for status in LifecycleStatus}
    keys_seen: set[tuple] = set()
    keys_with: dict[LifecycleStatus, set[tuple]] = {s: set() for s in LifecycleStatus}
    files_seen: set[FileIdentity] = set()
    files_with: dict[LifecycleStatus, set[FileIdentity]] = {s: set() for s in LifecycleStatus}
    pair_files_seen: set[tuple] = set()
    pair_files_with: dict[LifecycleStatus, set[tuple]] = {s: set() for s in LifecycleStatus}
    contracts: set[str] = set()
    proxies: set[str] = set()
    disappear_weight = 0
    disappear_days = 0.0
    for (pair_id, identity, category, status), count in combined.items():
        status_counts[status] += count
        key_id = (identity, category)
        keys_seen.add(key_id)
        keys_with[status].add(key_id)
        files_seen.add(identity)
        files_with[status].add(identity)
        pair_file = (pair_id, identity)
        pair_files_seen.add(pair_file)
        pair_files_with[status].add(pair_file)
        proxies.add(pair_id[0])
        pair = pair_info[pair_id]
        if status in (LifecycleStatus.PERSISTED, LifecycleStatus.DISAPPEARED):
            contracts.add(pair.predecessor)
        if status in (LifecycleStatus.PERSISTED, LifecycleStatus.INTRODUCED):
            contracts.add(pair.successor)
        if status is LifecycleStatus.DISAPPEARED:
            disappear_weight += count
            disappear_days += count * days_by_pair[pair_id]

    total = sum(status_counts.values())

    def pct(numerator: int, denominator: int) -> float | None:
        return 100.0 * numerator / denominator if denominator else None

    patched_without_new = (pair_files_with[LifecycleStatus.DISAPPEARED]
                           - pair_files_with[LifecycleStatus.INTRODUCED])
    return {
        "mode": mode,
        "tools": list(tools),
        "findings": {
            "total": total,
            "introduced": status_counts[LifecycleStatus.INTRODUCED],
            "persisted": status_counts[LifecycleStatus.PERSISTED],
            "disappeared": status_counts[LifecycleStatus.DISAPPEARED],
        },
        "distinct_keys": len(keys_seen),
        "vulnerable_files": len(files_seen),
        "vulnerable_contracts": len(contracts),
        "lineages_touched": len(proxies),
        "percent_introduced": {
            "of_findings": pct(status_counts[LifecycleStatus.INTRODUCED], total),
            "of_keys": pct(len(keys_with[LifecycleStatus.INTRODUCED]), len(keys_seen)),
            "of_files": pct(len(files_with[LifecycleStatus.INTRODUCED]), len(files_seen)),
        },
        "percent_disappeared": {
            "of_findings": pct(status_counts[LifecycleStatus.DISAPPEARED], total),
            "of_keys": pct(len(keys_with[LifecycleStatus.DISAPPEARED]), len(keys_seen)),
            "of_files": pct(len(files_with[LifecycleStatus.DISAPPEARED]), len(files_seen)),
        },
        "mean_days_to_disappear": (disappear_days / disappear_weight) if disappear_weight else None,
        "patched_without_new_file_count": len(patched_without_new),
    }


def load_category_map(path: str | Path) -> dict[str, dict[str, str]]:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: category map must be a JSON object")
    for tool, mapping in obj.items():
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise ValidationError(
                f"{path}: category map for tool {tool!r} must map strings to strings")
    return obj
