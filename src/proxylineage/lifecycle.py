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

from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus, _iter_ndjson, _require_fields, normalize_address, read_json
from .errors import ConfigurationError, ValidationError
from .lineage import ContractPair, SECONDS_PER_DAY
from .pairing import FileMatch

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


class Finding(NamedTuple):
    """One normalized detector warning."""

    tool: str
    vuln_type: str
    contract: str
    directory: str
    filename: str
    start_line: int
    end_line: int
    message: str


class FileIdentity(NamedTuple):
    """The paired-file a finding belongs to; one side is None when unpaired."""

    directory: str
    predecessor_filename: str | None
    successor_filename: str | None


class FindingKey(NamedTuple):
    tool: str
    vuln_type: str
    file: FileIdentity


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
    line_counts: dict[str, dict[tuple[str, str], int]] = {}  # per contract, built on first use
    for line_number, finding in _iter_ndjson(path, _finding_from_obj):
        findings.append(finding)
        if corpus is not None:
            diagnostics.extend(_cross_check(finding, corpus, line_number, line_counts))
    return findings, diagnostics


def _finding_from_obj(obj: object) -> Finding:
    if not isinstance(obj, dict):
        raise ValidationError("finding must be a JSON object")
    if obj.keys() != FINDING_FIELDS:
        _require_fields(obj, FINDING_FIELDS, "finding")
    tool, vuln_type, filename, message = (obj["tool"], obj["vuln_type"], obj["filename"],
                                          obj["message"])
    for field_name, value in (("tool", tool), ("vuln_type", vuln_type), ("filename", filename),
                              ("message", message)):
        if not isinstance(value, str):
            raise ValidationError(f"{field_name} must be a string")
    if not tool or not vuln_type:
        raise ValidationError("tool and vuln_type must be non-empty")
    start_line, end_line = obj["start_line"], obj["end_line"]
    for name, value in (("start_line", start_line), ("end_line", end_line)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if start_line > end_line:
        raise ValidationError(f"start_line {start_line} > end_line {end_line}")
    directory = obj["directory"]
    if not isinstance(directory, str):
        raise ValidationError("directory must be a string")
    contract = normalize_address(obj["contract"], "contract")
    return Finding(tool, vuln_type, contract, directory, filename, start_line, end_line, message)


def _cross_check(finding: Finding, corpus: Corpus, line_number: int,
                 line_counts: dict[str, dict[tuple[str, str], int]]) -> list[str]:
    if finding.contract not in line_counts:
        record = corpus.contracts.get(finding.contract)
        if record is None:
            return [f"line {line_number}: finding references unknown contract {finding.contract}"]
        line_counts[finding.contract] = {
            (file.directory, file.filename): len(file.content.splitlines()) for file in record.files
        }
    file_lines = line_counts[finding.contract].get((finding.directory, finding.filename))
    if file_lines is None:
        return [
            f"line {line_number}: finding references unknown file "
            f"{finding.directory!r}/{finding.filename!r} in {finding.contract}"
        ]
    if finding.end_line > file_lines:
        return [
            f"line {line_number}: finding lines {finding.start_line}-{finding.end_line} "
            f"exceed {finding.filename} length {file_lines}"
        ]
    return []


def diff_pair(
    file_pairs: list[FileMatch],
    pred_findings: list[Finding],
    succ_findings: list[Finding],
) -> dict[tuple[FindingKey, LifecycleStatus], int]:
    """Count each finding identity's fates across one version pair.

    For an identity seen p times on the predecessor and s times on the
    successor: min(p, s) PERSISTED, s-p extra INTRODUCED, p-s extra
    DISAPPEARED. Identities come in sorted order, each with its statuses in
    the order PERSISTED, DISAPPEARED, INTRODUCED; zero counts are left out.
    Only the matched file names of `file_pairs` are read, so the pairs of
    pairing.match_files serve as well as the scored pairs of pair_files.
    """
    pred_map: dict[tuple[str, str], FileIdentity] = {}
    succ_map: dict[tuple[str, str], FileIdentity] = {}
    for fp in file_pairs:
        # FileMatch and FilePair both lead with a FileIdentity's three fields
        identity = FileIdentity(*fp[:3])
        pred_map[fp.directory, fp.predecessor_filename] = identity
        succ_map[fp.directory, fp.successor_filename] = identity

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

    counts: dict[tuple[FindingKey, LifecycleStatus], int] = {}
    all_keys = sorted(
        set(pred_counts) | set(succ_counts),
        key=lambda k: (k.tool, k.vuln_type, k.file.directory,
                       k.file.predecessor_filename or "", k.file.successor_filename or ""),
    )
    for key in all_keys:
        p = pred_counts.get(key, 0)
        s = succ_counts.get(key, 0)
        for status, count in ((LifecycleStatus.PERSISTED, min(p, s)),
                              (LifecycleStatus.DISAPPEARED, p - s),
                              (LifecycleStatus.INTRODUCED, s - p)):
            if count > 0:
                counts[(key, status)] = count
    return counts


def _category_for(tool: str, vuln_type: str, category_map, mode: str,
                  unmapped: set[tuple[str, str]]) -> str:
    mapped = category_map.get(tool, {}).get(vuln_type)
    if mapped is not None:
        return mapped
    if mode == INTERSECTION:
        unmapped.add((tool, vuln_type))
    return f"{tool}:{vuln_type}"


def lifecycle_stats(
    diffs: dict[ContractPair, dict[tuple[FindingKey, LifecycleStatus], int]],
    mode: str = UNION,
    category_map: dict[str, dict[str, str]] | None = None,
) -> dict:
    """Summarize the diff_pair counts of each pair, combining tools by union or intersection.

    Counts are projected onto (pair, file, category, status) cells with a
    per-tool count; union takes the max across tools, intersection the min
    across every tool that has a finding. Intersection requires each observed
    vuln_type to be mapped to a shared category, otherwise a configuration
    error lists the unmapped types. A disappearance is weighted by the days
    from the predecessor's first activity to the successor's first activity,
    i.e. how long the vulnerable version was the live one before a
    warning-free successor took over. The returned summary reports
    percentages over three denominators (findings, keys, files) since each is
    a legitimate reading.
    """
    if mode not in (UNION, INTERSECTION):
        raise ConfigurationError(f"mode must be {UNION!r} or {INTERSECTION!r}, got {mode!r}")
    if category_map is None:
        category_map = DEFAULT_CATEGORY_MAP
    tools = sorted({key.tool for counts in diffs.values() for key, _ in counts})

    unmapped: set[tuple[str, str]] = set()
    status_counts = {status: 0 for status in LifecycleStatus}
    keys_seen: set[tuple] = set()
    keys_with: dict[LifecycleStatus, set[tuple]] = {s: set() for s in LifecycleStatus}
    files_seen: set[FileIdentity] = set()
    files_with: dict[LifecycleStatus, set[FileIdentity]] = {s: set() for s in LifecycleStatus}
    contracts: set[str] = set()
    proxies: set[str] = set()
    patched_without_new = 0
    disappear_weight = 0
    disappear_days = 0.0
    for pair, counts in diffs.items():
        # cell: (file identity, category, status) -> {tool: count}
        cells: dict[tuple, dict[str, int]] = {}
        for (key, status), count in counts.items():
            category = _category_for(key.tool, key.vuln_type, category_map, mode, unmapped)
            tool_counts = cells.setdefault((key.file, category, status), {})
            tool_counts[key.tool] = tool_counts.get(key.tool, 0) + count
        days_gone = (
            pair.successor_window.first_call - pair.predecessor_window.first_call
        ) / SECONDS_PER_DAY
        pair_files_with: dict[LifecycleStatus, set[FileIdentity]] = {
            s: set() for s in LifecycleStatus}
        for (identity, category, status), tool_counts in cells.items():
            if mode == UNION:
                value = max(tool_counts.values())
            else:
                value = min(tool_counts.get(tool, 0) for tool in tools)
            if not value:
                continue
            status_counts[status] += value
            key_id = (identity, category)
            keys_seen.add(key_id)
            keys_with[status].add(key_id)
            files_seen.add(identity)
            files_with[status].add(identity)
            pair_files_with[status].add(identity)
            proxies.add(pair.proxy)
            if status in (LifecycleStatus.PERSISTED, LifecycleStatus.DISAPPEARED):
                contracts.add(pair.predecessor)
            if status in (LifecycleStatus.PERSISTED, LifecycleStatus.INTRODUCED):
                contracts.add(pair.successor)
            if status is LifecycleStatus.DISAPPEARED:
                disappear_weight += value
                disappear_days += value * days_gone
        patched_without_new += len(pair_files_with[LifecycleStatus.DISAPPEARED]
                                   - pair_files_with[LifecycleStatus.INTRODUCED])
    if unmapped:
        listing = ", ".join(f"{tool}/{vt}" for tool, vt in sorted(unmapped))
        raise ConfigurationError(f"intersection mode requires categories for: {listing}")

    total = sum(status_counts.values())

    def pct(numerator: int, denominator: int) -> float | None:
        return 100.0 * numerator / denominator if denominator else None

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
        "patched_without_new_file_count": patched_without_new,
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
