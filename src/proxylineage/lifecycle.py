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

from collections import Counter
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .corpus import (Corpus, _fields, _iter_ndjson, _line_count, _line_span, _memo_normalize,
                     _text, normalize_address, read_json)
from .errors import ConfigurationError, ValidationError
from .lineage import ContractPair, SECONDS_PER_DAY
from .pairing import FileMatch

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
    contracts: dict[str, str] = {}  # contract spellings already normalized
    for line_number, finding in _iter_ndjson(path, lambda obj: _finding_from_obj(obj, contracts)):
        findings.append(finding)
        if corpus is not None:
            diagnostics.extend(_cross_check(finding, corpus, line_number, line_counts))
    return findings, diagnostics


def _finding_from_obj(obj: object, contracts: dict[str, str]) -> Finding:
    """Validate one findings row; `contracts` holds the contract spellings already normalized."""
    try:
        if len(obj) != len(Finding._fields):
            raise KeyError
        tool, vuln_type, contract, directory = (obj["tool"], obj["vuln_type"], obj["contract"],
                                                obj["directory"])
        filename, start_line, end_line, message = (obj["filename"], obj["start_line"],
                                                   obj["end_line"], obj["message"])
    except (KeyError, TypeError):  # not an object, a field missing or another present
        _fields(obj, Finding._fields, "finding")
    if not (type(tool) is type(vuln_type) is type(directory) is type(filename)
            is type(message) is str):
        for name in ("tool", "vuln_type", "directory", "filename", "message"):
            _text(obj[name], name)
    if not tool or not vuln_type:
        raise ValidationError("tool and vuln_type must be non-empty")
    _line_span(start_line, end_line)
    contract = _memo_normalize(contracts, contract, normalize_address, "contract")
    # tuple.__new__ skips the Python-level __new__ of a NamedTuple, as the trace reader does
    return tuple.__new__(Finding, (tool, vuln_type, contract, directory, filename, start_line,
                                   end_line, message))


def _cross_check(finding: Finding, corpus: Corpus, line_number: int,
                 line_counts: dict[str, dict[tuple[str, str], int]]) -> list[str]:
    if finding.contract not in line_counts:
        record = corpus.contracts.get(finding.contract)
        if record is None:
            return [f"line {line_number}: finding references unknown contract {finding.contract}"]
        line_counts[finding.contract] = {
            (file.directory, file.filename): _line_count(file.content) for file in record.files
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

    pred_counts = Counter(
        FindingKey(f.tool, f.vuln_type, pred_map.get((f.directory, f.filename))
                   or FileIdentity(f.directory, f.filename, None))
        for f in pred_findings)
    succ_counts = Counter(
        FindingKey(f.tool, f.vuln_type, succ_map.get((f.directory, f.filename))
                   or FileIdentity(f.directory, None, f.filename))
        for f in succ_findings)

    counts: dict[tuple[FindingKey, LifecycleStatus], int] = {}
    all_keys = sorted(
        pred_counts.keys() | succ_counts.keys(),
        key=lambda k: (k.tool, k.vuln_type, k.file.directory,
                       k.file.predecessor_filename or "", k.file.successor_filename or ""),
    )
    for key in all_keys:
        p, s = pred_counts[key], succ_counts[key]
        for status, count in ((LifecycleStatus.PERSISTED, min(p, s)),
                              (LifecycleStatus.DISAPPEARED, p - s),
                              (LifecycleStatus.INTRODUCED, s - p)):
            if count > 0:
                counts[(key, status)] = count
    return counts


def lifecycle_stats(
    diffs: dict[ContractPair, dict[tuple[FindingKey, LifecycleStatus], int]],
    mode: str = UNION,
    category_map: dict[str, dict[str, str]] | None = None,
) -> dict:
    """Summarize the diff_pair counts of each pair, combining tools by union or intersection.

    Counts are projected onto (pair, file, category, status) cells with a
    per-tool count; union takes the max across tools, intersection the min
    across every tool that has a finding. Every figure is read from the
    non-zero cells. Intersection first requires each observed vuln_type to be
    mapped to a shared category, otherwise a configuration error lists the
    unmapped types. A disappearance is weighted by the days from the
    predecessor's first activity to the successor's first activity, i.e. how
    long the vulnerable version was the live one before a warning-free
    successor took over. The returned summary reports percentages over three
    denominators (findings, keys, files) since each is a legitimate reading.
    """
    if mode not in (UNION, INTERSECTION):
        raise ConfigurationError(f"mode must be {UNION!r} or {INTERSECTION!r}, got {mode!r}")
    if category_map is None:
        category_map = DEFAULT_CATEGORY_MAP
    kinds = {(key.tool, key.vuln_type) for counts in diffs.values() for key, _ in counts}
    tools = sorted({tool for tool, _ in kinds})
    category_of = {kind: category_map.get(kind[0], {}).get(kind[1]) for kind in kinds}
    unmapped = sorted(kind for kind, category in category_of.items() if category is None)
    if unmapped and mode == INTERSECTION:
        listing = ", ".join(f"{tool}/{vt}" for tool, vt in unmapped)
        raise ConfigurationError(f"intersection mode requires categories for: {listing}")
    category_of.update((kind, f"{kind[0]}:{kind[1]}") for kind in unmapped)

    # (pair index, file identity, category, status) -> {tool: count}, over every pair
    pairs = list(diffs)
    table: dict[tuple, dict[str, int]] = {}
    for index, counts in enumerate(diffs.values()):
        for (key, status), count in counts.items():
            tool_counts = table.setdefault(
                (index, key.file, category_of[key.tool, key.vuln_type], status), {})
            tool_counts[key.tool] = tool_counts.get(key.tool, 0) + count
    # per status, the non-zero cells as (pair index, file identity, category, value), in table order
    cells: dict[LifecycleStatus, list[tuple]] = {status: [] for status in LifecycleStatus}
    for (index, identity, category, status), tool_counts in table.items():
        value = (max(tool_counts.values()) if mode == UNION
                 else min(tool_counts.get(tool, 0) for tool in tools))
        if value:
            cells[status].append((index, identity, category, value))

    I, D, P = LifecycleStatus.INTRODUCED, LifecycleStatus.DISAPPEARED, LifecycleStatus.PERSISTED
    findings = {status: sum(value for _, _, _, value in rows) for status, rows in cells.items()}
    keys_with = {status: {(identity, category) for _, identity, category, _ in rows}
                 for status, rows in cells.items()}
    files_with = {status: {identity for _, identity, _, _ in rows}
                  for status, rows in cells.items()}
    pairs_with = {status: {index for index, _, _, _ in rows} for status, rows in cells.items()}
    keys = set().union(*keys_with.values())
    files = set().union(*files_with.values())
    contracts = ({pairs[index].predecessor for index in pairs_with[P] | pairs_with[D]}
                 | {pairs[index].successor for index in pairs_with[P] | pairs_with[I]})
    proxies = {pairs[index].proxy for index in set().union(*pairs_with.values())}
    patched_without_new = len({(index, identity) for index, identity, _, _ in cells[D]}
                              - {(index, identity) for index, identity, _, _ in cells[I]})
    days_gone = [(pair.successor_window.first_call - pair.predecessor_window.first_call)
                 / SECONDS_PER_DAY for pair in pairs]
    disappear_days = 0.0  # summed in pair-then-cell order, which fixes the float's last bits
    for index, _, _, value in cells[D]:
        disappear_days += value * days_gone[index]
    total = sum(findings.values())

    def percents(status: LifecycleStatus) -> dict[str, float | None]:
        shares = {"of_findings": (findings[status], total),
                  "of_keys": (len(keys_with[status]), len(keys)),
                  "of_files": (len(files_with[status]), len(files))}
        return {name: 100.0 * part / whole if whole else None
                for name, (part, whole) in shares.items()}

    return {
        "mode": mode,
        "tools": tools,
        "findings": {"total": total, "introduced": findings[I], "persisted": findings[P],
                     "disappeared": findings[D]},
        "distinct_keys": len(keys),
        "vulnerable_files": len(files),
        "vulnerable_contracts": len(contracts),
        "lineages_touched": len(proxies),
        "percent_introduced": percents(I),
        "percent_disappeared": percents(D),
        "mean_days_to_disappear": disappear_days / findings[D] if findings[D] else None,
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
