"""Pair source files and functions across predecessor/successor versions.

Filenames drift slightly between versions (LandRegistryV2.sol becomes
LandRegistryV3.sol), so files are matched within a shared directory by edit
distance up to two characters. Functions are matched first on identical
canonical signatures, then fuzzily on names within the same distance bound.
Both matchings are greedy, deterministic and one-to-one.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .corpus import ContractRecord
from .textmetrics import lcs_length, levenshtein

if TYPE_CHECKING:  # vuln-lifecycle matches files only and never loads the extractor
    from .solidity import FunctionUnit

MAX_NAME_DISTANCE = 2
NOT_OPEN_SOURCE = "NOT_OPEN_SOURCE"


class FileMatch(NamedTuple):
    """Matched file versions within one directory, by filename alone."""

    directory: str
    predecessor_filename: str
    successor_filename: str
    name_distance: int


class FilePair(NamedTuple):
    """Matched file versions plus their similarity rates: FileMatch's fields, then two.

    line_similarity is |LCS over lines| / max(line counts);
    content_similarity is the same ratio over characters. Two empty files
    count as identical (1.0).
    """

    directory: str
    predecessor_filename: str
    successor_filename: str
    name_distance: int
    line_similarity: float
    content_similarity: float


class FilePairing(NamedTuple):
    """The file pairs of two versions: FileMatch pairs from match_files,
    FilePair pairs from pair_files."""

    pairs: list[FileMatch]
    unpaired_predecessor: list[tuple[str, str]]
    unpaired_successor: list[tuple[str, str]]
    flag: str | None = None


class MatchKind(str, Enum):
    EXACT_SIGNATURE = "EXACT_SIGNATURE"
    FUZZY_NAME = "FUZZY_NAME"


class FunctionPair(NamedTuple):
    file_pair: FilePair
    predecessor: FunctionUnit
    successor: FunctionUnit
    match_kind: MatchKind


class FunctionPairing(NamedTuple):
    pairs: list[FunctionPair]
    unpaired_predecessor: list[FunctionUnit]
    unpaired_successor: list[FunctionUnit]


def line_similarity(pred_content: str, succ_content: str) -> float:
    a = pred_content.splitlines()
    b = succ_content.splitlines()
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return lcs_length(a, b) / max(len(a), len(b))


def content_similarity(pred_content: str, succ_content: str) -> float:
    if not pred_content and not succ_content:
        return 1.0
    if not pred_content or not succ_content:
        return 0.0
    return lcs_length(pred_content, succ_content) / max(len(pred_content), len(succ_content))


def match_files(pred: ContractRecord, succ: ContractRecord) -> FilePairing:
    """Match files of two versions within shared directories, by name alone.

    Candidates are ranked by ascending filename edit distance (0, then 1,
    then 2; never beyond), ties broken lexicographically by predecessor then
    successor filename; each file is used at most once. Non-open-source input
    yields an empty result flagged NOT_OPEN_SOURCE.
    """
    if not pred.open_source or not succ.open_source:
        return FilePairing(pairs=[], unpaired_predecessor=[], unpaired_successor=[],
                           flag=NOT_OPEN_SOURCE)

    pred_by_dir: dict[str, list[str]] = {}
    succ_by_dir: dict[str, list[str]] = {}
    for f in pred.files:
        pred_by_dir.setdefault(f.directory, []).append(f.filename)
    for f in succ.files:
        succ_by_dir.setdefault(f.directory, []).append(f.filename)

    matches: list[FileMatch] = []
    used_pred: set[tuple[str, str]] = set()
    used_succ: set[tuple[str, str]] = set()
    for directory in sorted(set(pred_by_dir) & set(succ_by_dir)):
        candidates = []
        for pname in pred_by_dir[directory]:
            for sname in succ_by_dir[directory]:
                distance = levenshtein(pname, sname)
                if distance <= MAX_NAME_DISTANCE:
                    candidates.append((distance, pname, sname))
        candidates.sort()
        for distance, pname, sname in candidates:
            pkey = (directory, pname)
            skey = (directory, sname)
            if pkey in used_pred or skey in used_succ:
                continue
            used_pred.add(pkey)
            used_succ.add(skey)
            matches.append(FileMatch(directory, pname, sname, distance))

    matches.sort(key=lambda m: (m.directory, m.predecessor_filename, m.successor_filename))
    # a record's files are in (directory, filename) order, so the unpaired ones are too
    return FilePairing(
        pairs=matches,
        unpaired_predecessor=[(f.directory, f.filename) for f in pred.files
                              if (f.directory, f.filename) not in used_pred],
        unpaired_successor=[(f.directory, f.filename) for f in succ.files
                            if (f.directory, f.filename) not in used_succ],
    )


def _contents(record: ContractRecord) -> dict[tuple[str, str], str]:
    return {(f.directory, f.filename): f.content for f in record.files}


def pair_files(pred: ContractRecord, succ: ContractRecord) -> FilePairing:
    """match_files plus the line and content similarity of each matched pair."""
    pairing = match_files(pred, succ)
    pred_contents = _contents(pred)
    succ_contents = _contents(succ)
    pairs = []
    for m in pairing.pairs:
        a = pred_contents[m.directory, m.predecessor_filename]
        b = succ_contents[m.directory, m.successor_filename]
        pairs.append(FilePair(*m, line_similarity(a, b), content_similarity(a, b)))
    return pairing._replace(pairs=pairs)


def pair_functions(
    fp: FilePair,
    pred_units: list[FunctionUnit],
    succ_units: list[FunctionUnit],
) -> FunctionPairing:
    """One-to-one function matching across a file pair.

    Phase 1 pairs identical canonical signatures (duplicates matched in
    source order); phase 2 pairs leftovers whose names are within edit
    distance 2, greedily by ascending distance with lexicographic
    tie-breaking.
    """
    pairs: list[FunctionPair] = []
    pred_left = list(pred_units)
    succ_left = list(succ_units)

    pred_by_sig: dict[str, list[FunctionUnit]] = {}
    for unit in sorted(pred_left, key=lambda u: (u.start_line, u.name)):
        pred_by_sig.setdefault(unit.signature, []).append(unit)
    succ_by_sig: dict[str, list[FunctionUnit]] = {}
    for unit in sorted(succ_left, key=lambda u: (u.start_line, u.name)):
        succ_by_sig.setdefault(unit.signature, []).append(unit)

    matched_pred: set[int] = set()
    matched_succ: set[int] = set()
    for signature in sorted(set(pred_by_sig) & set(succ_by_sig)):
        for pu, su in zip(pred_by_sig[signature], succ_by_sig[signature]):
            pairs.append(FunctionPair(fp, pu, su, MatchKind.EXACT_SIGNATURE))
            matched_pred.add(id(pu))
            matched_succ.add(id(su))

    pred_left = [u for u in pred_left if id(u) not in matched_pred]
    succ_left = [u for u in succ_left if id(u) not in matched_succ]

    candidates = []
    for pu in pred_left:
        for su in succ_left:
            distance = levenshtein(pu.name, su.name)
            if distance <= MAX_NAME_DISTANCE:
                candidates.append((distance, pu.name, su.name, pu.start_line, su.start_line, pu, su))
    candidates.sort(key=lambda c: c[:5])
    for distance, _, _, _, _, pu, su in candidates:
        if id(pu) in matched_pred or id(su) in matched_succ:
            continue
        matched_pred.add(id(pu))
        matched_succ.add(id(su))
        pairs.append(FunctionPair(fp, pu, su, MatchKind.FUZZY_NAME))

    pairs.sort(key=lambda p: (p.predecessor.start_line, p.successor.start_line, p.predecessor.name))
    return FunctionPairing(
        pairs=pairs,
        unpaired_predecessor=[u for u in pred_left if id(u) not in matched_pred],
        unpaired_successor=[u for u in succ_left if id(u) not in matched_succ],
    )
