"""Pair source files and functions across predecessor/successor versions.

Filenames drift slightly between versions (LandRegistryV2.sol becomes
LandRegistryV3.sol), so files are matched within a shared directory by
filename. Functions are matched first on identical canonical signatures, then
by name. Both name matchings follow one rule, which _pair_names writes once:
every two names within MAX_NAME_DISTANCE (2) edits are a candidate, and
candidates are taken greedily in ascending order, each file or function at
most once, so the result is deterministic and one-to-one. The order is by
edit distance, then
- for files: predecessor filename, then successor filename;
- for functions: predecessor name, successor name, predecessor start line,
  then successor start line; remaining ties keep source order.
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


def _pair_names(left: list, right: list, name, key) -> list[tuple[int, int, int]]:
    """The name rule of the module docstring, for items whose names are name(item): every
    (i, j) whose names are within MAX_NAME_DISTANCE edits is a candidate, and candidates are
    taken in ascending key(distance, left[i], right[j]) order, ties in (i, j) order, each
    index at most once. Returns the (distance, i, j) triples taken, in the order taken."""
    candidates = [(distance, i, j) for i, a in enumerate(left) for j, b in enumerate(right)
                  if (distance := levenshtein(name(a), name(b))) <= MAX_NAME_DISTANCE]
    taken = []
    used_left: set[int] = set()
    used_right: set[int] = set()
    for distance, i, j in sorted(candidates, key=lambda c: key(c[0], left[c[1]], right[c[2]])):
        if i not in used_left and j not in used_right:
            used_left.add(i)
            used_right.add(j)
            taken.append((distance, i, j))
    return taken


def _without(items: list, indices: set[int]) -> list:
    return [item for i, item in enumerate(items) if i not in indices]


def match_files(pred: ContractRecord, succ: ContractRecord) -> FilePairing:
    """Match files of two versions within shared directories, by the name rule of the module
    docstring. Non-open-source input yields an empty result flagged NOT_OPEN_SOURCE."""
    if not pred.open_source or not succ.open_source:
        return FilePairing(pairs=[], unpaired_predecessor=[], unpaired_successor=[],
                           flag=NOT_OPEN_SOURCE)

    pred_by_dir: dict[str, list[str]] = {}
    succ_by_dir: dict[str, list[str]] = {}
    for f in pred.files:
        pred_by_dir.setdefault(f.directory, []).append(f.filename)
    for f in succ.files:
        succ_by_dir.setdefault(f.directory, []).append(f.filename)

    pairing = FilePairing(pairs=[], unpaired_predecessor=[], unpaired_successor=[])
    # a record's files are in (directory, filename) order, so each list comes out in it too
    for directory in sorted(pred_by_dir.keys() | succ_by_dir.keys()):
        pnames, snames = pred_by_dir.get(directory, []), succ_by_dir.get(directory, [])
        taken = _pair_names(pnames, snames, str, lambda d, p, s: (d, p, s))
        pairing.pairs.extend(sorted(FileMatch(directory, pnames[i], snames[j], distance)
                                    for distance, i, j in taken))
        pairing.unpaired_predecessor.extend(
            (directory, name) for name in _without(pnames, {i for _, i, _ in taken}))
        pairing.unpaired_successor.extend(
            (directory, name) for name in _without(snames, {j for _, _, j in taken}))
    return pairing


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


def _by_signature(units: list[FunctionUnit]) -> dict[str, list[int]]:
    """The indices of `units` under each signature, in source order (start line, then name)."""
    groups: dict[str, list[int]] = {}
    for i in sorted(range(len(units)), key=lambda i: (units[i].start_line, units[i].name)):
        groups.setdefault(units[i].signature, []).append(i)
    return groups


def pair_functions(
    fp: FilePair,
    pred_units: list[FunctionUnit],
    succ_units: list[FunctionUnit],
) -> FunctionPairing:
    """One-to-one function matching across a file pair.

    Phase 1 pairs identical canonical signatures (duplicates matched in
    source order); phase 2 pairs the leftovers by the name rule of the
    module docstring.
    """
    pred_by_sig = _by_signature(pred_units)
    succ_by_sig = _by_signature(succ_units)
    exact = [(i, j) for signature in sorted(pred_by_sig.keys() & succ_by_sig.keys())
             for i, j in zip(pred_by_sig[signature], succ_by_sig[signature])]
    pairs = [FunctionPair(fp, pred_units[i], succ_units[j], MatchKind.EXACT_SIGNATURE)
             for i, j in exact]
    pred_left = _without(pred_units, {i for i, _ in exact})
    succ_left = _without(succ_units, {j for _, j in exact})

    fuzzy = _pair_names(pred_left, succ_left, lambda u: u.name,
                        lambda d, p, s: (d, p.name, s.name, p.start_line, s.start_line))
    pairs += [FunctionPair(fp, pred_left[i], succ_left[j], MatchKind.FUZZY_NAME)
              for _, i, j in fuzzy]

    pairs.sort(key=lambda p: (p.predecessor.start_line, p.successor.start_line, p.predecessor.name))
    return FunctionPairing(
        pairs=pairs,
        unpaired_predecessor=_without(pred_left, {i for _, i, _ in fuzzy}),
        unpaired_successor=_without(succ_left, {j for _, _, j in fuzzy}),
    )
