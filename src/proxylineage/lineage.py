"""Proxy-anchored lineage construction from delegatecall activity.

A lineage is the ordered list of implementation versions served through one
proxy. `classify_callees` owns the four rules: every member must have been a
delegatecall callee of the lineage's proxy; a lineage needs at least two
versions; all members share one creator; and activity windows must be
strictly chronological with no overlap. `build_lineages` applies it to each
proxy of a corpus, and the dataset bundle check re-applies it to each lineage
it reads. Callees that fall out of the classification are never dropped
silently: each one lands in the diagnostics with a reason code, so members
plus exclusions always account for every (proxy, callee) observation.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .corpus import ContractRecord, Corpus

SECONDS_PER_DAY = 86400.0


class ActivityWindow(NamedTuple):
    """First and last observed delegatecall times for one (proxy, callee)."""

    first_call: int
    last_call: int


class LineageVersion(NamedTuple):
    address: str
    window: ActivityWindow


class Lineage(NamedTuple):
    proxy: str
    creator: str
    versions: tuple[LineageVersion, ...]


class ContractPair(NamedTuple):
    """Adjacent predecessor/successor versions within one lineage."""

    proxy: str
    predecessor: str
    successor: str
    gap_days: float
    predecessor_window: ActivityWindow
    successor_window: ActivityWindow


class ExclusionReason(str, Enum):
    NOT_SAME_CREATOR = "NOT_SAME_CREATOR"
    OVERLAPPING_WINDOW = "OVERLAPPING_WINDOW"
    SINGLETON = "SINGLETON"
    UNRESOLVED_METADATA = "UNRESOLVED_METADATA"


class ExcludedCallee(NamedTuple):
    proxy: str
    callee: str
    reason: ExclusionReason


class LineageDiagnostics(NamedTuple):
    """Audit trail: every excluded (proxy, callee) with its reason."""

    exclusions: list[ExcludedCallee]


def activity_windows(corpus: Corpus) -> dict[tuple[str, str], ActivityWindow]:
    """Min/max delegatecall timestamp per (proxy, callee) observation."""
    bounds: dict[tuple[str, str], tuple[int, int]] = {}
    for _, _, proxy, callee, _, timestamp in corpus.events:
        key = (proxy, callee)
        window = bounds.get(key)
        if window is None:
            bounds[key] = (timestamp, timestamp)
        elif timestamp > window[1]:
            bounds[key] = (window[0], timestamp)
        elif timestamp < window[0]:
            bounds[key] = (timestamp, window[1])
    return {key: ActivityWindow(first, last) for key, (first, last) in bounds.items()}


def classify_callees(proxy: str, windows: dict[str, ActivityWindow],
                     contracts: dict[str, ContractRecord],
                     ) -> tuple[Lineage | None, list[ExcludedCallee]]:
    """The lineage of `proxy`, if any, and its excluded callees, from each callee's window.

    Callees without a record in `contracts` are excluded as UNRESOLVED_METADATA;
    the rest are partitioned by creator and the largest group wins (ties:
    earliest first activity, then lexicographic creator), losing groups
    excluded as NOT_SAME_CREATOR. The winning group is sorted by first activity
    (ties by address) and greedily chained, keeping a version only when its
    first call is strictly after the last kept version's last call; dropped
    versions are OVERLAPPING_WINDOW. A chain shorter than two versions yields
    no lineage and its survivors are SINGLETON. The windows are taken as given.
    """
    exclusions: list[ExcludedCallee] = []
    groups: dict[str, list[str]] = {}
    for callee in sorted(windows):
        record = contracts.get(callee)
        if record is None:
            exclusions.append(ExcludedCallee(proxy, callee, ExclusionReason.UNRESOLVED_METADATA))
        else:
            groups.setdefault(record.creator, []).append(callee)
    if not groups:
        return None, exclusions

    def group_rank(creator: str) -> tuple[int, int, str]:
        members = groups[creator]
        return (-len(members), min(windows[c].first_call for c in members), creator)

    winner = min(groups, key=group_rank)
    for creator, callees in groups.items():
        if creator != winner:
            exclusions.extend(ExcludedCallee(proxy, c, ExclusionReason.NOT_SAME_CREATOR)
                              for c in callees)

    kept: list[LineageVersion] = []
    for callee in sorted(groups[winner], key=lambda c: (windows[c].first_call, c)):
        window = windows[callee]
        if kept and window.first_call <= kept[-1].window.last_call:
            exclusions.append(ExcludedCallee(proxy, callee, ExclusionReason.OVERLAPPING_WINDOW))
        else:
            kept.append(LineageVersion(address=callee, window=window))
    if len(kept) >= 2:
        return Lineage(proxy=proxy, creator=winner, versions=tuple(kept)), exclusions
    exclusions.extend(ExcludedCallee(proxy, v.address, ExclusionReason.SINGLETON) for v in kept)
    return None, exclusions


def build_lineages(corpus: Corpus) -> tuple[list[Lineage], LineageDiagnostics]:
    """Classify every proxy's callees (see `classify_callees`) into a lineage or a diagnosed
    exclusion. Output is sorted by proxy address and independent of input event order."""
    windows_by_proxy: dict[str, dict[str, ActivityWindow]] = {}
    for (proxy, callee), window in activity_windows(corpus).items():
        windows_by_proxy.setdefault(proxy, {})[callee] = window

    lineages: list[Lineage] = []
    exclusions: list[ExcludedCallee] = []
    for proxy in sorted(windows_by_proxy):
        lineage, excluded = classify_callees(proxy, windows_by_proxy[proxy], corpus.contracts)
        if lineage is not None:
            lineages.append(lineage)
        exclusions.extend(excluded)
    exclusions.sort(key=lambda e: (e.proxy, e.callee))
    return lineages, LineageDiagnostics(exclusions=exclusions)


def contract_pairs(lineages: list[Lineage]) -> list[ContractPair]:
    """Adjacent version pairs; a lineage of length n yields exactly n-1 pairs.

    A pair's gap is the days from the predecessor's last call to the successor's first.
    """
    pairs: list[ContractPair] = []
    for lineage in lineages:
        for earlier, later in zip(lineage.versions, lineage.versions[1:]):
            pairs.append(
                ContractPair(
                    proxy=lineage.proxy,
                    predecessor=earlier.address,
                    successor=later.address,
                    gap_days=(later.window.first_call - earlier.window.last_call) / SECONDS_PER_DAY,
                    predecessor_window=earlier.window,
                    successor_window=later.window,
                )
            )
    return pairs


def lineage_rows(lineages: list[Lineage]) -> list[dict]:
    """Rows of lineages.json; a version's row is its address and activity window."""
    return [
        lineage._asdict() | {"versions": [{"address": v.address, **v.window._asdict()}
                                          for v in lineage.versions]}
        for lineage in lineages
    ]


def lineage_diagnostics_obj(corpus_diagnostics: list[str], lineage: LineageDiagnostics) -> dict:
    """The diagnostics of the lineage stage; the bundle's diagnostics.json extends them."""
    return {
        "corpus": list(corpus_diagnostics),
        "lineage_exclusions": [e._asdict() | {"reason": e.reason.value}
                               for e in lineage.exclusions],
    }
