"""Proxy-anchored lineage construction from delegatecall activity.

A lineage is the ordered list of implementation versions served through one
proxy. Classification applies four rules: every member must have been a
delegatecall callee of the lineage's proxy; a lineage needs at least two
versions; all members share one creator; and activity windows must be
strictly chronological with no overlap. Callees that fall out of the
classification are never dropped silently: each one lands in the diagnostics
with a reason code, so members plus exclusions always account for every
(proxy, callee) observation.
"""

from __future__ import annotations

import math
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


def build_lineages(corpus: Corpus) -> tuple[list[Lineage], LineageDiagnostics]:
    """Classify every proxy's callees into a lineage or a diagnosed exclusion.

    Per proxy: callees without contract metadata are excluded as
    UNRESOLVED_METADATA; the rest are partitioned by creator and the largest
    group wins (ties: earliest first activity, then lexicographic creator),
    losing groups excluded as NOT_SAME_CREATOR. The winning group is sorted
    by first activity (ties by address) and greedily chained, keeping a
    version only when its first call is strictly after the last kept
    version's last call; dropped versions are OVERLAPPING_WINDOW. A chain
    shorter than two versions yields no lineage and its survivors are
    SINGLETON. Output is sorted by proxy address and independent of input
    event order.
    """
    windows = activity_windows(corpus)
    callees_by_proxy: dict[str, set[str]] = {}
    for proxy, callee in windows:
        callees_by_proxy.setdefault(proxy, set()).add(callee)

    lineages: list[Lineage] = []
    exclusions: list[ExcludedCallee] = []

    for proxy in sorted(callees_by_proxy):
        groups: dict[str, list[str]] = {}
        for callee in sorted(callees_by_proxy[proxy]):
            record = corpus.contracts.get(callee)
            if record is None:
                exclusions.append(ExcludedCallee(proxy, callee, ExclusionReason.UNRESOLVED_METADATA))
            else:
                groups.setdefault(record.creator, []).append(callee)
        if not groups:
            continue

        def group_rank(creator: str) -> tuple[int, int, str]:
            members = groups[creator]
            earliest = min(windows[(proxy, c)].first_call for c in members)
            return (-len(members), earliest, creator)

        winner = min(groups, key=group_rank)
        for creator in groups:
            if creator == winner:
                continue
            for callee in groups[creator]:
                exclusions.append(ExcludedCallee(proxy, callee, ExclusionReason.NOT_SAME_CREATOR))

        ordered = sorted(groups[winner], key=lambda c: (windows[(proxy, c)].first_call, c))
        kept: list[LineageVersion] = []
        for callee in ordered:
            window = windows[(proxy, callee)]
            if kept and window.first_call <= kept[-1].window.last_call:
                exclusions.append(ExcludedCallee(proxy, callee, ExclusionReason.OVERLAPPING_WINDOW))
                continue
            kept.append(LineageVersion(address=callee, window=window))

        if len(kept) >= 2:
            lineages.append(Lineage(proxy=proxy, creator=winner, versions=tuple(kept)))
        else:
            for version in kept:
                exclusions.append(ExcludedCallee(proxy, version.address, ExclusionReason.SINGLETON))

    exclusions.sort(key=lambda e: (e.proxy, e.callee))
    return lineages, LineageDiagnostics(exclusions=exclusions)


def broken_rule(lineage: Lineage, contracts: dict[str, ContractRecord]) -> str | None:
    """The first rule of build_lineages that `lineage` breaks, or None: it has two versions
    or more, each version's contract (in `contracts`) has the lineage's creator, and the
    windows run previous.last_call < first_call <= last_call."""
    if len(lineage.versions) < 2:
        return f"lineage of proxy {lineage.proxy} has fewer than two versions"
    previous_last = -math.inf
    for address, (first, last) in lineage.versions:
        where = f"version {address} of proxy {lineage.proxy}"
        if contracts[address].creator != lineage.creator:
            return f"{where}: creator {contracts[address].creator} is not the lineage's {lineage.creator}"
        if first > last:
            return f"{where}: first_call {first} is after last_call {last}"
        if first <= previous_last:
            return f"{where}: first_call {first} is not after the previous last_call {previous_last}"
        previous_last = last
    return None


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
