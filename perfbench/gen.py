"""Seeded input generators for the perfbench workloads.

    python3 perfbench/gen.py --workload bundle-bigfiles --seed 1 --out DIR

Writes the fixture files that one workload's commands read, plus
``expect.json`` with the facts the output checks compare against. The same
(workload, seed) always yields the same bytes. The patterns follow the
repository's test-corpus generators but are written out here, so that edits
to the tests cannot move a workload.

Sizes are fixed per workload and only contents vary with the seed, so that
the work done per pass (and with it the timing) stays comparable across
seeds.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

T0 = 1_600_000_000
BLOCK0 = 11_000_000
DAY = 86_400

UPGRADE_TO = "0x3659cfe6"  # upgradeTo(address)
UPGRADE_TO_AND_CALL = "0x4f1ef286"  # upgradeToAndCall(address,bytes)
OTHER_SELECTORS = [
    "0xa9059cbb", "0x095ea7b3", "0x23b872dd", "0x70a08231", "0x18160ddd",
    "0x40c10f19", "0x42966c68", "0xd0e30db0", "0x2e1a7d4d", "0x8da5cb5b",
    "0xf2fde38b", "0x8456cb59", "0x3f4ba83a", "0x5c975abb",
]

VERBS = ["set", "get", "update", "claim", "stake", "withdraw", "deposit", "mint", "burn",
         "transfer", "approve", "pause", "sync", "harvest", "rebalance", "settle", "accrue",
         "sweep", "lock", "release"]
NOUNS = ["Reward", "Fee", "Owner", "Pool", "Vault", "Price", "Oracle", "Limit", "Share",
         "Balance", "Epoch", "Rate", "Token", "Treasury", "Delay", "Quota", "Debt", "Index",
         "Bonus", "Cap"]
WORDS = ["the", "caller", "amount", "owner", "when", "paused", "reward", "index", "stored",
         "current", "epoch", "fee", "share", "update", "before", "after", "checks", "rounding"]


# --- addresses and trace rows ------------------------------------------------

class Addresses:
    """Unique random 20-byte addresses, lowercase hex."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def new(self) -> str:
        while True:
            address = "0x%040x" % self.rng.getrandbits(160)
            if address not in self.used:
                self.used.add(address)
                return address


def mixed_case(rng: random.Random, address: str) -> str:
    """Checksum-style casing; the program must normalize it."""
    return "0x" + "".join(c.upper() if c.isalpha() and rng.random() < 0.5 else c
                          for c in address[2:])


def block_of(timestamp: int) -> int:
    return BLOCK0 + (timestamp - T0) // 12


def event_row(proxy: str, callee: str, timestamp: int, selector: str, tx_id: str) -> dict:
    return {
        "proxy_address": proxy,
        "callee_address": callee,
        "timestamp": timestamp,
        "block_number": block_of(timestamp),
        "selector": selector,
        "tx_id": tx_id,
    }


def tx_hash(rng: random.Random) -> str:
    return "0x%064x" % rng.getrandbits(256)


def pick_selector(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.01:
        return UPGRADE_TO
    if roll < 0.015:
        return UPGRADE_TO_AND_CALL
    return rng.choice(OTHER_SELECTORS)


def window_events(rng: random.Random, proxy: str, callee: str, first: int, last: int,
                  count: int) -> list[dict]:
    """`count` events whose timestamps span exactly [first, last]."""
    stamps = [first, last] + [rng.randint(first, last) for _ in range(max(0, count - 2))]
    return [event_row(proxy, callee, ts, pick_selector(rng), tx_hash(rng))
            for ts in stamps[:max(count, 1)]]


def contract_row(address: str, creator: str, deploy_timestamp: int, files: list[dict]) -> dict:
    return {
        "address": address,
        "creator": creator,
        "deploy_timestamp": deploy_timestamp,
        "verified": bool(files),
        "open_source": bool(files),
        "files": files,
    }


def write_ndjson(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


# --- Solidity sources --------------------------------------------------------

class SolidityWriter:
    """Production-shaped Solidity: natspec, modifiers, events, strings, comments.

    `suffix` is appended to every identifier the writer invents, so two
    writers with different suffixes share only keywords and punctuation.
    The code's shape (statement kinds and counts) comes from `shape_key`
    alone and the values (names, numbers, words) from `rng`, so file sizes,
    and with them the pairing work, barely move with the seed.
    """

    def __init__(self, rng: random.Random, suffix: str = "", shape_key: str = ""):
        self.rng = rng
        self.shape = random.Random(f"shape:{shape_key}:{suffix}")
        self.suffix = suffix
        self.maps = [f"{w.lower()}Of{suffix}" for w in NOUNS[:8]]
        self.scalars = [f"total{w}{suffix}" for w in NOUNS[8:16]]
        self.events = [f"{w}Updated{suffix}" for w in NOUNS[:6]]

    def name(self, verb: str, noun: str) -> str:
        return f"{verb}{noun}{self.suffix}"

    def statement(self) -> list[str]:
        rng = self.rng
        m, s, e = rng.choice(self.maps), rng.choice(self.scalars), rng.choice(self.events)
        n = rng.randint(1000, 9999)
        kind = self.shape.randrange(9)
        if kind == 0:
            return [f'require(account != address(0), "{rng.choice(NOUNS)}: zero {rng.choice(WORDS)}");']
        if kind == 1:
            return [f"{m}[account] += amount / {n};"]
        if kind == 2:
            return [f"{m}[account] = {m}[account] - amount * {n} / 1e18;"]
        if kind == 3:
            return [f"emit {e}(account, amount, {n});"]
        if kind == 4:
            return [f"if (amount > {n}) {{", f"    {s} = amount - {n};", "}"]
        if kind == 5:
            return [f"uint256 scaled{n} = (amount * {n}) / {s};", f"{s} += scaled{n};"]
        if kind == 6:
            return [f"// {' '.join(rng.choice(WORDS) for _ in range(self.shape.randint(3, 8)))}"]
        if kind == 7:
            return [f"{s} = block.timestamp + {n};"]
        return [f"for (uint256 i = 0; i < {n % 16 + 1}; i++) {{",
                f"    {m}[account] += i * {rng.randint(1, 99)};", "}"]

    def function(self, name: str, library: bool = False) -> list[str]:
        rng, shape = self.rng, self.shape
        visibility = "internal pure" if library else shape.choice(
            ["external", "external onlyOwner", "public", "public whenActive"])
        extra = shape.choice(["", ", bytes32 tag", ", uint256 deadline", ", bool strict"])
        lines = [f"/// @notice {' '.join(rng.choice(WORDS) for _ in range(shape.randint(3, 7)))}"
                 ] if shape.random() < 0.4 else []
        lines.append(f"function {name}(address account, uint256 amount{extra}) {visibility} returns (uint256) {{")
        if library:
            body = [[f"uint256 r = amount * {rng.randint(2, 999)} / {rng.randint(2, 999)};"],
                    [f"if (account == address(0)) {{ return r + {rng.randint(1, 99)}; }}"],
                    [f"// {' '.join(rng.choice(WORDS) for _ in range(4))}"]]
            body = body[:shape.randint(1, 3)] + [["return r;"]]
        else:
            body = [self.statement() for _ in range(shape.randint(1, 3))] + [[f"return {rng.choice(self.scalars)};"]]
        for stmt in body:
            lines.extend("    " + line for line in stmt)
        lines.append("}")
        return lines


class SourceUnit:
    """One .sol file kept as header + functions, so versions can be edited."""

    def __init__(self, writer: SolidityWriter, container: str, title: str, n_functions: int):
        self.writer = writer
        library = container == "library"
        self.header = [
            "// SPDX-License-Identifier: MIT",
            "pragma solidity ^0.8.19;",
            "",
            "/**",
            f" * @title {title}",
            f" * @dev {' '.join(writer.rng.choice(WORDS) for _ in range(8))}",
            " */",
            f"{container} {title} {{",
        ]
        if not library:
            self.header += [f"    mapping(address => uint256) public {m};" for m in writer.maps]
            self.header += [f"    uint256 public {s};" for s in writer.scalars]
            self.header += [f"    event {e}(address indexed account, uint256 amount, uint256 tag);"
                            for e in writer.events]
            self.header += ["    bool public paused;",
                            '    string private constant VERSION = "v1 {not code}";',
                            "    modifier whenActive() {", '        require(!paused, "paused");',
                            "        _;", "    }", "    modifier onlyOwner() { _; }"]
        names = writer.rng.sample([writer.name(v, n) for v in VERBS for n in NOUNS], n_functions)
        self.functions = [[name, writer.function(name, library)] for name in names]

    def render(self) -> tuple[str, list[tuple[str, int, int]]]:
        """Text plus (function name, first line, last line) spans, 1-based."""
        lines = list(self.header)
        spans = []
        for name, body in self.functions:
            lines.append("")
            start = len(lines) + 1
            lines.extend("    " + line for line in body)
            spans.append((name, start, len(lines)))
        lines.append("}")
        return "\n".join(lines) + "\n", spans

    def edit(self, statements: int) -> None:
        """A new version: a few statements rewritten, sometimes a function more."""
        rng, shape = self.writer.rng, self.writer.shape
        for _ in range(statements):
            body = rng.choice(self.functions)[1]
            index = rng.randrange(2, len(body) - 1)
            if body[index].startswith("     ") or body[index].startswith("    return"):
                continue
            if body[index].endswith(";") or body[index].lstrip().startswith("//"):
                replacement = self.writer.statement()
                while len(replacement) != 1:
                    replacement = self.writer.statement()
                body[index] = "    " + replacement[0]
        if shape.random() < 0.3:
            name = self.writer.name(rng.choice(VERBS), rng.choice(NOUNS)) + "Ext"
            if name not in {f[0] for f in self.functions}:
                self.functions.append([name, self.writer.function(name)])

    def copy(self) -> "SourceUnit":
        clone = object.__new__(SourceUnit)
        clone.writer, clone.header = self.writer, list(self.header)
        clone.functions = [[name, list(body)] for name, body in self.functions]
        return clone


# --- workloads ---------------------------------------------------------------

def bundle_corpus(rng: random.Random, n_lineages: int, n_functions: int):
    """Lineages of 3-file contracts: a renamed, lightly edited main file plus
    two library files shared unchanged by every version of every lineage."""
    addresses = Addresses(rng)
    libraries = []
    for directory, container, title in (("lib/openzeppelin/access", "contract", "OwnableUpgradeable"),
                                        ("lib/openzeppelin/utils", "library", "MathUpgradeable")):
        unit = SourceUnit(SolidityWriter(rng, "", title), container, title, n_functions)
        text, spans = unit.render()
        libraries.append(({"directory": directory, "filename": f"{title}.sol", "content": text}, spans))

    events, contracts, versions_meta = [], [], []
    for lineage in range(n_lineages):
        proxy, creator = addresses.new(), addresses.new()
        main = SourceUnit(SolidityWriter(rng, "", f"Core{lineage}"), "contract", f"Core{lineage}",
                          n_functions)
        start = T0 + rng.randint(0, 30) * DAY
        for version in range(2 + lineage % 3):
            if version:
                main.edit(statements=3)
            callee = addresses.new()
            first = start
            last = first + rng.randint(5, 60) * DAY
            start = last + rng.randint(1, 10) * DAY
            events.extend(window_events(rng, proxy, callee, first, last, rng.randint(3, 6)))
            text, spans = main.render()
            files = [{"directory": "contracts", "filename": f"Core{lineage}V{version}.sol",
                      "content": text}] + [lib for lib, _ in libraries]
            contracts.append(contract_row(callee, creator, first, files))
            versions_meta.append({"lineage": lineage, "address": callee, "files": [
                ("contracts", f"Core{lineage}V{version}.sol", spans),
                *((lib["directory"], lib["filename"], lib_spans) for lib, lib_spans in libraries)]})
    rng.shuffle(events)
    return events, contracts, versions_meta


# Every warning type each tool reports, mapped onto a shared category.
CATEGORY_MAP = {
    "slither": {
        "reentrancy-eth": "reentrancy", "reentrancy-no-eth": "reentrancy",
        "reentrancy-benign": "reentrancy", "tx-origin": "tx-origin",
        "unchecked-lowlevel": "unchecked-call", "unchecked-send": "unchecked-call",
        "timestamp": "timestamp", "divide-before-multiply": "arithmetic",
        "arbitrary-send-eth": "access-control", "incorrect-equality": "logic",
        "shadowing-state": "logic", "locked-ether": "access-control",
    },
    "mythril": {
        "SWC-107": "reentrancy", "SWC-115": "tx-origin", "SWC-104": "unchecked-call",
        "SWC-116": "timestamp", "SWC-101": "arithmetic", "SWC-105": "access-control",
        "SWC-110": "logic", "SWC-106": "access-control",
    },
    "conkas": {
        "Reentrancy": "reentrancy", "Tx Origin": "tx-origin",
        "Unchecked Low Level Call": "unchecked-call", "Time Manipulation": "timestamp",
        "Integer Overflow": "arithmetic", "Transaction Ordering Dependence": "logic",
    },
}
TOOLS = {tool: list(types) for tool, types in CATEGORY_MAP.items()}


def findings_for(rng: random.Random, tool: str, address: str, directory: str, filename: str,
                 spans, count: int) -> list[dict]:
    rows = []
    for _ in range(count):
        name, start, end = rng.choice(spans)
        vuln_type = rng.choice(TOOLS[tool])
        line = rng.randint(start, end)
        rows.append({"tool": tool, "vuln_type": vuln_type, "contract": address,
                     "directory": directory, "filename": filename, "start_line": line,
                     "end_line": min(end, line + rng.randint(0, 3)),
                     "message": f"{vuln_type} in {name}"})
    return rows


def lifecycle_findings(rng: random.Random, versions_meta: list[dict], per_file: tuple[int, int],
                       patch_rate: float) -> dict[str, list[dict]]:
    """Dense findings per (contract, file, tool), drawn afresh for each version.

    A patch release (chosen per version step) keeps a subset of the main
    file's previous warnings and adds none, for every tool.
    """
    reports: dict[str, list[dict]] = {tool: [] for tool in TOOLS}
    previous_main: dict[str, list[dict]] = {}
    previous_lineage = None
    for meta in versions_meta:
        patch = meta["lineage"] == previous_lineage and rng.random() < patch_rate
        for index, (directory, filename, spans) in enumerate(meta["files"]):
            for tool in TOOLS:
                if index == 0 and patch:
                    rows = [dict(row, contract=meta["address"], filename=filename)
                            for row in previous_main[tool] if rng.random() < 0.5]
                else:
                    rows = findings_for(rng, tool, meta["address"], directory, filename, spans,
                                        rng.randint(*per_file))
                if index == 0:
                    previous_main[tool] = rows
                reports[tool].extend(rows)
        previous_lineage = meta["lineage"]
    return reports


def lsh_corpus(rng: random.Random, n_lineages: int, closed_share: float, own_vocab_share: float):
    """Small contracts; most lineages instantiate one shared template.

    Template lineages are near-duplicates of each other across lineages, so
    LSH proposes nearly every template contract as a candidate of every
    other; the remaining lineages use a vocabulary of their own.
    """
    addresses = Addresses(rng)
    template = SourceUnit(SolidityWriter(rng, "", "StakingVault"), "contract", "StakingVault", 12)
    n_own = round(n_lineages * own_vocab_share)
    own_vocab = set(rng.sample(range(n_lineages), n_own))
    specs = []
    creators: list[str] = []
    for lineage in range(n_lineages):
        creator = creators[-1] if lineage % 5 == 4 else addresses.new()
        creators.append(creator)
        if lineage in own_vocab:
            unit = SourceUnit(SolidityWriter(rng, f"L{lineage}", "Custom"), "contract",
                              f"Custom{lineage}", 12)
        else:
            unit = template.copy()
            unit.edit(statements=3)
        specs.append((addresses.new(), creator, unit))

    n_contracts = sum(2 + lineage % 3 for lineage in range(n_lineages))
    closed = set(rng.sample(range(n_contracts), round(n_contracts * closed_share)))
    events, contracts = [], []
    index = 0
    for lineage, (proxy, creator, unit) in enumerate(specs):
        start = T0 + rng.randint(0, 30) * DAY
        for version in range(2 + lineage % 3):
            if version:
                unit.edit(statements=1)
            callee = addresses.new()
            first = start
            last = first + rng.randint(5, 60) * DAY
            start = last + rng.randint(1, 10) * DAY
            events.extend(window_events(rng, proxy, callee, first, last, rng.randint(2, 5)))
            files = [] if index in closed else [
                {"directory": "src", "filename": "Vault.sol", "content": unit.render()[0]}]
            contracts.append(contract_row(callee, creator, first, files))
            index += 1
    rng.shuffle(events)
    return events, contracts


def traces_corpus(rng: random.Random, n_proxies: int):
    """Metadata-only corpus shaped to exercise every lineage rule.

    Mixes in callees without metadata, foreign creators, overlapping
    windows, singletons, exact duplicate observations, implementations
    shared by two proxies (sometimes called by both in one transaction),
    mixed-case addresses and upgrade selectors among other selectors.
    """
    addresses = Addresses(rng)
    events, contracts = [], []
    foreign = [addresses.new() for _ in range(20)]
    shared_pool: list[tuple[str, str, int, int]] = []  # (proxy, callee, first, last)
    for _ in range(n_proxies):
        proxy, creator = addresses.new(), addresses.new()
        n_callees = rng.choice([1, 2, 3, 3, 4, 4, 5, 5, 6])
        start = T0 + rng.randint(0, 400) * DAY
        for _ in range(n_callees):
            reuse = shared_pool and rng.random() < 0.04
            if reuse:
                other_proxy, callee, other_first, other_last = rng.choice(shared_pool)
            else:
                callee = addresses.new()
            if rng.random() < 0.08:
                first = max(T0, start - rng.randint(1, 20) * DAY)  # overlaps the previous one
            else:
                first = start
            last = first + rng.randint(0, 90) * DAY + rng.randint(0, DAY)
            start = last + rng.randint(1, 15) * DAY
            rows = window_events(rng, proxy, callee, first, last, rng.randint(1, 11))
            if reuse:
                # one transaction that goes through both proxies into the shared callee
                lo, hi = max(first, other_first), min(last, other_last)
                if lo <= hi and rng.random() < 0.5:
                    ts, tx = rng.randint(lo, hi), tx_hash(rng)
                    rows.append(event_row(proxy, callee, ts, pick_selector(rng), tx))
                    rows.append(event_row(other_proxy, callee, ts, pick_selector(rng), tx))
            else:
                roll = rng.random()
                if roll < 0.08:
                    contracts.append(contract_row(callee, rng.choice(foreign), first, []))
                elif roll < 0.90:
                    contracts.append(contract_row(callee, creator, first, []))
                # else: no metadata for this callee
                shared_pool.append((proxy, callee, first, last))
            rows += [dict(row) for row in rows if rng.random() < 0.02]  # duplicates
            for row in rows:
                if rng.random() < 0.1:
                    row["proxy_address"] = mixed_case(rng, row["proxy_address"])
                    row["callee_address"] = mixed_case(rng, row["callee_address"])
            events.extend(rows)
    rng.shuffle(events)
    return events, contracts


def observations_of(events: list[dict]) -> list[tuple[str, str]]:
    """Every (proxy, callee) pair the traces observe, normalized to lowercase."""
    return sorted({(e["proxy_address"].lower(), e["callee_address"].lower()) for e in events})


# Sizes are scaled so that one pass of each workload takes a few seconds on
# two CPUs, which lets a 25 s run hold several passes.
SIZES = {
    "bundle-bigfiles": {"lineages": 7, "functions": 26},
    "lifecycle-3tools": {"lineages": 7, "functions": 26, "findings": (18, 38), "patch_rate": 0.3},
    "lsh-boilerplate": {"lineages": 40, "closed_share": 0.3, "own_vocab_share": 0.2},
    "traces-heavy": {"proxies": 1200},
}


def generate(workload: str, seed: int, out: Path) -> None:
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload]
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("bundle-bigfiles", "lifecycle-3tools"):
        events, contracts, meta = bundle_corpus(rng, size["lineages"], size["functions"])
        if workload == "lifecycle-3tools":
            reports = lifecycle_findings(rng, meta, size["findings"], size["patch_rate"])
            for tool, rows in reports.items():
                write_ndjson(out / f"{tool}.ndjson", rows)
            (out / "category_map.json").write_text(json.dumps(CATEGORY_MAP, indent=2) + "\n",
                                                   encoding="utf-8")
    elif workload == "lsh-boilerplate":
        events, contracts = lsh_corpus(rng, size["lineages"], size["closed_share"],
                                       size["own_vocab_share"])
    else:
        events, contracts = traces_corpus(rng, size["proxies"])
    write_ndjson(out / "traces.ndjson", events)
    write_ndjson(out / "contracts.ndjson", contracts)
    expect = {"workload": workload, "seed": seed, "observations": observations_of(events)}
    (out / "expect.json").write_text(json.dumps(expect) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
