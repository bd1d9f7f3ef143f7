"""Seeded synthetic corpora for property and acceptance tests."""

from __future__ import annotations

import json
import random
from pathlib import Path

from proxylineage import ContractRecord, Corpus, SourceFile, TraceEvent


def address(rng: random.Random) -> str:
    return "0x" + "".join(rng.choice("0123456789abcdef") for _ in range(40))


def addr_from_int(value: int) -> str:
    return "0x" + format(value, "040x")


def make_record(addr: str, creator: str, files=(), deploy_timestamp: int = 0,
                verified: bool = True) -> ContractRecord:
    files = tuple(files)
    return ContractRecord(
        address=addr,
        creator=creator,
        deploy_timestamp=deploy_timestamp,
        verified=verified,
        open_source=bool(files),
        files=files,
    )


def events_for_window(rng: random.Random, proxy: str, callee: str, first: int,
                      last: int, tx_prefix: str) -> list[TraceEvent]:
    """1-3 events whose min/max timestamps are exactly (first, last)."""
    stamps = [first, last] if last != first else [first]
    if last - first > 1 and rng.random() < 0.5:
        stamps.append(rng.randint(first, last))
    events = []
    for n, stamp in enumerate(stamps):
        events.append(TraceEvent(
            proxy_address=proxy,
            callee_address=callee,
            timestamp=stamp,
            block_number=stamp,  # block == timestamp keeps the stream monotone
            selector="0x3659cfe6",
            tx_id=f"{tx_prefix}-{n}",
        ))
    return events


def random_rule_corpus(rng: random.Random, max_proxies: int = 12,
                       max_callees_per_proxy: int = 8) -> Corpus:
    """Random creators, windows and overlaps for exercising the rule engine.

    Sizes stay within 50 proxies / 200 contracts. Roughly one callee in ten
    has no contract record; timestamps are drawn from a small range so that
    equal-boundary windows (last call == next first call) occur regularly.
    """
    n_proxies = rng.randint(1, max_proxies)
    pool_size = rng.randint(2, min(4 * n_proxies + 2, 200))
    callee_pool = [addr_from_int(0x1000 + i) for i in range(pool_size)]
    creator_pool = [addr_from_int(0x9000 + i) for i in range(rng.randint(1, 5))]

    contracts: dict[str, ContractRecord] = {}
    for callee in callee_pool:
        if rng.random() < 0.9:
            contracts[callee] = make_record(callee, rng.choice(creator_pool))

    events: list[TraceEvent] = []
    horizon = rng.choice([40, 200, 2000])
    for p in range(n_proxies):
        proxy = addr_from_int(0x500000 + p)
        for callee in rng.sample(callee_pool, rng.randint(1, min(max_callees_per_proxy, pool_size))):
            first = rng.randint(0, horizon)
            last = first + rng.randint(0, horizon // 4)
            events.extend(events_for_window(rng, proxy, callee, first, last,
                                            tx_prefix=f"tx-{p}-{callee[-4:]}"))
    rng.shuffle(events)
    return Corpus(events=events, contracts=contracts)


SOURCE_TEMPLATE = """pragma solidity ^0.8.0;

contract {name} {{
    uint256 public counter;
{body}
}}
"""


def synth_function(rng: random.Random, index: int, vocab: list[str]) -> str:
    statements = "".join(
        f"        counter += {rng.randint(1, 9)}; // {rng.choice(vocab)}\n"
        for _ in range(rng.randint(1, 3))
    )
    return (
        f"    function {rng.choice(vocab)}{index}(uint256 a{index}, address b{index}) public returns (bool) {{\n"
        f"{statements}"
        f"        return a{index} > 0 && b{index} != address(0);\n"
        f"    }}\n"
    )


def synth_source(rng: random.Random, name: str, vocab: list[str],
                 n_functions: int = 3) -> str:
    body = "".join(synth_function(rng, i, vocab) for i in range(n_functions))
    return SOURCE_TEMPLATE.format(name=name, body=body)


def mutate_source(rng: random.Random, content: str, flips: int) -> str:
    """Replace a few numeric literals; keeps the token stream mostly intact."""
    out = content
    for _ in range(flips):
        digit = rng.choice("123456789")
        replacement = rng.choice("123456789")
        out = out.replace(f"+= {digit}", f"+= {replacement}", 1)
    return out


def random_sourced_corpus(rng: random.Random, n_lineages: int = 4,
                          open_source_rate: float = 1.0) -> Corpus:
    """Lineage-shaped corpus whose members carry synthetic Solidity files."""
    vocab = [f"op{i}" for i in range(6)]
    events: list[TraceEvent] = []
    contracts: dict[str, ContractRecord] = {}
    next_addr = 0x2000
    for lineage_index in range(n_lineages):
        proxy = addr_from_int(0x700000 + lineage_index)
        creator = addr_from_int(0xA000 + lineage_index)
        n_versions = rng.randint(2, 4)
        base = synth_source(rng, f"Core{lineage_index}", vocab, n_functions=rng.randint(2, 4))
        start = rng.randint(0, 50)
        for version_index in range(n_versions):
            callee = addr_from_int(next_addr)
            next_addr += 1
            first = start
            last = first + rng.randint(0, 20)
            start = last + rng.randint(1, 30)
            events.extend(events_for_window(
                rng, proxy, callee, first, last,
                tx_prefix=f"tx-{lineage_index}-{version_index}"))
            open_source = rng.random() < open_source_rate
            files = ()
            if open_source:
                content = mutate_source(rng, base, flips=version_index)
                files = (
                    SourceFile("contracts", f"Core{lineage_index}V{version_index}.sol", content),
                )
            contracts[callee] = make_record(callee, creator, files, deploy_timestamp=first)
    rng.shuffle(events)
    return Corpus(events=events, contracts=contracts)


def varied_sourced_corpus(rng: random.Random, n_lineages: int = 4) -> Corpus:
    """random_sourced_corpus with every bundle feature: closed-source members,
    unpaired files and functions, and excluded callees.

    About half of the open-source versions gain a function no other version
    has, and a third gain a second file. The first proxy also delegates to a
    contract of another creator and to one without metadata.
    """
    corpus = random_sourced_corpus(rng, n_lineages=n_lineages, open_source_rate=0.6)
    contracts = {}
    for address, record in corpus.contracts.items():
        files = list(record.files)
        if files and rng.random() < 0.5:
            (file,) = files
            content = file.content.rstrip()[:-1] + synth_function(rng, 99, ["extra"]) + "}\n"
            files = [SourceFile(file.directory, file.filename, content)]
        if files and rng.random() < 0.3:
            files.append(SourceFile("lib", "Helper.sol", synth_source(rng, "Helper", ["aux"], 1)))
        contracts[address] = make_record(address, record.creator, files,
                                          deploy_timestamp=record.deploy_timestamp)
    proxy = addr_from_int(0x700000)
    stranger, unknown = addr_from_int(0x1F000), addr_from_int(0x1F001)
    contracts[stranger] = make_record(stranger, addr_from_int(0xBEEF))
    events = (corpus.events
              + events_for_window(rng, proxy, stranger, 500, 510, tx_prefix="tx-stranger")
              + events_for_window(rng, proxy, unknown, 520, 530, tx_prefix="tx-unknown"))
    return Corpus(events=events, contracts=contracts)


def soup_source(rng: random.Random, vocab: list[str], n_tokens: int = 220) -> str:
    """Identifier-only token stream; disjoint vocabularies share no shingles."""
    return " ".join(rng.choice(vocab) for _ in range(n_tokens))


def mutate_soup(rng: random.Random, content: str, flips: int, vocab: list[str]) -> str:
    tokens = content.split(" ")
    for _ in range(flips):
        tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
    return " ".join(tokens)


def eval_corpus(rng: random.Random, n_lineages: int = 5,
                noise_contracts: int = 6) -> Corpus:
    """Corpus for scoring similarity-based lineage construction.

    Within-lineage contents are near-identical (Jaccard >= 0.9: always
    banding-retrievable), cross-lineage contents use disjoint vocabularies
    (Jaccard 0: verdict NONE either way), so index-based and brute-force
    candidate generation agree deterministically. Some clones are planted
    across lineages under different creators to exercise the same-owner
    filter, and some same-creator noise contracts are dissimilar.
    """
    events: list[TraceEvent] = []
    contracts: dict[str, ContractRecord] = {}
    next_addr = 0x3000
    lineage_sources: list[tuple[str, list[str]]] = []
    creators: list[str] = []
    for lineage_index in range(n_lineages):
        proxy = addr_from_int(0x800000 + lineage_index)
        creator = addr_from_int(0xB000 + lineage_index)
        creators.append(creator)
        vocab = [f"w{lineage_index}x{i}" for i in range(8)]
        base = soup_source(rng, vocab)
        lineage_sources.append((base, vocab))
        n_versions = rng.randint(2, 4)
        start = rng.randint(0, 20)
        for version_index in range(n_versions):
            callee = addr_from_int(next_addr)
            next_addr += 1
            first = start
            last = first + rng.randint(0, 10)
            start = last + rng.randint(1, 20)
            events.extend(events_for_window(
                rng, proxy, callee, first, last,
                tx_prefix=f"ev-{lineage_index}-{version_index}"))
            content = mutate_soup(rng, base, flips=min(version_index, 2), vocab=vocab)
            files = (SourceFile("src", f"Asset{lineage_index}.sol", content),)
            contracts[callee] = make_record(callee, creator, files, deploy_timestamp=first)

    for noise_index in range(noise_contracts):
        callee = addr_from_int(next_addr)
        next_addr += 1
        kind = rng.random()
        if kind < 0.4 and lineage_sources:
            # clone of some lineage, but a different creator: similarity says
            # yes, the owner filter must say no
            source = rng.choice(lineage_sources)[0]
            creator = addr_from_int(0xC000 + noise_index)
        elif kind < 0.7 and creators:
            # same creator as a lineage but dissimilar content
            source = soup_source(rng, [f"n{noise_index}z{i}" for i in range(8)])
            creator = rng.choice(creators)
        else:
            source = soup_source(rng, [f"n{noise_index}z{i}" for i in range(8)])
            creator = addr_from_int(0xC000 + noise_index)
        files = (SourceFile("src", f"Noise{noise_index}.sol", source),)
        contracts[callee] = make_record(callee, creator, files)
    return Corpus(events=events, contracts=contracts)


def planted_eval_corpus(n_lineages: int = 3, versions: int = 3,
                        seed: int = 1) -> Corpus:
    """Identical content within each lineage, disjoint across, unique creators.

    Similarity alone recovers the ground truth exactly, so a correct
    Algorithm-1 implementation must score precision = recall = 1.0.
    """
    rng = random.Random(seed)
    events: list[TraceEvent] = []
    contracts: dict[str, ContractRecord] = {}
    next_addr = 0x5000
    for lineage_index in range(n_lineages):
        proxy = addr_from_int(0x900000 + lineage_index)
        creator = addr_from_int(0xD000 + lineage_index)
        content = soup_source(rng, [f"p{lineage_index}q{i}" for i in range(8)])
        start = 0
        for version_index in range(versions):
            callee = addr_from_int(next_addr)
            next_addr += 1
            events.extend(events_for_window(
                rng, proxy, callee, start, start + 5,
                tx_prefix=f"pl-{lineage_index}-{version_index}"))
            contracts[callee] = make_record(
                callee, creator, (SourceFile("src", "Core.sol", content),))
            start += 10
    return Corpus(events=events, contracts=contracts)


# --- fixture files -----------------------------------------------------------

def write_trace_fixture(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def write_contract_fixture(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def event_row(proxy: str, callee: str, timestamp: int, block: int, tx_id: str,
              selector: str = "0x3659cfe6") -> dict:
    return {
        "proxy_address": proxy,
        "callee_address": callee,
        "timestamp": timestamp,
        "block_number": block,
        "selector": selector,
        "tx_id": tx_id,
    }


def contract_row(record: ContractRecord) -> dict:
    return {
        "address": record.address,
        "creator": record.creator,
        "deploy_timestamp": record.deploy_timestamp,
        "verified": record.verified,
        "open_source": record.open_source,
        "files": [
            {"directory": f.directory, "filename": f.filename, "content": f.content}
            for f in record.files
        ],
    }


def write_corpus_fixtures(corpus: Corpus, directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    traces = directory / "traces.ndjson"
    contracts = directory / "contracts.ndjson"
    write_trace_fixture(traces, [
        {
            "proxy_address": e.proxy_address,
            "callee_address": e.callee_address,
            "timestamp": e.timestamp,
            "block_number": e.block_number,
            "selector": e.selector,
            "tx_id": e.tx_id,
        }
        for e in corpus.events
    ])
    write_contract_fixture(contracts, [contract_row(r) for r in corpus.contracts.values()])
    return traces, contracts
