"""Shared addresses and corpus-building helpers."""

from __future__ import annotations

import pytest

from proxylineage import ContractRecord, Corpus, LineageEvaluator, TraceEvent
from proxylineage.fingerprint import fingerprint_contracts

PROXY = "0x" + "11" * 20
PROXY2 = "0x" + "12" * 20
ADDR_A = "0x" + "aa" * 20
ADDR_B = "0x" + "bb" * 20
ADDR_C = "0x" + "cc" * 20
ADDR_D = "0x" + "dd" * 20
CREATOR_X = "0x" + "e1" * 20
CREATOR_Y = "0x" + "e2" * 20

# A source whose one function ends on its last line, and its line count as the extractor
# numbers lines: "\n" ends a line, a final "\n" opens no line, and a CR or a U+2028 is no
# line end (str.splitlines would give 3, 3 and 5 lines)
LAST_LINE_FUNCTION_SOURCES = {
    "trailing-newline": ("contract C {\n    function f() {\n    }}\n", 3),
    "cr-only": ("contract C {\r    function f() {\r    }}", 1),
    "u2028-in-a-comment": ("contract C {\n    // a\u2028b\n    function f() {\n    }}\n", 4),
}


def make_event(proxy: str, callee: str, timestamp: int, block: int | None = None,
               tx_id: str | None = None, selector: str = "0x3659cfe6") -> TraceEvent:
    return TraceEvent(
        proxy_address=proxy,
        callee_address=callee,
        timestamp=timestamp,
        block_number=timestamp if block is None else block,
        selector=selector,
        tx_id=tx_id or f"tx-{proxy[-4:]}-{callee[-4:]}-{timestamp}",
    )


def make_record(address: str, creator: str, files=(), deploy_timestamp: int = 0) -> ContractRecord:
    files = tuple(files)
    return ContractRecord(
        address=address,
        creator=creator,
        deploy_timestamp=deploy_timestamp,
        verified=True,
        open_source=bool(files),
        files=files,
    )


def corpus_evaluator(corpus: Corpus, lineages) -> LineageEvaluator:
    """The evaluator over the corpus's own fingerprints at the default k and
    seed, as `evaluate-lsh` builds it without --fingerprints."""
    return LineageEvaluator(corpus, lineages, fingerprint_contracts(corpus.contracts, 256, 0))


def window_events(proxy: str, callee: str, first: int, last: int) -> list[TraceEvent]:
    if first == last:
        return [make_event(proxy, callee, first)]
    return [make_event(proxy, callee, first), make_event(proxy, callee, last)]


@pytest.fixture
def three_callee_corpus() -> Corpus:
    """Proxy with callees A (creator X, 1-10), B (X, 11-20), C (Y, 5-15)."""
    events = (
        window_events(PROXY, ADDR_A, 1, 10)
        + window_events(PROXY, ADDR_B, 11, 20)
        + window_events(PROXY, ADDR_C, 5, 15)
    )
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
        ADDR_C: make_record(ADDR_C, CREATOR_Y),
    }
    return Corpus(events=events, contracts=contracts)
