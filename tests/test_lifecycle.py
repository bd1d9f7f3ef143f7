"""Finding lifecycles: loading, pair diffing and cross-tool summaries."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxylineage import (
    ConfigurationError,
    Corpus,
    Finding,
    FindingKey,
    LifecycleStatus,
    ParseError,
    SourceFile,
    diff_pair,
    extract_functions,
    lifecycle_stats,
    build_lineages,
    contract_pairs,
    load_findings,
    match_files,
    pair_files,
)
from proxylineage.corpus import json_text
from proxylineage.lifecycle import FileIdentity
from proxylineage.lineage import ActivityWindow, ContractPair
from proxylineage.pairing import FileMatch, FilePair

from conftest import (ADDR_A, ADDR_B, ADDR_C, CREATOR_X, LAST_LINE_FUNCTION_SOURCES, PROXY,
                      make_record)
from corpusgen import varied_sourced_corpus
from oracles import oracle_diff_pair, oracle_lifecycle_stats

DAY = 86400


def finding(tool="slither", vuln_type="reentrancy-eth", contract=ADDR_A,
            directory="src", filename="Core.sol", start=1, end=2, message="m") -> Finding:
    return Finding(tool=tool, vuln_type=vuln_type, contract=contract,
                   directory=directory, filename=filename,
                   start_line=start, end_line=end, message=message)


def make_pair(pred=ADDR_A, succ=ADDR_B, pred_first=0, pred_last=10 * DAY,
              succ_first=20 * DAY, succ_last=30 * DAY) -> ContractPair:
    return ContractPair(
        proxy=PROXY, predecessor=pred, successor=succ,
        gap_days=(succ_first - pred_last) / DAY,
        predecessor_window=ActivityWindow(pred_first, pred_last),
        successor_window=ActivityWindow(succ_first, succ_last),
    )


def make_file_pair(pred_name="Core.sol", succ_name="Core.sol", directory="src") -> FilePair:
    return FilePair(
        directory=directory,
        predecessor_filename=pred_name, successor_filename=succ_name,
        name_distance=0 if pred_name == succ_name else 1,
        line_similarity=0.9, content_similarity=0.95,
    )


def finding_row(**overrides):
    row = {
        "tool": "slither",
        "vuln_type": "reentrancy-eth",
        "contract": ADDR_A,
        "directory": "src",
        "filename": "Core.sol",
        "start_line": 1,
        "end_line": 2,
        "message": "m",
    }
    row.update(overrides)
    return row


# --- loading -------------------------------------------------------------------

def test_load_empty_report(tmp_path):
    path = tmp_path / "f.ndjson"
    path.write_text("")
    findings, diagnostics = load_findings(path)
    assert findings == [] and diagnostics == []


def test_load_single_row(tmp_path):
    import json

    path = tmp_path / "f.ndjson"
    path.write_text(json.dumps(finding_row()) + "\n")
    findings, _ = load_findings(path)
    assert findings == [finding()]


def test_unknown_contract_kept_with_diagnostic(tmp_path):
    import json

    path = tmp_path / "f.ndjson"
    path.write_text(json.dumps(finding_row()) + "\n")
    corpus = Corpus(events=[], contracts={})
    findings, diagnostics = load_findings(path, corpus)
    assert len(findings) == 1
    assert any("unknown contract" in d for d in diagnostics)


def test_schema_violation_names_line(tmp_path):
    import json

    path = tmp_path / "f.ndjson"
    rows = [finding_row(), finding_row(start_line=0)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ParseError) as excinfo:
        load_findings(path)
    assert excinfo.value.line_number == 2


def test_contract_spellings_share_one_normalized_string(tmp_path):
    import json

    path = tmp_path / "f.ndjson"
    rows = [finding_row(), finding_row(contract=ADDR_A.upper().replace("0X", "0x")),
            finding_row(contract=ADDR_B)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    findings, _ = load_findings(path)
    assert findings == [finding(), finding(), finding(contract=ADDR_B)]
    assert {type(f) for f in findings} == {Finding}
    assert findings[0].contract is findings[1].contract


@pytest.mark.parametrize("value, message", [
    (ADDR_A[:-1], f"contract must be 0x + 40 hex chars, got '{ADDR_A[:-1]}'"),
    (7, "contract must be a string, got int"),
    ([ADDR_A], "contract must be a string, got list"),
    ({"a": ADDR_A}, "contract must be a string, got dict"),
])
def test_a_bad_contract_after_a_valid_one_is_named_on_its_line(tmp_path, value, message):
    # the first row fills the per-file memo of normalized contracts; the bad row
    # must still raise the one-row error text, on every load
    import json

    path = tmp_path / "f.ndjson"
    rows = [finding_row(), finding_row(contract=value)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    for _ in range(2):
        with pytest.raises(ParseError) as excinfo:
            load_findings(path)
        assert str(excinfo.value) == f"{path}:2: {message}"


def test_inverted_line_range_rejected(tmp_path):
    import json

    path = tmp_path / "f.ndjson"
    path.write_text(json.dumps(finding_row(start_line=9, end_line=3)) + "\n")
    with pytest.raises(ParseError, match="start_line 9 is after end_line 3$"):
        load_findings(path)


def test_line_range_beyond_file_diagnosed(tmp_path):
    import json

    path = tmp_path / "f.ndjson"
    path.write_text(json.dumps(finding_row(end_line=100)) + "\n")
    record = make_record(ADDR_A, CREATOR_X, [SourceFile("src", "Core.sol", "a\nb\nc\n")])
    corpus = Corpus(events=[], contracts={ADDR_A: record})
    findings, diagnostics = load_findings(path, corpus)
    assert len(findings) == 1
    assert any("exceed" in d for d in diagnostics)


def test_cross_check_diagnostics_text_and_order(tmp_path):
    import json

    path = tmp_path / "f.ndjson"
    rows = [
        finding_row(end_line=3),  # good: the last line of a 3-line file
        finding_row(contract=ADDR_C),
        finding_row(filename="Missing.sol"),
        finding_row(directory="lib"),
        finding_row(start_line=2, end_line=4),
        finding_row(contract=ADDR_B, filename="Lib.sol", end_line=1),
        finding_row(contract=ADDR_C, end_line=5),
        finding_row(contract=ADDR_B, filename="Lib.sol", end_line=2),
        finding_row(start_line=3, end_line=3),
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    corpus = Corpus(events=[], contracts={
        ADDR_A: make_record(ADDR_A, CREATOR_X, [SourceFile("src", "Core.sol", "a\nb\nc\n"),
                                                SourceFile("src", "Lib.sol", "x")]),
        ADDR_B: make_record(ADDR_B, CREATOR_X, [SourceFile("src", "Lib.sol", "x")]),
    })
    findings, diagnostics = load_findings(path, corpus)
    assert len(findings) == len(rows)
    assert diagnostics == [
        f"line 2: finding references unknown contract {ADDR_C}",
        f"line 3: finding references unknown file 'src'/'Missing.sol' in {ADDR_A}",
        f"line 4: finding references unknown file 'lib'/'Core.sol' in {ADDR_A}",
        "line 5: finding lines 2-4 exceed Core.sol length 3",
        f"line 7: finding references unknown contract {ADDR_C}",
        "line 8: finding lines 1-2 exceed Lib.sol length 1",
    ]


@pytest.mark.parametrize("text, lines", LAST_LINE_FUNCTION_SOURCES.values(),
                         ids=LAST_LINE_FUNCTION_SOURCES)
def test_a_finding_may_end_on_the_last_line_its_functions_can_and_no_later(tmp_path, text,
                                                                           lines):
    import json

    (unit,) = extract_functions(text)
    assert unit.end_line == lines
    path = tmp_path / "f.ndjson"
    rows = [finding_row(end_line=lines), finding_row(end_line=lines + 1)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    corpus = Corpus(events=[], contracts={
        ADDR_A: make_record(ADDR_A, CREATOR_X, [SourceFile("src", "Core.sol", text)])})
    assert load_findings(path, corpus)[1] == [
        f"line 2: finding lines 1-{lines + 1} exceed Core.sol length {lines}"]


# --- diffing -------------------------------------------------------------------

def by_status(counts) -> dict:
    """Total count per status of one diff_pair result."""
    totals: dict = {}
    for (_, status), count in counts.items():
        totals[status] = totals.get(status, 0) + count
    return totals


def test_predecessor_only_finding_disappears():
    pair = make_pair()
    counts = diff_pair([make_file_pair()], [finding()], [])
    assert by_status(counts) == {LifecycleStatus.DISAPPEARED: 1}
    # successor first - predecessor first
    assert lifecycle_stats({pair: counts})["mean_days_to_disappear"] == 20.0


def test_successor_only_finding_is_introduced():
    pair = make_pair()
    succ = [finding(tool="mythril", vuln_type="SWC-115", contract=ADDR_B)]
    counts = diff_pair([make_file_pair()], [], succ)
    assert by_status(counts) == {LifecycleStatus.INTRODUCED: 1}
    assert lifecycle_stats({pair: counts})["mean_days_to_disappear"] is None


def test_multiplicity_two_versus_one():
    pred = [finding(start=1, end=2), finding(start=10, end=12)]
    succ = [finding(contract=ADDR_B, start=5, end=6)]
    counts = diff_pair([make_file_pair()], pred, succ)
    assert by_status(counts) == {LifecycleStatus.PERSISTED: 1, LifecycleStatus.DISAPPEARED: 1}


def test_identical_multisets_only_persist():
    pred = [finding(), finding(vuln_type="tx-origin")]
    succ = [finding(contract=ADDR_B), finding(contract=ADDR_B, vuln_type="tx-origin")]
    counts = diff_pair([make_file_pair()], pred, succ)
    assert by_status(counts) == {LifecycleStatus.PERSISTED: 2}
    assert len(counts) == 2


def test_renamed_file_shares_identity_through_pair():
    file_pair = make_file_pair("CoreV2.sol", "CoreV3.sol")
    pred = [finding(filename="CoreV2.sol")]
    succ = [finding(contract=ADDR_B, filename="CoreV3.sol")]
    counts = diff_pair([file_pair], pred, succ)
    identity = FileIdentity("src", "CoreV2.sol", "CoreV3.sol")
    assert counts == {
        (FindingKey("slither", "reentrancy-eth", identity), LifecycleStatus.PERSISTED): 1}


def test_unpaired_files_never_match_across_sides():
    pred = [finding(filename="OnlyOld.sol")]
    succ = [finding(contract=ADDR_B, filename="OnlyNew.sol")]
    counts = diff_pair([], pred, succ)
    assert by_status(counts) == {LifecycleStatus.DISAPPEARED: 1, LifecycleStatus.INTRODUCED: 1}


def test_diff_pair_orders_keys_and_statuses_and_leaves_out_zero_counts():
    # identities sort by (tool, vuln_type, directory, predecessor file,
    # successor file), an unpaired side reading as ""; within one identity the
    # statuses come PERSISTED, DISAPPEARED, INTRODUCED. lifecycle_stats sums
    # floats in this order, so it fixes the summary's bytes.
    P, D, I = LifecycleStatus.PERSISTED, LifecycleStatus.DISAPPEARED, LifecycleStatus.INTRODUCED
    pred = [finding(vuln_type="tx-origin"),
            finding(filename="Old.sol"),
            finding(start=5), finding(start=1),
            finding(tool="mythril", vuln_type="SWC-107")]
    succ = [finding(contract=ADDR_B, filename="New.sol"),
            finding(contract=ADDR_B, tool="mythril", vuln_type="SWC-107", start=3),
            finding(contract=ADDR_B, vuln_type="tx-origin"),
            finding(contract=ADDR_B, tool="mythril", vuln_type="SWC-107", start=1),
            finding(contract=ADDR_B),
            finding(contract=ADDR_B, tool="mythril", vuln_type="SWC-107", start=2)]
    core = FileIdentity("src", "Core.sol", "Core.sol")
    new = FileIdentity("src", None, "New.sol")
    old = FileIdentity("src", "Old.sol", None)
    counts = diff_pair([make_file_pair()], pred, succ)
    assert list(counts.items()) == [
        ((FindingKey("mythril", "SWC-107", core), P), 1),
        ((FindingKey("mythril", "SWC-107", core), I), 2),
        ((FindingKey("slither", "reentrancy-eth", new), I), 1),
        ((FindingKey("slither", "reentrancy-eth", core), P), 1),
        ((FindingKey("slither", "reentrancy-eth", core), D), 1),
        ((FindingKey("slither", "reentrancy-eth", old), D), 1),
        ((FindingKey("slither", "tx-origin", core), P), 1),
    ]


def test_conservation_on_random_multisets():
    rng = random.Random(15)
    file_pair = make_file_pair()
    tools = ["slither", "mythril"]
    types = ["reentrancy-eth", "tx-origin", "unchecked-send"]
    for _ in range(50):
        pred = [finding(tool=rng.choice(tools), vuln_type=rng.choice(types), start=rng.randint(1, 9))
                for _ in range(rng.randint(0, 8))]
        succ = [finding(tool=rng.choice(tools), vuln_type=rng.choice(types),
                        contract=ADDR_B, start=rng.randint(1, 9))
                for _ in range(rng.randint(0, 8))]
        counts = diff_pair([file_pair], pred, succ)
        assert all(count > 0 for count in counts.values())
        by_key: dict = {}
        for (key, status), count in counts.items():
            by_key.setdefault(key, {})[status] = count
        pred_counts: dict = {}
        for f in pred:
            key = (f.tool, f.vuln_type)
            pred_counts[key] = pred_counts.get(key, 0) + 1
        succ_counts: dict = {}
        for f in succ:
            key = (f.tool, f.vuln_type)
            succ_counts[key] = succ_counts.get(key, 0) + 1
        assert {(key.tool, key.vuln_type) for key in by_key} == set(pred_counts) | set(succ_counts)
        for key, statuses in by_key.items():
            short = (key.tool, key.vuln_type)
            persisted = statuses.get(LifecycleStatus.PERSISTED, 0)
            disappeared = statuses.get(LifecycleStatus.DISAPPEARED, 0)
            introduced = statuses.get(LifecycleStatus.INTRODUCED, 0)
            assert pred_counts.get(short, 0) == persisted + disappeared
            assert succ_counts.get(short, 0) == persisted + introduced


def test_telescoping_over_a_lineage():
    # same-named file across versions keeps one identity per adjacent pair,
    # so introduced-minus-disappeared telescopes to last-minus-first
    rng = random.Random(16)
    addresses = [ADDR_A, ADDR_B, ADDR_C]
    counts = [rng.randint(0, 5) for _ in addresses]
    total = 0
    for i in range(2):
        pred = [finding(contract=addresses[i], start=j + 1) for j in range(counts[i])]
        succ = [finding(contract=addresses[i + 1], start=j + 1) for j in range(counts[i + 1])]
        statuses = by_status(diff_pair([make_file_pair()], pred, succ))
        total += (statuses.get(LifecycleStatus.INTRODUCED, 0)
                  - statuses.get(LifecycleStatus.DISAPPEARED, 0))
    assert total == counts[-1] - counts[0]


# --- summaries -------------------------------------------------------------------

def test_single_tool_union_equals_intersection():
    diffs = {make_pair(): diff_pair([make_file_pair()],
                                    [finding(), finding(vuln_type="tx-origin")],
                                    [finding(contract=ADDR_B)])}
    union = lifecycle_stats(diffs, mode="union")
    intersection = lifecycle_stats(diffs, mode="intersection")
    union.pop("mode")
    intersection.pop("mode")
    assert union == intersection


def test_disjoint_categories_intersect_to_zero():
    pred = [finding(tool="slither", vuln_type="tx-origin"),
            finding(tool="mythril", vuln_type="SWC-104")]
    diffs = {make_pair(): diff_pair([make_file_pair()], pred, [])}
    summary = lifecycle_stats(diffs, mode="intersection")
    assert summary["findings"]["total"] == 0
    assert summary["vulnerable_files"] == 0
    assert summary["mean_days_to_disappear"] is None


def test_intersection_requires_category_mapping():
    diffs = {make_pair(): diff_pair([make_file_pair()],
                                    [finding(vuln_type="weird-new-check")], [])}
    with pytest.raises(ConfigurationError) as excinfo:
        lifecycle_stats(diffs, mode="intersection")
    assert "weird-new-check" in str(excinfo.value)


def test_union_counts_dominate_intersection():
    rng = random.Random(17)
    pair = make_pair()
    file_pair = make_file_pair()
    mapped = {"slither": ["reentrancy-eth", "tx-origin"], "mythril": ["SWC-107", "SWC-115"]}
    for _ in range(30):
        pred = [finding(tool=t, vuln_type=rng.choice(mapped[t]), start=rng.randint(1, 9))
                for t in mapped for _ in range(rng.randint(0, 4))]
        succ = [finding(tool=t, vuln_type=rng.choice(mapped[t]), contract=ADDR_B,
                        start=rng.randint(1, 9))
                for t in mapped for _ in range(rng.randint(0, 4))]
        diffs = {pair: diff_pair([file_pair], pred, succ)}
        union = lifecycle_stats(diffs, mode="union")
        intersection = lifecycle_stats(diffs, mode="intersection")
        for field in ("total", "introduced", "persisted", "disappeared"):
            assert union["findings"][field] >= intersection["findings"][field]
        # patched_without_new is excluded: its zero-introductions condition is
        # negative, so it is not a finding count and not monotone
        for field in ("distinct_keys", "vulnerable_files", "vulnerable_contracts",
                      "lineages_touched"):
            assert union[field] >= intersection[field]


@pytest.mark.parametrize("mode", ["union", "intersection"])
def test_patched_without_new_counts_files_of_one_pair(mode):
    # two disappearing files share one pair, so a sort would have to order
    # their file identities, which define no order
    file_pairs = [make_file_pair("Core.sol", "Core.sol"), make_file_pair("Vault.sol", "Vault.sol")]
    pred = [finding(filename="Core.sol"), finding(filename="Vault.sol", vuln_type="tx-origin")]
    summary = lifecycle_stats({make_pair(): diff_pair(file_pairs, pred, [])}, mode=mode)
    assert summary["patched_without_new_file_count"] == 2


def test_hand_computed_three_version_fixture():
    """Hand ledger for a 3-version lineage scanned by two tools.

    Pair 1 (A->B), file Core.sol, identity shared:
      slither reentrancy: pred 2, succ 1 -> 1 PERSISTED + 1 DISAPPEARED
      mythril reentrancy (SWC-107): pred 1, succ 1 -> 1 PERSISTED
      slither tx-origin: pred 0, succ 1 -> 1 INTRODUCED
    Pair 2 (B->C):
      slither reentrancy: pred 1, succ 0 -> 1 DISAPPEARED
      mythril reentrancy: pred 1, succ 0 -> 1 DISAPPEARED
      slither tx-origin: pred 1, succ 1 -> 1 PERSISTED

    Union combines per (pair, file, category, status) with max over tools;
    intersection with min over {mythril, slither}.
    """
    pair1 = make_pair(pred=ADDR_A, succ=ADDR_B,
                      pred_first=0, pred_last=10 * DAY,
                      succ_first=20 * DAY, succ_last=30 * DAY)
    pair2 = make_pair(pred=ADDR_B, succ=ADDR_C,
                      pred_first=20 * DAY, pred_last=30 * DAY,
                      succ_first=50 * DAY, succ_last=60 * DAY)
    fp = make_file_pair()

    diffs = {
        pair1: diff_pair([fp],
                         [finding(start=1), finding(start=5),
                          finding(tool="mythril", vuln_type="SWC-107")],
                         [finding(contract=ADDR_B),
                          finding(contract=ADDR_B, tool="mythril", vuln_type="SWC-107"),
                          finding(contract=ADDR_B, vuln_type="tx-origin")]),
        pair2: diff_pair([fp],
                         [finding(contract=ADDR_B),
                          finding(contract=ADDR_B, tool="mythril", vuln_type="SWC-107"),
                          finding(contract=ADDR_B, vuln_type="tx-origin")],
                         [finding(contract=ADDR_C, vuln_type="tx-origin")]),
    }

    union = lifecycle_stats(diffs, mode="union")
    # reentrancy cells: pair1 PERSISTED max(1,1)=1, pair1 DISAPPEARED max(1,0)=1,
    # pair2 DISAPPEARED max(1,1)=1; tx-origin: pair1 INTRODUCED 1, pair2 PERSISTED 1
    assert union["findings"] == {
        "total": 5, "introduced": 1, "persisted": 2, "disappeared": 2,
    }
    assert union["distinct_keys"] == 2       # (Core.sol, reentrancy), (Core.sol, tx-origin)
    assert union["vulnerable_files"] == 1
    assert union["vulnerable_contracts"] == 3
    assert union["lineages_touched"] == 1
    # disappearances: pair1 day span 20, pair2 day span 30 -> mean 25
    assert union["mean_days_to_disappear"] == pytest.approx(25.0)
    # pair2/Core.sol has a disappearance and no introduction
    assert union["patched_without_new_file_count"] == 1
    assert union["percent_introduced"]["of_findings"] == pytest.approx(20.0)
    assert union["percent_disappeared"]["of_findings"] == pytest.approx(40.0)

    intersection = lifecycle_stats(diffs, mode="intersection")
    # only reentrancy is reported by both tools: pair1 PERSISTED min(1,1)=1,
    # pair1 DISAPPEARED min(1,0)=0, pair2 DISAPPEARED min(1,1)=1.
    # C drops out: it was only touched by the slither-only tx-origin finding.
    assert intersection["findings"] == {
        "total": 2, "introduced": 0, "persisted": 1, "disappeared": 1,
    }
    assert intersection["distinct_keys"] == 1
    assert intersection["vulnerable_files"] == 1
    assert intersection["vulnerable_contracts"] == 2
    assert intersection["lineages_touched"] == 1
    assert intersection["mean_days_to_disappear"] == pytest.approx(30.0)
    assert intersection["patched_without_new_file_count"] == 1


def random_findings(rng: random.Random, record) -> list[Finding]:
    """Findings on the record's files, plus some on a file it does not have."""
    paths = [(f.directory, f.filename) for f in record.files] + [("src", "Gone.sol")]
    return [finding(tool=rng.choice(["slither", "mythril"]),
                    vuln_type=rng.choice(["reentrancy-eth", "tx-origin"]),
                    contract=record.address, directory=directory, filename=filename)
            for directory, filename in rng.choices(paths, k=rng.randint(0, 6))]


def test_diff_pair_reads_only_file_names():
    for seed in range(6):
        rng = random.Random(seed)
        corpus = varied_sourced_corpus(rng)
        lineages, _ = build_lineages(corpus)
        for pair in contract_pairs(lineages):
            pred = corpus.contracts[pair.predecessor]
            succ = corpus.contracts[pair.successor]
            pred_findings = random_findings(rng, pred)
            succ_findings = random_findings(rng, succ)
            matched = diff_pair(match_files(pred, succ).pairs, pred_findings, succ_findings)
            scored = diff_pair(pair_files(pred, succ).pairs, pred_findings, succ_findings)
            assert list(matched.items()) == list(scored.items())


# --- the one-table summary against the accumulating oracle --------------------------

_TOOLS = ["slither", "mythril", "conkas"]
_TYPES = ["reentrancy-eth", "reentrancy-no-eth", "tx-origin", "SWC-107", "Reentrancy", "odd-check"]
_PLACES = [("src", "Core.sol"), ("src", "Vault.sol"), ("src", "Old.sol"), ("", "Main.sol")]
_ADDRESSES = [ADDR_A, ADDR_B, ADDR_C, "0x" + "d" * 40]


@st.composite
def _file_matches(draw) -> list[FileMatch]:
    """Matches that use each file at most once per side; the files left out are unpaired."""
    matches, pred_used, succ_used = [], set(), set()
    for directory, pred_name in draw(st.lists(st.sampled_from(_PLACES), max_size=3)):
        succ_name = draw(st.sampled_from([name for d, name in _PLACES if d == directory]))
        if (directory, pred_name) not in pred_used and (directory, succ_name) not in succ_used:
            pred_used.add((directory, pred_name))
            succ_used.add((directory, succ_name))
            matches.append(FileMatch(directory, pred_name, succ_name, int(pred_name != succ_name)))
    return matches


def _findings(contract: str, tools: list[str], types: list[str]):
    return st.lists(st.builds(
        lambda tool, vuln_type, place, start: finding(tool=tool, vuln_type=vuln_type, contract=contract,
                                                      directory=place[0], filename=place[1], start=start),
        st.sampled_from(tools), st.sampled_from(types), st.sampled_from(_PLACES),
        st.integers(1, 3)), max_size=12)


@st.composite
def _study(draw) -> list[tuple[ContractPair, list[FileMatch], list[Finding], list[Finding]]]:
    # few tools and types per study, so that intersections are often mapped and non-empty
    tools = draw(st.lists(st.sampled_from(_TOOLS), min_size=1, unique=True))
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=3, unique=True))
    study = []
    for index in range(draw(st.integers(0, 3))):
        pred, succ = draw(st.lists(st.sampled_from(_ADDRESSES), min_size=2, max_size=2, unique=True))
        pred_first = draw(st.integers(0, 50 * DAY))
        succ_first = pred_first + draw(st.integers(1, 400 * DAY))
        pair = ContractPair(proxy=draw(st.sampled_from([PROXY, "0x" + "e" * 40])), predecessor=pred,
                            successor=succ, gap_days=1.0 + index,
                            predecessor_window=ActivityWindow(pred_first, pred_first + 1),
                            successor_window=ActivityWindow(succ_first, succ_first + 1))
        study.append((pair, draw(_file_matches()), draw(_findings(pred, tools, types)),
                      draw(_findings(succ, tools, types))))
    return study


_CATEGORIES = st.sampled_from(["reentrancy", "tx-origin", "other"])
_FULL_MAP = st.fixed_dictionaries(
    {tool: st.fixed_dictionaries({vuln_type: _CATEGORIES for vuln_type in _TYPES}) for tool in _TOOLS})
_PARTIAL_MAP = st.dictionaries(st.sampled_from(_TOOLS),
                               st.dictionaries(st.sampled_from(_TYPES), _CATEGORIES), max_size=3)


def _summary_or_error(stats, diffs, mode, category_map) -> str:
    try:
        return json_text(stats(diffs, mode=mode, category_map=category_map))
    except ConfigurationError as exc:
        return f"ConfigurationError: {exc}"


@settings(max_examples=200, deadline=None)
@given(_study(), st.one_of(st.none(), _FULL_MAP, _PARTIAL_MAP))  # None: the default map
def test_lifecycle_equals_the_oracle(study, category_map):
    diffs = {}
    for pair, matches, pred_findings, succ_findings in study:
        counts = diff_pair(matches, pred_findings, succ_findings)
        assert list(counts.items()) == list(oracle_diff_pair(matches, pred_findings,
                                                             succ_findings).items())
        diffs[pair] = counts
    for mode in ("union", "intersection"):
        assert (_summary_or_error(lifecycle_stats, diffs, mode, category_map)
                == _summary_or_error(oracle_lifecycle_stats, diffs, mode, category_map))
