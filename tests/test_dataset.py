"""Bundle emission, reload, determinism and summary statistics."""

from __future__ import annotations

import json
import random

import pytest

from proxylineage import (
    Corpus,
    SourceFile,
    ValidationError,
    build_bundle,
    compute_stats,
    emit_dataset,
    extract_functions,
    load_bundle,
    pair_files,
    pair_functions,
)
from proxylineage.dataset import bundle_to_jsonable, stats_to_csv, stats_to_jsonable
from proxylineage.pairing import NOT_OPEN_SOURCE

from conftest import (
    ADDR_A,
    ADDR_B,
    ADDR_C,
    ADDR_D,
    CREATOR_X,
    CREATOR_Y,
    PROXY,
    PROXY2,
    make_record,
    window_events,
)
from corpusgen import random_sourced_corpus, varied_sourced_corpus

DAY = 86400

SRC = (
    "pragma solidity ^0.8.0;\n"
    "\n"
    "contract Core {\n"
    "    uint256 public total;\n"
    "\n"
    "    function f() public {\n"
    "        total += 1;\n"
    "    }\n"
    "\n"
    "}\n"
)
# exactly one of the ten lines changes: line similarity lands on 0.9
SRC_CHANGED = SRC.replace("function f()", "function f(uint256 n)")


def tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def two_lineage_corpus() -> Corpus:
    """Lineage 1: A -> B (sizes gap 1 day). Lineage 2: B2 -> C -> D (gap 3 days then 1)."""
    b2 = "0x" + "b2" * 20
    events = (
        window_events(PROXY, ADDR_A, 0, 0)
        + window_events(PROXY, ADDR_B, 1 * DAY, 1 * DAY + 10)
        + window_events(PROXY2, b2, 0, 0)
        + window_events(PROXY2, ADDR_C, 3 * DAY, 3 * DAY + 10)
        + window_events(PROXY2, ADDR_D, 5 * DAY, 5 * DAY + 10)
    )
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X, [SourceFile("src", "Core.sol", SRC)]),
        ADDR_B: make_record(ADDR_B, CREATOR_X, [SourceFile("src", "Core.sol", SRC_CHANGED)]),
        b2: make_record(b2, CREATOR_Y, [SourceFile("src", "Pool.sol", SRC)]),
        ADDR_C: make_record(ADDR_C, CREATOR_Y, [SourceFile("src", "Pool.sol", SRC)]),
        ADDR_D: make_record(ADDR_D, CREATOR_Y, [SourceFile("src", "Pool.sol", SRC)]),
    }
    return Corpus(events=events, contracts=contracts)


def test_empty_corpus_emits_valid_empty_bundle(tmp_path):
    bundle = build_bundle(Corpus(events=[], contracts={}))
    out = tmp_path / "bundle"
    emit_dataset(bundle, out)
    for name in ("manifest.json", "contracts.json", "lineages.json", "contract_pairs.json",
                 "file_pairs.json", "function_pairs.json", "diagnostics.json"):
        assert (out / name).exists()
    assert json.loads((out / "lineages.json").read_text()) == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"bundle_version", "tool_version", "generated_at", "inputs"}
    report = compute_stats(load_bundle(out))
    assert report.lineage_count == 0
    assert report.open_source_pct is None
    assert report.average_gap_days is None
    assert report.lineage_size_histogram == {}


def test_emit_twice_is_byte_identical(tmp_path):
    corpus = two_lineage_corpus()
    bundle = build_bundle(corpus)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    emit_dataset(bundle, out1)
    emit_dataset(build_bundle(corpus), out2)
    assert tree_bytes(out1) == tree_bytes(out2)
    # re-emitting over an existing tree is also stable
    emit_dataset(bundle, out1)
    assert tree_bytes(out1) == tree_bytes(out2)


# Each of these seeds gives closed-source members, unpaired files and
# functions and excluded callees, so every row kind of the bundle is written.
VARIED_SEEDS = [500, 502, 503, 505, 506]


def varied_bundle(seed: int):
    bundle = build_bundle(varied_sourced_corpus(random.Random(seed)))
    artifacts = bundle.pair_artifacts
    assert any(a.file_pairing.flag == NOT_OPEN_SOURCE for a in artifacts)
    assert any(a.file_pairing.unpaired_predecessor or a.file_pairing.unpaired_successor
               for a in artifacts)
    assert any(a.unpaired_functions for a in artifacts)
    assert bundle.function_pairs and bundle.lineage_diagnostics.exclusions
    return bundle


@pytest.mark.parametrize("seed", VARIED_SEEDS)
def test_roundtrip_structural_equality(tmp_path, seed):
    bundle = varied_bundle(seed)
    out = tmp_path / "bundle"
    emit_dataset(bundle, out)
    loaded = load_bundle(out)
    assert bundle_to_jsonable(loaded) == bundle_to_jsonable(bundle)


@pytest.mark.parametrize("seed", VARIED_SEEDS)
def test_reemitting_a_loaded_bundle_is_byte_identical(tmp_path, seed):
    first = tmp_path / "first"
    second = tmp_path / "second"
    emit_dataset(varied_bundle(seed), first)
    emit_dataset(load_bundle(first), second)
    assert tree_bytes(first) == tree_bytes(second)


def test_stats_idempotent_through_emit_and_load(tmp_path):
    rng = random.Random(501)
    corpus = random_sourced_corpus(rng, n_lineages=4, open_source_rate=0.7)
    bundle = build_bundle(corpus)
    out = tmp_path / "bundle"
    emit_dataset(bundle, out)
    assert compute_stats(load_bundle(out)) == compute_stats(bundle)


def test_two_lineage_fixture_statistics():
    bundle = build_bundle(two_lineage_corpus())
    report = compute_stats(bundle)
    assert report.lineage_count == 2
    assert report.contract_pair_count == 3  # sizes 2 and 3 -> 1 + 2
    assert report.lineage_size_histogram == {2: 1, 3: 1}
    assert report.distinct_creator_count == 2
    assert report.contract_count == 5
    assert report.open_source_pct == 100.0
    assert report.solidity_file_count == 5
    assert report.function_pair_count == 3


def test_average_gap_days_mean_of_one_and_three():
    bundle = build_bundle(two_lineage_corpus())
    gaps = sorted(pair.gap_days for pair in bundle.pairs)
    assert gaps == [1.0, pytest.approx(2.0 - 10 / DAY), 3.0]
    report = compute_stats(bundle)
    assert report.average_gap_days == pytest.approx(2.0 - 10 / (3 * DAY))


def test_identical_contents_give_full_similarity():
    corpus = two_lineage_corpus()
    bundle = build_bundle(corpus)
    pool_pairs = [fp for _, fp in bundle.file_pairs if fp.predecessor_filename == "Pool.sol"]
    assert all(fp.line_similarity == 1.0 for fp in pool_pairs)
    report = compute_stats(bundle)
    assert report.high_similarity_file_pair_pct == 100.0
    # Core.sol changed one line out of three
    assert report.updated_file_pct == pytest.approx(100.0 / 3.0)


def test_structural_identities_on_random_corpora():
    rng = random.Random(502)
    for _ in range(10):
        corpus = random_sourced_corpus(rng, n_lineages=rng.randint(1, 5),
                                       open_source_rate=rng.choice([0.5, 1.0]))
        bundle = build_bundle(corpus)
        report = compute_stats(bundle)
        assert report.contract_pair_count == sum(
            len(l.versions) - 1 for l in bundle.lineages)
        assert sum(report.lineage_size_histogram.values()) == report.lineage_count
        if report.open_source_pct is not None:
            assert 0.0 <= report.open_source_pct <= 100.0
        for value in (report.updated_file_pct, report.files_in_pairs_pct,
                      report.high_similarity_file_pair_pct):
            if value is not None:
                assert 0.0 <= value <= 100.0


def test_bundle_independent_of_event_order():
    corpus = two_lineage_corpus()
    rng = random.Random(9)
    shuffled = list(corpus.events)
    rng.shuffle(shuffled)
    reordered = Corpus(events=shuffled, contracts=corpus.contracts)
    assert bundle_to_jsonable(build_bundle(corpus)) == bundle_to_jsonable(build_bundle(reordered))


def test_manifest_timestamp_derives_from_inputs():
    bundle = build_bundle(two_lineage_corpus())
    assert bundle.manifest.generated_at.endswith("Z")
    assert bundle.manifest.generated_at.startswith("1970-01-06")  # newest event: 5 days + 10 s


def test_function_pair_reflects_signature_change():
    bundle = build_bundle(two_lineage_corpus())
    core_pairs = [
        fp for _, fp in bundle.function_pairs
        if fp.file_pair.predecessor_filename == "Core.sol"
    ]
    assert len(core_pairs) == 1
    assert core_pairs[0].predecessor.signature == "f()"
    assert core_pairs[0].successor.signature == "f(uint256)"
    assert core_pairs[0].match_kind.value == "FUZZY_NAME"


def test_shared_file_is_diagnosed_per_address_and_pairs_as_if_extracted_alone():
    # Lib.sol is byte-identical in both versions and never closes the library
    lib = "library Lib {\n    function a() public {}\n"
    core_a = "contract Core {\n    function f() public {}\n    function gone() public {}\n}\n"
    core_b = "contract Core {\n    function f(uint256 n) public {}\n    function added() public {}\n}\n"
    corpus = Corpus(
        events=window_events(PROXY, ADDR_A, 0, 10) + window_events(PROXY, ADDR_B, DAY, DAY + 10),
        contracts={
            ADDR_A: make_record(ADDR_A, CREATOR_X, [SourceFile("src", "Core.sol", core_a),
                                                    SourceFile("src", "Lib.sol", lib)]),
            ADDR_B: make_record(ADDR_B, CREATOR_X, [SourceFile("src", "Core.sol", core_b),
                                                    SourceFile("src", "Lib.sol", lib)]),
        },
    )
    bundle = build_bundle(corpus)

    lib_notes = [line for line in bundle.source_diagnostics if "Lib.sol" in line]
    assert [line.split(" ", 1)[0] for line in lib_notes] == [ADDR_A, ADDR_B]
    assert all("unbalanced braces" in line for line in lib_notes)

    (artifacts,) = bundle.pair_artifacts
    pred, succ = corpus.contracts[ADDR_A], corpus.contracts[ADDR_B]
    expected_pairs, expected_unpaired = [], set()
    for fp in pair_files(pred, succ).pairs:
        pred_file = next(f for f in pred.files if f.filename == fp.predecessor_filename)
        succ_file = next(f for f in succ.files if f.filename == fp.successor_filename)
        pairing = pair_functions(fp, extract_functions(pred_file), extract_functions(succ_file))
        expected_pairs.extend(pairing.pairs)
        expected_unpaired |= {("predecessor", u.name, u.signature) for u in pairing.unpaired_predecessor}
        expected_unpaired |= {("successor", u.name, u.signature) for u in pairing.unpaired_successor}
    assert artifacts.function_pairs == expected_pairs
    assert {(u.side, u.name, u.signature) for u in artifacts.unpaired_functions} == expected_unpaired
    assert expected_unpaired == {("predecessor", "gone", "gone()"), ("successor", "added", "added()")}


def test_sources_tree_layout(tmp_path):
    bundle = build_bundle(two_lineage_corpus())
    out = tmp_path / "bundle"
    emit_dataset(bundle, out)
    assert (out / "sources" / ADDR_A / "src" / "Core.sol").read_text() == SRC


def test_malicious_directory_rejected_at_emit(tmp_path):
    corpus = two_lineage_corpus()
    evil = make_record(ADDR_A, CREATOR_X, [SourceFile("", "Core.sol", SRC)])
    object.__setattr__(evil.files[0], "directory", "../escape")
    corpus.contracts[ADDR_A] = evil
    bundle = build_bundle(corpus)
    with pytest.raises(ValidationError):
        emit_dataset(bundle, tmp_path / "bundle")


def test_stats_csv_lists_every_metric():
    bundle = build_bundle(two_lineage_corpus())
    text = stats_to_csv(compute_stats(bundle))
    lines = text.splitlines()
    assert lines[0] == "metric,value"
    names = {line.split(",")[0] for line in lines[1:]}
    assert "lineage_count" in names
    assert "lineage_size_histogram[2]" in names


def test_stats_jsonable_histogram_keys_are_strings():
    bundle = build_bundle(two_lineage_corpus())
    jsonable = stats_to_jsonable(compute_stats(bundle))
    assert jsonable["lineage_size_histogram"] == {"2": 1, "3": 1}
