"""Classification rules, windows and pairing of contract versions."""

from __future__ import annotations

import random

from proxylineage import (
    Corpus,
    ExclusionReason,
    activity_windows,
    build_lineages,
    contract_pairs,
)
from proxylineage.lineage import classify_callees

from conftest import (
    ADDR_A,
    ADDR_B,
    ADDR_C,
    ADDR_D,
    CREATOR_X,
    CREATOR_Y,
    PROXY,
    make_event,
    make_record,
    window_events,
)
from corpusgen import random_rule_corpus
from oracles import assert_rules_hold, oracle_lineages


def exclusion_set(diagnostics):
    return {(e.proxy, e.callee, e.reason.value) for e in diagnostics.exclusions}


def lineage_tuples(lineages):
    return [
        (l.proxy, l.creator,
         tuple((v.address, v.window.first_call, v.window.last_call) for v in l.versions))
        for l in lineages
    ]


def test_activity_window_min_max():
    corpus = Corpus(events=[make_event(PROXY, ADDR_A, 100), make_event(PROXY, ADDR_A, 500)],
                    contracts={})
    windows = activity_windows(corpus)
    assert windows[(PROXY, ADDR_A)].first_call == 100
    assert windows[(PROXY, ADDR_A)].last_call == 500


def test_activity_window_single_event():
    corpus = Corpus(events=[make_event(PROXY, ADDR_A, 7)], contracts={})
    window = activity_windows(corpus)[(PROXY, ADDR_A)]
    assert (window.first_call, window.last_call) == (7, 7)


def test_activity_window_absent_without_events():
    corpus = Corpus(events=[make_event(PROXY, ADDR_A, 7)], contracts={})
    assert (PROXY, ADDR_B) not in activity_windows(corpus)


def test_creator_partition_excludes_other_creator(three_callee_corpus):
    lineages, diagnostics = build_lineages(three_callee_corpus)
    assert len(lineages) == 1
    lineage = lineages[0]
    assert [v.address for v in lineage.versions] == [ADDR_A, ADDR_B]
    assert lineage.creator == CREATOR_X
    assert exclusion_set(diagnostics) == {(PROXY, ADDR_C, "NOT_SAME_CREATOR")}


def test_overlap_drops_later_version_and_survivor_is_singleton():
    events = window_events(PROXY, ADDR_A, 1, 10) + window_events(PROXY, ADDR_B, 8, 20)
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
    }
    lineages, diagnostics = build_lineages(Corpus(events=events, contracts=contracts))
    assert lineages == []
    assert exclusion_set(diagnostics) == {
        (PROXY, ADDR_B, "OVERLAPPING_WINDOW"),
        (PROXY, ADDR_A, "SINGLETON"),
    }


def test_single_callee_is_singleton():
    events = window_events(PROXY, ADDR_A, 1, 10)
    contracts = {ADDR_A: make_record(ADDR_A, CREATOR_X)}
    lineages, diagnostics = build_lineages(Corpus(events=events, contracts=contracts))
    assert lineages == []
    assert exclusion_set(diagnostics) == {(PROXY, ADDR_A, "SINGLETON")}


def test_equal_boundary_violates_strict_order():
    # the ordering constraint is strict: last call 10 vs first call 10 overlaps.
    events = window_events(PROXY, ADDR_A, 1, 10) + window_events(PROXY, ADDR_B, 10, 20)
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
    }
    lineages, diagnostics = build_lineages(Corpus(events=events, contracts=contracts))
    assert lineages == []
    assert (PROXY, ADDR_B, "OVERLAPPING_WINDOW") in exclusion_set(diagnostics)


def test_unresolved_metadata_excluded():
    events = window_events(PROXY, ADDR_A, 1, 10) + window_events(PROXY, ADDR_B, 11, 20)
    contracts = {ADDR_A: make_record(ADDR_A, CREATOR_X)}
    lineages, diagnostics = build_lineages(Corpus(events=events, contracts=contracts))
    assert lineages == []
    assert exclusion_set(diagnostics) == {
        (PROXY, ADDR_B, "UNRESOLVED_METADATA"),
        (PROXY, ADDR_A, "SINGLETON"),
    }


def test_largest_creator_group_wins():
    events = (
        window_events(PROXY, ADDR_A, 1, 5)
        + window_events(PROXY, ADDR_B, 6, 10)
        + window_events(PROXY, ADDR_C, 2, 4)
    )
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
        ADDR_C: make_record(ADDR_C, CREATOR_Y),
    }
    lineages, _ = build_lineages(Corpus(events=events, contracts=contracts))
    assert lineages[0].creator == CREATOR_X


def test_creator_tie_breaks_by_earliest_activity():
    # Two creators with two callees each; Y's group starts earlier.
    addr_d = "0x" + "dd" * 20
    events = (
        window_events(PROXY, ADDR_A, 10, 12)   # X
        + window_events(PROXY, ADDR_B, 14, 16)  # X
        + window_events(PROXY, ADDR_C, 1, 3)    # Y
        + window_events(PROXY, addr_d, 5, 7)    # Y
    )
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
        ADDR_C: make_record(ADDR_C, CREATOR_Y),
        addr_d: make_record(addr_d, CREATOR_Y),
    }
    lineages, _ = build_lineages(Corpus(events=events, contracts=contracts))
    assert len(lineages) == 1
    assert lineages[0].creator == CREATOR_Y


def test_creator_tie_breaks_lexicographically_when_fully_tied():
    # equal group sizes and equal earliest activity: the smaller creator
    # address wins
    events = (
        window_events(PROXY, ADDR_A, 5, 6)    # X
        + window_events(PROXY, ADDR_B, 10, 12)  # X
        + window_events(PROXY, ADDR_C, 5, 6)    # Y
        + window_events(PROXY, ADDR_D, 10, 12)  # Y
    )
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
        ADDR_C: make_record(ADDR_C, CREATOR_Y),
        ADDR_D: make_record(ADDR_D, CREATOR_Y),
    }
    lineages, _ = build_lineages(Corpus(events=events, contracts=contracts))
    assert len(lineages) == 1
    assert lineages[0].creator == min(CREATOR_X, CREATOR_Y)


def test_equal_first_call_ties_break_by_address():
    # same first_call: the smaller address is kept, the other overlaps out
    events = window_events(PROXY, ADDR_B, 5, 9) + window_events(PROXY, ADDR_A, 5, 7)
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
    }
    lineages, diagnostics = build_lineages(Corpus(events=events, contracts=contracts))
    assert lineages == []
    assert exclusion_set(diagnostics) == {
        (PROXY, ADDR_B, "OVERLAPPING_WINDOW"),
        (PROXY, ADDR_A, "SINGLETON"),
    }


def test_contract_pairs_adjacency():
    addr_d = "0x" + "dd" * 20
    events = (
        window_events(PROXY, ADDR_A, 1, 10)
        + window_events(PROXY, ADDR_B, 11, 20)
        + window_events(PROXY, addr_d, 21, 30)
    )
    contracts = {a: make_record(a, CREATOR_X) for a in (ADDR_A, ADDR_B, addr_d)}
    lineages, _ = build_lineages(Corpus(events=events, contracts=contracts))
    pairs = contract_pairs(lineages)
    assert [(p.predecessor, p.successor) for p in pairs] == [
        (ADDR_A, ADDR_B), (ADDR_B, addr_d),
    ]


def test_two_version_lineage_yields_one_pair(three_callee_corpus):
    lineages, _ = build_lineages(three_callee_corpus)
    assert len(contract_pairs(lineages)) == 1


def test_gap_days_unit_conversion():
    events = window_events(PROXY, ADDR_A, 0, 0) + window_events(PROXY, ADDR_B, 86400, 90000)
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
    }
    lineages, _ = build_lineages(Corpus(events=events, contracts=contracts))
    pairs = contract_pairs(lineages)
    assert pairs[0].gap_days == 1.0


def test_matches_rule_oracle_on_random_corpora():
    rng = random.Random(4242)
    for _ in range(80):
        corpus = random_rule_corpus(rng)
        lineages, diagnostics = build_lineages(corpus)
        expected_lineages, expected_exclusions = oracle_lineages(corpus)
        assert lineage_tuples(lineages) == expected_lineages
        assert exclusion_set(diagnostics) == expected_exclusions
        assert_rules_hold(corpus, lineages)
        # the bundle check re-derives each lineage from its own versions
        for lineage in lineages:
            assert classify_callees(lineage.proxy, dict(lineage.versions),
                                    corpus.contracts) == (lineage, [])


def test_accounting_and_pair_identity_on_random_corpora():
    rng = random.Random(777)
    for _ in range(60):
        corpus = random_rule_corpus(rng)
        lineages, diagnostics = build_lineages(corpus)
        observations = {(e.proxy_address, e.callee_address) for e in corpus.events}
        members = {(l.proxy, v.address) for l in lineages for v in l.versions}
        diagnosed = {(e.proxy, e.callee) for e in diagnostics.exclusions}
        assert members | diagnosed == observations
        assert not members & diagnosed
        assert len(members) + len(diagnosed) == len(observations)
        pairs = contract_pairs(lineages)
        assert len(pairs) == sum(len(l.versions) - 1 for l in lineages)
        for pair in pairs:
            assert pair.gap_days > 0


def test_output_independent_of_event_order():
    rng = random.Random(31)
    corpus = random_rule_corpus(rng)
    shuffled = list(corpus.events)
    rng.shuffle(shuffled)
    reordered = Corpus(events=shuffled, contracts=corpus.contracts)
    assert lineage_tuples(build_lineages(corpus)[0]) == lineage_tuples(build_lineages(reordered)[0])
    assert exclusion_set(build_lineages(corpus)[1]) == exclusion_set(build_lineages(reordered)[1])


def test_shared_callee_may_join_two_proxies():
    proxy2 = "0x" + "22" * 20
    events = (
        window_events(PROXY, ADDR_A, 1, 5)
        + window_events(PROXY, ADDR_B, 6, 10)
        + window_events(proxy2, ADDR_A, 1, 5)
        + window_events(proxy2, ADDR_C, 6, 10)
    )
    contracts = {
        ADDR_A: make_record(ADDR_A, CREATOR_X),
        ADDR_B: make_record(ADDR_B, CREATOR_X),
        ADDR_C: make_record(ADDR_C, CREATOR_X),
    }
    lineages, _ = build_lineages(Corpus(events=events, contracts=contracts))
    assert len(lineages) == 2
    assert {l.proxy for l in lineages} == {PROXY, proxy2}
    members = [{v.address for v in l.versions} for l in lineages]
    assert all(ADDR_A in m for m in members)


def test_exclusion_reason_values():
    assert {r.value for r in ExclusionReason} == {
        "NOT_SAME_CREATOR", "OVERLAPPING_WINDOW", "SINGLETON", "UNRESOLVED_METADATA",
    }
