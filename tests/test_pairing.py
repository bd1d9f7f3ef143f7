"""File/function pairing, similarity rates and the Solidity lexer."""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxylineage import (
    MatchKind,
    SourceFile,
    extract_functions,
    lcs_length,
    levenshtein,
    line_similarity,
    match_files,
    pair_files,
    pair_functions,
    tokenize,
)
from proxylineage.pairing import FileMatch, FilePair, FunctionPair, content_similarity
from proxylineage.solidity import FunctionUnit

from conftest import ADDR_A, ADDR_B, CREATOR_X, make_record
from corpusgen import varied_sourced_corpus
from oracles import (oracle_greedy_pairs, oracle_lcs_length, oracle_levenshtein,
                     oracle_line_similarity)

REGISTRY_V2 = "pragma solidity ^0.8.0;\ncontract LandRegistry { function a() public {} }\n"
REGISTRY_V3 = REGISTRY_V2 + "// patched\n"


def sf(directory, filename, content="contract C {}"):
    return SourceFile(directory=directory, filename=filename, content=content)


# --- text metrics -------------------------------------------------------------

def test_levenshtein_matches_oracle():
    rng = random.Random(5)
    pairs = [("TokenV2.sol", "TokenV3.sol"), ("Token.sol", "TokenV2.sol"), ("aa", "aaa"),
             ("", ""), ("Proxy.sol", "Proxy.sol")]
    for _ in range(300):
        a = "".join(rng.choice("abcde.sol") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcde.sol") for _ in range(rng.randint(0, 12)))
        prefix, suffix = a[:rng.randint(0, 4)], b[:rng.randint(0, 4)]
        # unrelated, equal, and sharing a prefix and a suffix
        pairs += [(a, b), (a, a), (prefix + a + suffix, prefix + b + suffix)]
    for a, b in pairs:
        assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_lcs_matches_oracle_on_sequences():
    rng = random.Random(6)
    for _ in range(300):
        a = [rng.randint(0, 5) for _ in range(rng.randint(0, 25))]
        b = [rng.randint(0, 5) for _ in range(rng.randint(0, 25))]
        assert lcs_length(a, b) == oracle_lcs_length(a, b)


def test_line_similarity_identical_files():
    text = "\n".join(f"line {i}" for i in range(20)) + "\n"
    assert line_similarity(text, text) == 1.0


def test_line_similarity_empty_vs_nonempty():
    five = "\n".join(f"l{i}" for i in range(5))
    assert line_similarity("", five) == 0.0
    assert line_similarity(five, "") == 0.0


def test_line_similarity_both_empty():
    assert line_similarity("", "") == 1.0


def test_line_similarity_one_replaced_line_in_ten():
    lines = [f"line {i}" for i in range(10)]
    a = "\n".join(lines) + "\n"
    changed = list(lines)
    changed[4] = "changed"
    b = "\n".join(changed) + "\n"
    assert abs(line_similarity(a, b) - 0.9) < 1e-12


def test_line_similarity_matches_lcs_oracle_and_is_symmetric():
    rng = random.Random(7)
    alphabet = ["alpha", "beta", "gamma", "delta", ""]
    for _ in range(120):
        a = "\n".join(rng.choice(alphabet) for _ in range(rng.randint(0, 15)))
        b = "\n".join(rng.choice(alphabet) for _ in range(rng.randint(0, 15)))
        value = line_similarity(a, b)
        assert abs(value - oracle_line_similarity(a, b)) < 1e-9
        assert value == line_similarity(b, a)
        assert 0.0 <= value <= 1.0
        identical_lines = a.splitlines() == b.splitlines()
        assert (value == 1.0) == identical_lines


def test_content_similarity_chars():
    assert content_similarity("", "") == 1.0
    assert content_similarity("abc", "") == 0.0
    assert content_similarity("abcd", "abxd") == 0.75


# Small alphabets, so that shared prefixes and suffixes, repeats and
# overlapping ends come up often.
LINES = ["x = 1;", "y = 2;", "}", ""]


def char_strings(min_size=0, max_size=12):
    return st.text(alphabet="ab}\n", min_size=min_size, max_size=max_size)


def line_lists(min_size=0, max_size=12):
    return st.lists(st.sampled_from(LINES), min_size=min_size, max_size=max_size)


def sequences(min_size=0, max_size=12):
    return char_strings(min_size, max_size) | line_lists(min_size, max_size)


@st.composite
def shared_ends(draw):
    """Two sequences of one kind around a long shared prefix and a shared suffix."""
    kind = draw(st.sampled_from([char_strings, line_lists]))
    prefix, suffix = draw(kind(20, 60)), draw(kind(0, 40))
    return prefix + draw(kind()) + suffix, prefix + draw(kind()) + suffix


@settings(max_examples=200, deadline=None)
@given(shared_ends())
def test_lcs_exact_with_shared_prefix_and_suffix(pair):
    a, b = pair
    assert lcs_length(a, b) == oracle_lcs_length(a, b)
    assert lcs_length(b, a) == oracle_lcs_length(a, b)


@settings(max_examples=100, deadline=None)
@given(sequences(max_size=40))
def test_lcs_of_identical_inputs_is_their_length(a):
    assert lcs_length(a, a) == oracle_lcs_length(a, a) == len(a)
    assert lcs_length(a, a[:]) == len(a)


@settings(max_examples=100, deadline=None)
@given(sequences(max_size=40))
def test_lcs_with_one_empty_side_is_zero(a):
    assert lcs_length(a, a[:0]) == lcs_length(a[:0], a) == oracle_lcs_length(a, a[:0]) == 0


@settings(max_examples=200, deadline=None)
@example(unit="a", m=2, n=3)
@example(unit=["}"], m=2, n=3)
@given(unit=sequences(min_size=1, max_size=3), m=st.integers(0, 8), n=st.integers(0, 8))
def test_lcs_exact_when_prefix_and_suffix_overlap(unit, m, n):
    # in "aa" against "aaa" every item is both a prefix and a suffix match
    a, b = unit * m, unit * n
    assert lcs_length(a, b) == oracle_lcs_length(a, b)
    longer = b + unit[:1]
    assert lcs_length(a, longer) == oracle_lcs_length(a, longer)


@settings(max_examples=200, deadline=None)
@given(shared_ends())
def test_similarities_stay_symmetric_with_shared_ends(pair):
    a, b = ("\n".join(side) if isinstance(side, list) else side for side in pair)
    assert line_similarity(a, b) == line_similarity(b, a)
    assert abs(line_similarity(a, b) - oracle_line_similarity(a, b)) < 1e-9
    assert content_similarity(a, b) == content_similarity(b, a)


# --- lexer and extraction -----------------------------------------------------

def test_tokenize_skips_comments_and_blanks_strings():
    text = 'a = 1; // trailing\n/* block\ncomment */ b = "str"; c = \'x\';\nd = "open'
    diagnostics: list[str] = []
    texts, starts = tokenize(text, diagnostics)
    assert "trailing" not in texts
    assert "comment" not in texts
    assert texts.count('""') == 3
    assert "".join(text[start] for start in starts) == "a=1;b=\";c=';d=\""
    assert diagnostics == ["line 4: unterminated string literal"]


def test_tokenize_tracks_lines_through_block_comments():
    diagnostics: list[str] = []
    assert tokenize("/* a\nb\nc */ x 'y", diagnostics) == (["x", '""'], [12, 14])
    assert diagnostics == ["line 3: unterminated string literal"]
    units = extract_functions("/* a\nb\nc */ contract C { function f() public {\n} }")
    assert [(u.name, u.start_line, u.end_line) for u in units] == [("f", 3, 4)]


def test_extract_single_function():
    units = extract_functions("contract A { function f(uint256 x) public {} }")
    assert len(units) == 1
    assert units[0].name == "f"
    assert units[0].signature == "f(uint256)"


def test_commented_function_is_ignored():
    source = "contract A { // function g() {}\n function h() public {} }"
    units = extract_functions(source)
    assert [u.name for u in units] == ["h"]


TWO_CONTRACTS = """pragma solidity ^0.8.0;

contract First {
    function one(uint256 a) public returns (uint256) {
        return a + 1;
    }

    function two(address who, bytes memory data) external payable {
        who.call(data);
    }

    function three() internal pure returns (bool) { return true; }
}

library Second {
    function four(uint256[] memory xs) public {
        for (uint256 i = 0; i < xs.length; i++) {}
    }

    function five(mapping(uint256 => address) storage m) internal {
        delete m[0];
    }

    function six() external;
}
"""


def test_two_contracts_three_functions_each():
    units = extract_functions(TWO_CONTRACTS)
    assert [u.name for u in units] == ["one", "two", "three", "four", "five", "six"]
    by_name = {u.name: u for u in units}
    assert by_name["one"].signature == "one(uint256)"
    assert by_name["two"].signature == "two(address,bytes)"
    assert by_name["three"].signature == "three()"
    assert by_name["four"].signature == "four(uint256[])"
    assert by_name["five"].signature == "five(mapping(uint256=>address))"
    assert by_name["six"].signature == "six()"
    assert (by_name["one"].start_line, by_name["one"].end_line) == (4, 6)
    assert (by_name["two"].start_line, by_name["two"].end_line) == (8, 10)
    assert (by_name["three"].start_line, by_name["three"].end_line) == (12, 12)
    assert (by_name["four"].start_line, by_name["four"].end_line) == (16, 18)
    assert (by_name["five"].start_line, by_name["five"].end_line) == (20, 22)
    assert (by_name["six"].start_line, by_name["six"].end_line) == (24, 24)
    assert by_name["six"].body == ""
    assert by_name["one"].body.startswith("{") and by_name["one"].body.endswith("}")


def test_function_with_modifier_arguments_and_returns():
    source = (
        "contract A {\n"
        "    modifier capped(uint256 x, uint256 y) { _; }\n"
        "    function f(uint256 v) public capped(1, 2) returns (uint256) {\n"
        "        return v;\n"
        "    }\n"
        "}\n"
    )
    units = extract_functions(source)
    assert [u.signature for u in units] == ["f(uint256)"]
    assert units[0].end_line == 5


def test_function_typed_state_variable_is_not_a_declaration():
    source = "contract A { function(uint256) external returns (bool) callback; function g() public {} }"
    units = extract_functions(source)
    assert [u.name for u in units] == ["g"]


def test_file_level_function_is_ignored():
    source = "function free() pure returns (uint256) { return 1; }\ncontract A { function f() public {} }"
    units = extract_functions(source)
    assert [u.name for u in units] == ["f"]


def test_nested_function_in_body_is_not_extracted():
    # assembly blocks and lambdas do not exist, but a brace-nested `function`
    # token inside a body must not produce a unit
    source = "contract A { function f() public { assembly { function g() {} } } }"
    units = extract_functions(source)
    assert [u.name for u in units] == ["f"]


def test_unbalanced_braces_yield_partial_result_and_diagnostic():
    source = "contract A { function f() public { uint256 x = 1;"
    notes: list[str] = []
    units = extract_functions(source, notes)
    assert [u.name for u in units] == ["f"]
    assert any("unbalanced" in n for n in notes)


def test_extraction_count_invariant_under_comment_insertion():
    base = extract_functions(TWO_CONTRACTS)
    commented = TWO_CONTRACTS.replace(
        "contract First {", "contract First { // function fake() {}\n /* function f2() public {} */"
    )
    again = extract_functions(commented)
    assert len(again) == len(base)
    assert [u.signature for u in again] == [u.signature for u in base]


def test_address_payable_parameter_canonicalization():
    source = "contract A { function f(address payable to, uint256 amount) public {} }"
    units = extract_functions(source)
    assert units[0].signature == "f(addresspayable,uint256)"


# --- file pairing ---------------------------------------------------------------

def test_land_registry_rename_pairs_at_distance_one():
    pred = make_record(ADDR_A, CREATOR_X, [sf("a", "LandRegistryV2.sol", REGISTRY_V2)])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", "LandRegistryV3.sol", REGISTRY_V3)])
    pairing = pair_files(pred, succ)
    assert len(pairing.pairs) == 1
    pair = pairing.pairs[0]
    assert pair.name_distance == 1
    assert pair.directory == "a"
    assert pairing.unpaired_predecessor == []
    assert pairing.unpaired_successor == []


def test_identical_path_pairs_at_distance_zero():
    pred = make_record(ADDR_A, CREATOR_X, [sf("a", "Token.sol")])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", "Token.sol")])
    pairing = pair_files(pred, succ)
    assert pairing.pairs[0].name_distance == 0
    assert pairing.pairs[0].line_similarity == 1.0


def test_distant_names_stay_unpaired():
    assert oracle_levenshtein("A.sol", "Registry.sol") > 2
    pred = make_record(ADDR_A, CREATOR_X, [sf("a", "A.sol")])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", "Registry.sol")])
    pairing = pair_files(pred, succ)
    assert pairing.pairs == []
    assert pairing.unpaired_predecessor == [("a", "A.sol")]
    assert pairing.unpaired_successor == [("a", "Registry.sol")]


def test_directories_must_match():
    pred = make_record(ADDR_A, CREATOR_X, [sf("a", "Token.sol")])
    succ = make_record(ADDR_B, CREATOR_X, [sf("b", "Token.sol")])
    pairing = pair_files(pred, succ)
    assert pairing.pairs == []


def test_not_open_source_flag():
    pred = make_record(ADDR_A, CREATOR_X, [])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", "Token.sol")])
    pairing = pair_files(pred, succ)
    assert pairing.flag == "NOT_OPEN_SOURCE"
    assert pairing.pairs == []


def test_self_pairing_is_identity():
    record = make_record(ADDR_A, CREATOR_X, [
        sf("a", "One.sol", "contract One {}"),
        sf("b", "Two.sol", "contract Two {}"),
    ])
    pairing = pair_files(record, record)
    assert len(pairing.pairs) == 2
    assert all(p.name_distance == 0 and p.line_similarity == 1.0 for p in pairing.pairs)
    assert pairing.unpaired_predecessor == []


def test_exact_names_win_over_near_names():
    # TokenV2 exists on both sides; greedy must take the distance-0 match
    # before spending TokenV2 on the distance-1 candidate TokenV3.
    pred = make_record(ADDR_A, CREATOR_X, [sf("a", "TokenV2.sol")])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", "TokenV2.sol"), sf("a", "TokenV3.sol")])
    pairing = pair_files(pred, succ)
    assert len(pairing.pairs) == 1
    assert pairing.pairs[0].successor_filename == "TokenV2.sol"
    assert pairing.unpaired_successor == [("a", "TokenV3.sol")]


def test_tie_breaks_lexicographically():
    pred = make_record(ADDR_A, CREATOR_X, [sf("a", "Ax.sol"), sf("a", "Ay.sol")])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", "Az.sol")])
    pairing = pair_files(pred, succ)
    assert len(pairing.pairs) == 1
    assert pairing.pairs[0].predecessor_filename == "Ax.sol"
    assert pairing.unpaired_predecessor == [("a", "Ay.sol")]


def test_each_file_used_at_most_once():
    rng = random.Random(12)
    names = [f"Mod{i}.sol" for i in range(6)]
    pred = make_record(ADDR_A, CREATOR_X, [sf("a", n) for n in rng.sample(names, 4)])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", n) for n in rng.sample(names, 4)])
    pairing = pair_files(pred, succ)
    pred_used = [p.predecessor_filename for p in pairing.pairs]
    succ_used = [p.successor_filename for p in pairing.pairs]
    assert len(pred_used) == len(set(pred_used))
    assert len(succ_used) == len(set(succ_used))


def assert_matching_is_pairing_by_name(pred, succ):
    matching = match_files(pred, succ)
    pairing = pair_files(pred, succ)
    assert [(m.directory, m.predecessor_filename, m.successor_filename, m.name_distance)
            for m in matching.pairs] == [
        (p.directory, p.predecessor_filename, p.successor_filename, p.name_distance)
        for p in pairing.pairs]
    assert matching.unpaired_predecessor == pairing.unpaired_predecessor
    assert matching.unpaired_successor == pairing.unpaired_successor
    assert matching.flag == pairing.flag


def test_match_files_is_pair_files_without_scores_on_generated_corpora():
    for seed in range(6):
        corpus = varied_sourced_corpus(random.Random(seed))
        records = sorted(corpus.contracts.values(), key=lambda r: r.address)
        for pred in records:
            for succ in records:
                assert_matching_is_pairing_by_name(pred, succ)


def test_match_files_keeps_not_open_source_flag():
    pred = make_record(ADDR_A, CREATOR_X, [])
    succ = make_record(ADDR_B, CREATOR_X, [sf("a", "Token.sol")])
    for a, b in ((pred, succ), (succ, pred)):
        matching = match_files(a, b)
        assert matching.flag == "NOT_OPEN_SOURCE"
        assert matching.pairs == []
        assert matching.unpaired_predecessor == matching.unpaired_successor == []


def test_a_file_pair_lists_the_file_match_fields_first():
    # pair_files builds each FilePair from a FileMatch's values, then its two scores
    assert FilePair._fields[:4] == FileMatch._fields


@st.composite
def near_named_files(draw):
    """A small file set: few directories, names within a few edits of each other."""
    stems = draw(st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=3))
    paths = draw(st.lists(
        st.tuples(st.sampled_from(["src", "lib", ""]), st.sampled_from(stems),
                  st.text("ab", max_size=3)),
        max_size=5, unique_by=lambda t: (t[0], t[1] + t[2])))
    return [sf(directory, stem + tail + ".sol", f"contract C{i} {{}}\n")
            for i, (directory, stem, tail) in enumerate(paths)]


@settings(max_examples=300, deadline=None)
@given(near_named_files(), near_named_files())
@example([sf("a", "Ax.sol"), sf("a", "Ay.sol")], [sf("a", "Az.sol")])
def test_match_files_is_pair_files_without_scores(pred_files, succ_files):
    pred = make_record(ADDR_A, CREATOR_X, pred_files)
    succ = make_record(ADDR_B, CREATOR_X, succ_files)
    assert_matching_is_pairing_by_name(pred, succ)


# --- function pairing -----------------------------------------------------------

def make_file_pair() -> FilePair:
    return FilePair(
        directory="a",
        predecessor_filename="C.sol", successor_filename="C.sol",
        name_distance=0, line_similarity=1.0, content_similarity=1.0,
    )


def units_from(source: str):
    return extract_functions(source)


def test_same_signature_is_exact_match():
    pred = units_from("contract C { function f(uint256 a) public {} }")
    succ = units_from("contract C { function f(uint256 b) public {} }")
    pairing = pair_functions(make_file_pair(), pred, succ)
    assert len(pairing.pairs) == 1
    assert pairing.pairs[0].match_kind is MatchKind.EXACT_SIGNATURE


def test_fuzzy_name_match_with_changed_parameters():
    pred = units_from("contract C { function mintV2(uint256 a) public {} }")
    succ = units_from("contract C { function mintV3(uint256 a, address b) public {} }")
    pairing = pair_functions(make_file_pair(), pred, succ)
    assert len(pairing.pairs) == 1
    assert pairing.pairs[0].match_kind is MatchKind.FUZZY_NAME


def test_distant_names_unpaired():
    pred = units_from("contract C { function deposit() public {} }")
    succ = units_from("contract C { function withdrawAll() public {} }")
    pairing = pair_functions(make_file_pair(), pred, succ)
    assert pairing.pairs == []
    assert [u.name for u in pairing.unpaired_predecessor] == ["deposit"]
    assert [u.name for u in pairing.unpaired_successor] == ["withdrawAll"]


def test_exact_match_consumes_before_fuzzy():
    pred = units_from("contract C { function f(uint256 a) public {} function g() public {} }")
    succ = units_from("contract C { function f(uint256 b) public {} function f2() public {} }")
    pairing = pair_functions(make_file_pair(), pred, succ)
    kinds = {p.predecessor.name: p.match_kind for p in pairing.pairs}
    assert kinds["f"] is MatchKind.EXACT_SIGNATURE
    # g -> f2 is distance 2: paired fuzzily
    assert kinds["g"] is MatchKind.FUZZY_NAME


def test_duplicate_signatures_pair_in_source_order():
    source = "contract C { function f(uint256 a) public {} } contract D { function f(uint256 b) public {} }"
    pred = units_from(source)
    succ = units_from(source)
    pairing = pair_functions(make_file_pair(), pred, succ)
    assert len(pairing.pairs) == 2
    assert all(p.match_kind is MatchKind.EXACT_SIGNATURE for p in pairing.pairs)
    assert all(p.predecessor.start_line == p.successor.start_line for p in pairing.pairs)


def test_function_matching_is_partial_injection():
    rng = random.Random(13)
    names = ["alpha", "alphb", "beta", "betaX", "gamma"]
    pred_src = "contract C {" + "".join(
        f" function {n}() public {{}}" for n in rng.sample(names, 4)) + " }"
    succ_src = "contract C {" + "".join(
        f" function {n}() public {{}}" for n in rng.sample(names, 4)) + " }"
    pairing = pair_functions(make_file_pair(), units_from(pred_src), units_from(succ_src))
    pred_ids = [id(p.predecessor) for p in pairing.pairs]
    succ_ids = [id(p.successor) for p in pairing.pairs]
    assert len(pred_ids) == len(set(pred_ids))
    assert len(succ_ids) == len(set(succ_ids))


# --- both name matchings against the greedy oracle ------------------------------

NEAR_FILENAMES = ["A.sol", "Ax.sol", "Ay.sol", "AB.sol", "Token.sol", "TokenV2.sol", "TokenV3.sol"]
NEAR_FUNCTION_NAMES = ["f", "g", "fg", "mint", "mints", "mintV2"]


def random_record(rng: random.Random, address: str):
    """One to six files in three directories, a filename often in several of them."""
    paths = {(rng.choice(["", "src", "lib"]), rng.choice(NEAR_FILENAMES))
             for _ in range(rng.randint(1, 6))}
    return make_record(address, CREATOR_X, [sf(directory, name) for directory, name in paths])


def oracle_match_files(pred, succ):
    """(pairs, unpaired predecessor, unpaired successor) of oracle_greedy_pairs run on each
    shared directory, ranked by distance, then predecessor and successor filename."""
    pairs = []
    for directory in {f.directory for f in pred.files} & {f.directory for f in succ.files}:
        pnames = [f.filename for f in pred.files if f.directory == directory]
        snames = [f.filename for f in succ.files if f.directory == directory]
        pairs += [FileMatch(directory, pnames[i], snames[j], distance) for distance, i, j in
                  oracle_greedy_pairs(pnames, snames, lambda d, i, j: (d, pnames[i], snames[j]))]
    pairs.sort()
    paired_pred = {(m.directory, m.predecessor_filename) for m in pairs}
    paired_succ = {(m.directory, m.successor_filename) for m in pairs}
    return (pairs,
            sorted((f.directory, f.filename) for f in pred.files
                   if (f.directory, f.filename) not in paired_pred),
            sorted((f.directory, f.filename) for f in succ.files
                   if (f.directory, f.filename) not in paired_succ))


def test_match_files_equals_the_greedy_oracle():
    rng = random.Random(32)
    for _ in range(3000):
        pred, succ = random_record(rng, ADDR_A), random_record(rng, ADDR_B)
        pairing = match_files(pred, succ)
        assert (pairing.pairs, pairing.unpaired_predecessor,
                pairing.unpaired_successor) == oracle_match_files(pred, succ)


def random_units(rng: random.Random, side: str) -> list[FunctionUnit]:
    """Up to eight functions over few names, signatures and start lines, so names repeat,
    start lines are equal and two functions of one name often share a line. Bodies differ,
    so every unit is told apart by value."""
    units = []
    for k in range(rng.randint(0, 7)):
        name, line = rng.choice(NEAR_FUNCTION_NAMES), rng.randint(1, 4)
        units.append(FunctionUnit(name, f"{name}({rng.choice(['', 'uint256'])})",
                                  f"{side}{k}", line, line + 1))
    if units and rng.random() < 0.5:
        twin = rng.choice(units)
        units.append(twin._replace(signature=f"{twin.name}(address)", body=f"{side}-twin"))
    rng.shuffle(units)
    return units


def oracle_pair_functions(fp, pred_units, succ_units):
    """(pairs, unpaired predecessor, unpaired successor): equal signatures paired in source
    order, then oracle_greedy_pairs on the rest's names, ranked by distance, names and start
    lines; the pairs ordered by start lines and predecessor name, ties in the order made."""
    def source_order(units, signature):
        return [i for _, _, i in sorted((u.start_line, u.name, i) for i, u in enumerate(units)
                                        if u.signature == signature)]

    made = []
    for signature in sorted({u.signature for u in pred_units} & {u.signature for u in succ_units}):
        made += [(i, j, MatchKind.EXACT_SIGNATURE) for i, j in
                 zip(source_order(pred_units, signature), source_order(succ_units, signature))]
    pred_free = [i for i in range(len(pred_units)) if i not in {m[0] for m in made}]
    succ_free = [j for j in range(len(succ_units)) if j not in {m[1] for m in made}]

    def rank(distance, a, b):
        p, s = pred_units[pred_free[a]], succ_units[succ_free[b]]
        return distance, p.name, s.name, p.start_line, s.start_line

    made += [(pred_free[a], succ_free[b], MatchKind.FUZZY_NAME) for _, a, b in oracle_greedy_pairs(
        [pred_units[i].name for i in pred_free], [succ_units[j].name for j in succ_free], rank)]
    made.sort(key=lambda m: (pred_units[m[0]].start_line, succ_units[m[1]].start_line,
                             pred_units[m[0]].name))
    paired_pred, paired_succ = {m[0] for m in made}, {m[1] for m in made}
    return ([FunctionPair(fp, pred_units[i], succ_units[j], kind) for i, j, kind in made],
            [u for i, u in enumerate(pred_units) if i not in paired_pred],
            [u for j, u in enumerate(succ_units) if j not in paired_succ])


def test_pair_functions_equals_the_greedy_oracle():
    rng = random.Random(32)
    fp = make_file_pair()
    for _ in range(3000):
        pred, succ = random_units(rng, "p"), random_units(rng, "s")
        pairing = pair_functions(fp, pred, succ)
        assert tuple(pairing) == oracle_pair_functions(fp, pred, succ)
