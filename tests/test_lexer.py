"""The Solidity scanner's two views and the function extractor against their oracles."""

from __future__ import annotations

import re
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxylineage import SourceFile, extract_functions, tokenize
from proxylineage.fingerprint import SHINGLE_SIZE, record_shingles
from proxylineage.solidity import token_texts

from conftest import ADDR_A, CREATOR_X, make_record
from oracles import oracle_extract_functions, oracle_shingle_hash, oracle_tokenize

# Comment and string delimiters, escapes, line ends, Unicode whitespace,
# non-ASCII letters and digits, and the characters that start or continue
# idents and numbers.
ALPHABET = list("/*\"'\\\n\r \t\x1c\x85\u2028\u3000\u00e9\u0663aZ_$09xf.{}();,")
FRAGMENTS = ["//", "/*", "*/", "\\\n", "\\\"", "0x1f", "contract", "function"]

source_text = st.one_of(
    st.text(alphabet=ALPHABET, max_size=60),
    st.lists(st.sampled_from(ALPHABET + FRAGMENTS), max_size=30).map("".join),
)


@settings(max_examples=500, deadline=None)
@given(source_text)
@example("/*/")
@example('x "abc\\')
@example('"')
@example("'\"'")
@example('"a\\\nb" x /* open')
def test_both_views_equal_the_oracle(text):
    diagnostics: list[str] = []
    oracle_diagnostics: list[str] = []
    oracle_tokens = oracle_tokenize(text, oracle_diagnostics)
    texts, starts = tokenize(text, diagnostics)
    assert (texts, starts) == ([t.text for t in oracle_tokens], [t.pos for t in oracle_tokens])
    assert diagnostics == oracle_diagnostics
    assert token_texts(text) == texts


def test_regex_whitespace_is_str_isspace():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def test_escaped_newline_in_a_string_counts_as_a_line():
    diagnostics: list[str] = []
    assert extract_functions('"a\\\nb" x "c', diagnostics) == []
    assert diagnostics == ["line 2: unterminated string literal"]
    source = 'contract A {\n  string s = "one\\\ntwo";\n  function f() public {\n  }\n}\n'
    units = extract_functions(source)
    assert [(u.name, u.start_line, u.end_line) for u in units] == [("f", 4, 5)]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(["A.sol", "B.sol", "C.sol"]), source_text, max_size=3))
def test_record_shingles_hash_every_window_of_the_oracle_texts(contents):
    files = [SourceFile("", name, content) for name, content in contents.items()]
    texts = [t.text for name in sorted(contents) for t in oracle_tokenize(contents[name])]
    expected = {oracle_shingle_hash(texts[i:i + SHINGLE_SIZE])
                for i in range(len(texts) - SHINGLE_SIZE + 1)}
    assert record_shingles(make_record(ADDR_A, CREATOR_X, files)) == expected


# Declarations with each part well formed or not: names that are keywords or
# brackets, parameter lists and clauses that never close, bodies with
# unbalanced or quoted braces, or none at all.
_DECLARATION_PARTS = (
    ["f", "g", "returns", "memory", "(", "{"],
    ["", "uint256 x", "uint256 a, bytes memory b", "(", "(uint256", "mapping(address => uint) m"],
    [")", ")", ""],
    ["", "public", "returns (uint256)", "returns (", ")", "override(A, B)", "("],
    [";", "{}", "{ x = (1); }", "{ {", "{ }}", "", "{ /* } */ }", '{ "}" }', "{ if (x) { y; } }"],
)
declarations = st.tuples(*map(st.sampled_from, _DECLARATION_PARTS)).map(
    lambda parts: "function {} ( {} {} {} {}".format(*parts))
# Stray pieces between the declarations, including ones that swallow the rest.
_STRAY = ["contract C {", "library L {", "interface I {", "}", "{", "(", ")", ";", ",", "function",
          "/*", "// x\n", "'", '"}"']


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(["contract C {", "contract C {", ""]),
       st.lists(declarations | st.sampled_from(_STRAY), max_size=6), st.sampled_from([" ", "\n"]))
@example("contract C {", ["function f ( uint256 x ) returns (uint256) { {"], " ")
@example("contract C {", ["function f ( ) ) ( {} ;", "}"], " ")
@example("contract C {", ["function f ( (uint256 ) public"], "\n")
def test_extract_functions_equals_the_oracle_on_malformed_declarations(header, pieces, separator):
    text = separator.join([header, *pieces])
    diagnostics: list[str] = []
    oracle_diagnostics: list[str] = []
    assert extract_functions(text, diagnostics) == oracle_extract_functions(text, oracle_diagnostics)
    assert diagnostics == oracle_diagnostics
