"""Lightweight Solidity lexing and function extraction.

This is deliberately not a grammar: the pairing and fingerprinting layers
only need comment/string-aware tokens, function signatures and body spans.
Modifiers, inheritance lists and assembly blocks pass through as opaque
tokens.
"""

from __future__ import annotations

import re
from typing import NamedTuple

CONTAINER_KEYWORDS = frozenset({"contract", "library", "interface"})
LOCATION_KEYWORDS = frozenset({"memory", "calldata", "storage"})
# Keywords that may trail a parameter's type tokens and are never its name.
_NON_NAME_KEYWORDS = frozenset(
    {
        "memory", "calldata", "storage", "payable", "indexed", "constant",
        "immutable", "internal", "external", "public", "private", "pure",
        "view", "virtual", "override", "returns", "function", "mapping",
    }
)

# One scanner serves both token views. Each match skips whitespace and closed
# comments, then takes one token, an unterminated block comment (which runs to
# the end of the text) or the empty end of the text. Some branch always
# matches, so a match never fails and never backtracks into the skipped part.
# `\s` matches exactly the characters for which str.isspace() is true.
_SCAN = re.compile(r"""
    (?: \s+ | //[^\n]* | /\*[\s\S]*?\*/ )*
    (?: (?P<open_comment>/\*)[\s\S]*
      | (?P<token>
            "(?:[^"\\\n]|\\[\s\S]?)*(?P<dq>")?
          | '(?:[^'\\\n]|\\[\s\S]?)*(?P<sq>')?
          | [A-Za-z_$][A-Za-z0-9_$]*
          | [0-9][0-9a-fA-FxX._]*
          | \S )
      | \Z )
""", re.VERBOSE)
# A token's kind follows from its first character; anything else is punct.
_KIND_OF_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$", "ident"),
    **dict.fromkeys("0123456789", "number"),
    '"': "string",
    "'": "string",
}


class Token(NamedTuple):
    kind: str  # ident | number | string | punct
    text: str
    line: int
    pos: int


class FunctionUnit(NamedTuple):
    """One function declaration: identity plus its span in the file."""

    name: str
    signature: str
    body: str
    start_line: int
    end_line: int


def tokenize(text: str, diagnostics: list[str] | None = None) -> list[Token]:
    """Token stream with comments skipped and string literals blanked.

    String tokens always carry the text '""' so that literal contents never
    influence signatures or fingerprints. A token's line counts every newline
    before it, including those inside comments and string escapes.
    """
    if diagnostics is None:
        diagnostics = []
    tokens: list[Token] = []
    line = 1
    counted = 0  # newlines before this position are in `line`
    for match in _SCAN.finditer(text):
        token = match["token"]
        if token is None:
            if match["open_comment"]:
                line += text.count("\n", counted, match.start("open_comment"))
                diagnostics.append(f"line {line}: unterminated block comment")
            continue
        pos = match.start("token")
        line += text.count("\n", counted, pos)
        counted = pos
        kind = _KIND_OF_FIRST.get(token[0], "punct")
        if kind == "string":
            if match["dq"] is None and match["sq"] is None:
                diagnostics.append(f"line {line}: unterminated string literal")
            token = '""'
        tokens.append(Token(kind, token, line, pos))
    return tokens


def token_texts(text: str) -> list[str]:
    """The texts of ``tokenize(text)``, without building a Token for each.

    ``findall`` yields the groups (open_comment, token, dq, sq) of each match.
    """
    return ['""' if token[0] in "\"'" else token
            for _, token, _, _ in _SCAN.findall(text) if token]


def _split_top_level_commas(tokens: list[Token]) -> list[list[Token]]:
    groups: list[list[Token]] = [[]]
    depth = 0
    for token in tokens:
        if token.kind == "punct":
            if token.text in "([{":
                depth += 1
            elif token.text in ")]}":
                depth -= 1
            elif token.text == "," and depth == 0:
                groups.append([])
                continue
        groups[-1].append(token)
    return groups


def canonical_parameter(tokens: list[Token]) -> str:
    """Parameter type with the name and data location stripped, whitespace-free."""
    kept = [t for t in tokens if not (t.kind == "ident" and t.text in LOCATION_KEYWORDS)]
    if len(kept) >= 2:
        last = kept[-1]
        if last.kind == "ident" and last.text not in _NON_NAME_KEYWORDS:
            kept = kept[:-1]
    return "".join(t.text for t in kept)


def canonical_signature(name: str, param_tokens: list[Token]) -> str:
    groups = _split_top_level_commas(param_tokens)
    if len(groups) == 1 and not groups[0]:
        return f"{name}()"
    return f"{name}({','.join(canonical_parameter(g) for g in groups)})"


def extract_functions(text: str, diagnostics: list[str] | None = None) -> list[FunctionUnit]:
    """Extract function declarations at the top level of contract-like bodies.

    A declaration's body spans the balanced ``{...}`` (kept verbatim) or is
    empty when the declaration ends at ``;``. Unbalanced braces at the end of
    the text produce a partial result plus a diagnostic instead of an error.
    """
    if diagnostics is None:
        diagnostics = []
    tokens = tokenize(text, diagnostics)
    units: list[FunctionUnit] = []
    depth = 0
    container_depth: int | None = None
    pending_container = False
    i = 0
    n = len(tokens)
    while i < n:
        token = tokens[i]
        if token.kind == "punct":
            if token.text == "{":
                depth += 1
                if pending_container and container_depth is None:
                    container_depth = depth
                    pending_container = False
            elif token.text == "}":
                depth -= 1
                if container_depth is not None and depth < container_depth:
                    container_depth = None
            i += 1
            continue
        if token.kind == "ident" and token.text in CONTAINER_KEYWORDS and depth == 0:
            pending_container = True
            i += 1
            continue
        if (
            token.kind == "ident"
            and token.text == "function"
            and container_depth is not None
            and depth == container_depth
        ):
            unit, next_i = _parse_function(tokens, i, text, diagnostics)
            if unit is not None:
                units.append(unit)
                i = next_i
                continue
        i += 1
    if depth != 0:
        diagnostics.append("unbalanced braces at end of file")
    return units


def _closing(tokens: list[Token], start: int, opener: str, closer: str) -> int | None:
    """Index of the `closer` that balances the `opener` at tokens[start]; None if none does.

    Only a punct token's text can be a bracket, so the kind is not checked.
    """
    depth = 0
    for k in range(start, len(tokens)):
        text = tokens[k].text
        if text == opener:
            depth += 1
        elif text == closer:
            depth -= 1
            if not depth:
                return k
    return None


def _parse_function(
    tokens: list[Token],
    start: int,
    text: str,
    diagnostics: list[str],
) -> tuple[FunctionUnit | None, int]:
    n = len(tokens)
    # Declarations look like `function <name> ( ... )`; anything else here is
    # a function-typed variable or the old unnamed fallback, which we skip.
    if start + 2 >= n:
        return None, start + 1
    name_token = tokens[start + 1]
    open_paren = tokens[start + 2]
    if name_token.kind != "ident" or name_token.text in _NON_NAME_KEYWORDS:
        return None, start + 1
    if open_paren.kind != "punct" or open_paren.text != "(":
        return None, start + 1

    close = _closing(tokens, start + 2, "(", ")")
    if close is None:
        diagnostics.append(
            f"line {name_token.line}: unterminated parameter list for function {name_token.text}"
        )
        return None, n

    signature = canonical_signature(name_token.text, tokens[start + 3:close])
    start_line = tokens[start].line

    def unit(body: str, end_line: int) -> FunctionUnit:
        return FunctionUnit(name_token.text, signature, body, start_line, end_line)

    # Skip modifiers/returns clauses up to the body `{` or declaration-only `;`.
    paren_depth = 0
    for j in range(close + 1, n):
        token = tokens[j]
        if token.kind == "punct":
            if token.text == "(":
                paren_depth += 1
            elif token.text == ")":
                paren_depth -= 1
            elif paren_depth == 0 and token.text == ";":
                return unit("", token.line), j + 1
            elif paren_depth == 0 and token.text == "{":
                end = _closing(tokens, j, "{", "}")
                if end is None:
                    diagnostics.append(
                        f"line {start_line}: unbalanced braces at EOF in body of "
                        f"function {name_token.text}"
                    )
                    return unit("", tokens[-1].line), n
                return unit(text[token.pos:tokens[end].pos + 1], tokens[end].line), end + 1
    diagnostics.append(f"line {start_line}: function {name_token.text} has no body or terminator")
    return unit("", tokens[-1].line), n
