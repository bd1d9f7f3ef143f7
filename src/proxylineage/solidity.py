"""Lightweight Solidity lexing and function extraction.

This is deliberately not a grammar: the pairing and fingerprinting layers
only need comment/string-aware tokens, function signatures and body spans.
Modifiers, inheritance lists and assembly blocks pass through as opaque
tokens.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

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

# One scanner serves both token views: `tokenize` (texts and start offsets, for the
# extractor) and `token_texts` (texts only, for fingerprints). Each match skips whitespace
# and closed comments, then takes one token, an unterminated block comment (which runs to
# the end of the text) or the empty end of the text. Some branch always matches, so a
# match never fails and never backtracks into the skipped part. `\s` matches exactly the
# characters for which str.isspace() is true.
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
# A token's text tells its kind. A string token is always '""', a bracket, `;` or `,` is
# a one-character token and a keyword is an ident, so the extractor compares texts; a
# token is an ident exactly when its first character is one of these.
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")


class FunctionUnit(NamedTuple):
    """One function declaration: identity plus its span in the file."""

    name: str
    signature: str
    body: str
    start_line: int
    end_line: int


def _line_counter(text: str) -> Callable[[int], int]:
    """`line_at(offset)`, the 1-based line of an offset of `text`.

    Offsets must come in nondecreasing order: each call counts only the
    newlines since the previous one, so a text is scanned for newlines once.
    """
    counted = 0
    line = 1

    def line_at(offset: int) -> int:
        nonlocal counted, line
        line += text.count("\n", counted, offset)
        counted = offset
        return line

    return line_at


def tokenize(text: str, diagnostics: list[str] | None = None) -> tuple[list[str], list[int]]:
    """Token texts and their start offsets, with comments skipped and string literals blanked.

    String tokens always carry the text '""' so that literal contents never
    influence signatures or fingerprints. A diagnostic's line counts every
    newline before its token or comment, including those inside comments and
    string escapes.
    """
    if diagnostics is None:
        diagnostics = []
    line_at = _line_counter(text)
    texts: list[str] = []
    starts: list[int] = []
    for match in _SCAN.finditer(text):
        token = match["token"]
        if token is None:
            if match["open_comment"]:
                line = line_at(match.start("open_comment"))
                diagnostics.append(f"line {line}: unterminated block comment")
            continue
        if token[0] in "\"'":
            if match["dq"] is None and match["sq"] is None:
                diagnostics.append(f"line {line_at(match.start('token'))}: unterminated string literal")
            token = '""'
        texts.append(token)
        starts.append(match.start("token"))
    return texts, starts


def token_texts(text: str) -> list[str]:
    """The texts of ``tokenize(text)`` without their starts, from one faster ``findall``.

    ``findall`` yields the groups (open_comment, token, dq, sq) of each match.
    """
    return ['""' if token[0] in "\"'" else token
            for _, token, _, _ in _SCAN.findall(text) if token]


def _split_top_level_commas(tokens: list[str]) -> list[list[str]]:
    groups: list[list[str]] = [[]]
    depth = 0
    for token in tokens:
        if token in ("(", "[", "{"):
            depth += 1
        elif token in (")", "]", "}"):
            depth -= 1
        elif token == "," and depth == 0:
            groups.append([])
            continue
        groups[-1].append(token)
    return groups


def canonical_parameter(tokens: list[str]) -> str:
    """Parameter type with the name and data location stripped, whitespace-free."""
    kept = [t for t in tokens if t not in LOCATION_KEYWORDS]
    if len(kept) >= 2 and kept[-1][0] in _IDENT_START and kept[-1] not in _NON_NAME_KEYWORDS:
        kept.pop()
    return "".join(kept)


def canonical_signature(name: str, param_tokens: list[str]) -> str:
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
    tokens, starts = tokenize(text, diagnostics)
    line_at = _line_counter(text)
    units: list[FunctionUnit] = []
    depth = 0
    container_depth: int | None = None
    pending_container = False
    i = 0
    n = len(tokens)
    while i < n:
        token = tokens[i]
        if token == "{":
            depth += 1
            if pending_container and container_depth is None:
                container_depth = depth
                pending_container = False
        elif token == "}":
            depth -= 1
            if container_depth is not None and depth < container_depth:
                container_depth = None
        elif token in CONTAINER_KEYWORDS and depth == 0:
            pending_container = True
        elif token == "function" and container_depth is not None and depth == container_depth:
            unit, next_i = _parse_function(tokens, starts, i, text, line_at, diagnostics)
            if unit is not None:
                units.append(unit)
                i = next_i
                continue
        i += 1
    if depth != 0:
        diagnostics.append("unbalanced braces at end of file")
    return units


def _closing(tokens: list[str], start: int, opener: str, closer: str) -> int | None:
    """Index of the `closer` that balances the `opener` at tokens[start]; None if none does."""
    depth = 0
    for k in range(start, len(tokens)):
        token = tokens[k]
        if token == opener:
            depth += 1
        elif token == closer:
            depth -= 1
            if not depth:
                return k
    return None


def _parse_function(
    tokens: list[str],
    starts: list[int],
    start: int,
    text: str,
    line_at: Callable[[int], int],
    diagnostics: list[str],
) -> tuple[FunctionUnit | None, int]:
    n = len(tokens)
    # Declarations look like `function <name> ( ... )`; anything else here is
    # a function-typed variable or the old unnamed fallback, which we skip.
    if start + 2 >= n:
        return None, start + 1
    name = tokens[start + 1]
    if name[0] not in _IDENT_START or name in _NON_NAME_KEYWORDS or tokens[start + 2] != "(":
        return None, start + 1

    close = _closing(tokens, start + 2, "(", ")")
    if close is None:
        diagnostics.append(
            f"line {line_at(starts[start + 1])}: unterminated parameter list for function {name}"
        )
        return None, n

    signature = canonical_signature(name, tokens[start + 3:close])
    start_line = line_at(starts[start])

    def unit(last: int, body: str = "") -> FunctionUnit:
        """The unit whose declaration ends at tokens[last]."""
        return FunctionUnit(name, signature, body, start_line, line_at(starts[last]))

    # Skip modifiers/returns clauses up to the body `{` or declaration-only `;`.
    paren_depth = 0
    for j in range(close + 1, n):
        token = tokens[j]
        if token == "(":
            paren_depth += 1
        elif token == ")":
            paren_depth -= 1
        elif paren_depth == 0 and token == ";":
            return unit(j), j + 1
        elif paren_depth == 0 and token == "{":
            end = _closing(tokens, j, "{", "}")
            if end is None:
                diagnostics.append(
                    f"line {start_line}: unbalanced braces at EOF in body of function {name}"
                )
                return unit(n - 1), n
            return unit(end, text[starts[j]:starts[end] + 1]), end + 1
    diagnostics.append(f"line {start_line}: function {name} has no body or terminator")
    return unit(n - 1), n
