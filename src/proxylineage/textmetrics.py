"""Edit distance and LCS-length primitives used by the pairing heuristics."""

from __future__ import annotations

from typing import Hashable, Sequence


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs); a common affix costs nothing."""
    a, b, _ = _strip_common_affixes(a, b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        current = [i + 1]
        for j, cb in enumerate(b):
            current.append(
                min(previous[j + 1] + 1, current[j] + 1, previous[j] + (ca != cb))
            )
        previous = current
    return previous[-1]


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two sequences.

    Bit-parallel row encoding (Allison-Dix); items only need to be hashable,
    so it serves both character and line sequences. A common prefix and
    suffix are settled before the core, which is exact:
    LCS(p+x+s, p+y+s) = |p| + |s| + LCS(x, y).
    """
    a, b, common = _strip_common_affixes(a, b)
    if not a or not b:
        return common
    masks: dict[Hashable, int] = {}
    bit = 1
    for item in a:
        masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    full = bit - 1
    row = 0
    for item in b:
        x = row | masks.get(item, 0)
        row = x & ~(x - ((row << 1) | 1)) & full
    return common + bin(row).count("1")


def _strip_common_affixes(a: Sequence[Hashable], b: Sequence[Hashable]) -> tuple[Sequence, Sequence, int]:
    """`a` and `b` less their longest common prefix, then suffix, and the count stripped from each."""
    head = len(a) if a == b else _common_prefix_length(a, b)
    a, b = a[head:], b[head:]
    tail = _common_prefix_length(a[::-1], b[::-1])
    return a[:len(a) - tail], b[:len(b) - tail], head + tail


def _common_prefix_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    # binary search over slice comparisons, which run in C for str and list
    low, high = 0, min(len(a), len(b))
    while low < high:
        mid = (low + high + 1) // 2
        if a[low:mid] == b[low:mid]:
            low = mid
        else:
            high = mid - 1
    return low
