"""Dyadic index ranges and the canonical minimal decomposition.

Indexing is 0-based: the ground set is {0, ..., n-1} and a dyadic range is
[s * 2^i, (s+1) * 2^i - 1] for nonnegative integers s and rank i.  With
0-based indexing the full range of a power-of-two ground set is itself
dyadic.  For other n the ground set is conceptually padded to the next power
of two; emitted ranges are genuinely dyadic (never clipped) and must merely
intersect {0, ..., n-1}.
"""

from __future__ import annotations

from .errors import InvalidInputError


def canonical_decomposition(alpha: int, beta: int,
                            n: int) -> list[tuple[int, int]]:
    """Unique minimal disjoint dyadic cover of [alpha, beta] within {0..n-1},
    as ``(rank, s)`` pairs in increasing start order.

    Greedy from the left: at each position take the largest dyadic range that
    starts there and fits inside [alpha, beta].  The result has at most
    2 * ceil(log2 n) ranges.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if not (0 <= alpha <= beta <= n - 1):
        raise InvalidInputError(f"invalid range [{alpha},{beta}] for n={n}")
    out: list[tuple[int, int]] = []
    x = alpha
    while x <= beta:
        # Largest rank i with x + 2^i - 1 <= beta and x divisible by 2^i.
        i = (beta - x + 1).bit_length() - 1
        if x:
            i = min(i, (x & -x).bit_length() - 1)
        out.append((i, x >> i))
        x += 1 << i
    return out
