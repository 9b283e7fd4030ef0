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
from .frozen import Frozen, set_field


class DyadicRange(Frozen):
    """The index range [s * 2^rank, (s+1) * 2^rank - 1], ordered by
    ``(rank, s)``."""

    __slots__ = ("rank", "s")

    def __init__(self, rank: int, s: int):
        if rank < 0 or s < 0:
            raise InvalidInputError("dyadic range needs nonnegative rank and s")
        set_field(self, "rank", rank)
        set_field(self, "s", s)

    # Hash, equality and order on (rank, s) are written out, not inherited:
    # the box cover hashes and sorts every range it decomposes into.  ``>``
    # and ``>=`` reflect to ``__lt__`` and ``__le__``.
    def __hash__(self) -> int:
        return hash((self.rank, self.s))

    def __eq__(self, other):
        if other.__class__ is not DyadicRange:
            return NotImplemented
        return self.rank == other.rank and self.s == other.s

    def __lt__(self, other):
        if other.__class__ is not DyadicRange:
            return NotImplemented
        return (self.rank, self.s) < (other.rank, other.s)

    def __le__(self, other):
        if other.__class__ is not DyadicRange:
            return NotImplemented
        return (self.rank, self.s) <= (other.rank, other.s)

    @property
    def lo(self) -> int:
        return self.s << self.rank

    @property
    def hi(self) -> int:
        return ((self.s + 1) << self.rank) - 1

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def canonical_decomposition(alpha: int, beta: int, n: int) -> list[DyadicRange]:
    """Unique minimal disjoint dyadic cover of [alpha, beta] within {0..n-1}.

    Greedy from the left: at each position take the largest dyadic range that
    starts there and fits inside [alpha, beta].  The result has at most
    2 * ceil(log2 n) ranges.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if not (0 <= alpha <= beta <= n - 1):
        raise InvalidInputError(f"invalid range [{alpha},{beta}] for n={n}")
    out: list[DyadicRange] = []
    x = alpha
    while x <= beta:
        # Largest rank i with x divisible by 2^i and x + 2^i - 1 <= beta.
        i = (x & -x).bit_length() - 1 if x else n.bit_length() + beta.bit_length()
        while (x >> i) << i != x or x + (1 << i) - 1 > beta:
            i -= 1
        out.append(DyadicRange(i, x >> i))
        x += 1 << i
    return out
