"""Packed integer fields: every point's answer to a linear constraint at once.

The points' integer coordinate columns are packed into one ``int`` each,
with a field of ``wb`` whole bytes (``w = 8 wb`` bits) per point holding the
coordinate minus the column minimum: ``C_j = sum_i (x_ij - min_j) 2^(w i)``.
A constraint ``a . x <= rhs`` shifted to the minima is
``a . (x_i - min) <= rhs' = rhs - a . min``, and field i of

    (rhs' + 2^(w-1)) ONES - sum_j a_j C_j,    ONES = sum_i 2^(w i),

holds ``t_i + 2^(w-1)`` with ``t_i = rhs' - a . (x_i - min)``, so its top bit
is set iff point i satisfies the constraint.  ``a . (x_i - min)`` lies in
``[low, high]``, the sums of ``min(0, a_j span_j)`` and ``max(0, a_j
span_j)``: when ``rhs' >= high`` every point satisfies the constraint and
when ``rhs' < low`` none does, both settled without packing.  Otherwise
``-B <= t_i < B`` for ``B = sum_j |a_j| span_j``, and ``w - 1 >=
B.bit_length()`` keeps every field in ``[0, 2^w)``: no borrow or carry
crosses a field, and the answer is exact.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat
from operator import mul, sub
from typing import Sequence

from .geometry import Coords, LinearConstraint

# A pack may take up to this many times the memory of the smallest column
# (its int objects); a wider field, from a huge outlier coordinate or
# coefficient, leaves the constraint to the per-point test.
MAX_PACK_RATIO = 4


class PackedColumns:
    """The coordinate columns of integer points, packed once per field width.

    Build one with ``pack_columns``.  Packs, and the ``ONES`` of each width,
    are made on first use and kept, so every range of one oracle call shares
    them.
    """

    def __init__(self, columns: list[tuple[int, ...]]):
        self.n = len(columns[0])
        self.columns = columns
        self.mins = [min(col) for col in columns]
        self.spans = [max(col) - lo for col, lo in zip(columns, self.mins)]
        smallest = min(sum(map(sys.getsizeof, col)) for col in columns)
        self.max_wb = MAX_PACK_RATIO * smallest // self.n
        self._packs: dict[tuple[int, int], int] = {}
        self._ones: dict[int, int] = {}

    def hits(self, constraints: Sequence[LinearConstraint]) -> list[int] | None:
        """Indices, ascending, of the points that satisfy every constraint,
        or ``None`` when a pack would be far larger than the columns (see
        ``MAX_PACK_RATIO``).

        Every constraint that is left is decided at the largest width any of
        them needs, so their rows are ANDed field by field.
        """
        live = []
        for coeffs, rhs in constraints:
            terms = [(j, a) for j, a in enumerate(coeffs)
                     if a and self.spans[j]]
            rhs -= sum(map(mul, coeffs, self.mins))
            low = high = 0
            for j, a in terms:
                if a > 0:
                    high += a * self.spans[j]
                else:
                    low += a * self.spans[j]
            if rhs < low:
                return []
            if rhs < high:
                live.append((terms, rhs, high - low))
        if not live:
            return list(range(self.n))
        wb = max(bound.bit_length() for _, _, bound in live) // 8 + 1
        if wb > self.max_wb:
            return None
        ones = self._ones_of(wb)
        half = 1 << (8 * wb - 1)
        row = half * ones
        for terms, rhs, _ in live:
            total = (rhs + half) * ones
            for j, a in terms:
                total -= a * self._pack(j, wb)
            row &= total
        # Only top bits are left: byte wb - 1 of field i is 0x80 iff point i
        # is a hit, and every other byte is 0.
        flags = row.to_bytes(self.n * wb, "little")
        out = []
        at = flags.find(0x80)
        while at >= 0:
            out.append(at // wb)
            at = flags.find(0x80, at + 1)
        return out

    def _pack(self, j: int, wb: int) -> int:
        key = (j, wb)
        packed = self._packs.get(key)
        if packed is None:
            offsets = map(sub, self.columns[j], repeat(self.mins[j]))
            packed = int.from_bytes(b"".join(map(
                int.to_bytes, offsets, repeat(wb), repeat("little"))), "little")
            self._packs[key] = packed
        return packed

    def _ones_of(self, wb: int) -> int:
        ones = self._ones.get(wb)
        if ones is None:
            ones = int.from_bytes((b"\x01" + bytes(wb - 1)) * self.n, "little")
            self._ones[wb] = ones
        return ones


def pack_columns(coords: Sequence[Coords]) -> PackedColumns | None:
    """The packed columns of points given as coordinate tuples of one
    dimension, or ``None`` unless there is a point and every coordinate is
    an ``int``."""
    if not coords or set(map(type, chain.from_iterable(coords))) != {int}:
        return None
    return PackedColumns(list(zip(*coords)))
