"""Reporting structure for slanted ranges: value <= a * key + b over a key
interval.

A balanced index tree over key-sorted entries; every internal node keeps the
min/max value of its slice, so whole subtrees are pruned (all entries above
the line's maximum over the node's key extent) or reported wholesale (all
entries below its minimum).  Entries live in one contiguous array, so a
wholesale report costs no extra node visits.  Storage is linear: one slot
per entry plus one light node per leaf-sized block.
"""

from __future__ import annotations

from ..errors import InvalidInputError
from ..geometry import Rat, _integer_form

LEAF_SIZE = 8


class QueryStats:
    """Instrumentation for one query."""

    def __init__(self):
        self.nodes_visited = 0
        self.entry_tests = 0

    @property
    def work(self) -> int:
        return self.nodes_visited + self.entry_tests


class _Node:
    """``v_min``/``v_max`` are entry indices of the slice's least and
    greatest value."""

    __slots__ = ("lo", "hi", "v_min", "v_max", "left", "right")

    def __init__(self, lo, hi, v_min, v_max, left=None, right=None):
        self.lo = lo
        self.hi = hi
        self.v_min = v_min
        self.v_max = v_max
        self.left = left
        self.right = right


class SlantedRangeTree:
    """Static structure over integer entries ``(kn, vn, q, payload)``: key
    ``kn / q`` and value ``vn / q`` over one positive denominator ``q`` per
    entry.

    ``query`` reports payloads with key in a closed interval (None ends are
    unbounded) and value <= a * key + b, exactly.  It clears the
    denominators of ``a`` and ``b`` once per query, with
    ``geometry._integer_form``, so the walk compares integers only.
    """

    def __init__(self, entries: list[tuple[int, int, int, int]]):
        if any(e[2] <= 0 for e in entries):
            raise InvalidInputError("entry denominators must be positive")
        # Distinct fractions n/q and n'/q' differ by at least 1/(q q') >= 1/m,
        # so (n * m) // q is strictly monotone in n/q: this sorts by the
        # rationals (key, value, payload).
        m = max((e[2] for e in entries), default=1) ** 2
        entries = sorted(entries, key=lambda e: ((e[0] * m) // e[2],
                                                 (e[1] * m) // e[2], e[3]))
        self.kn = [e[0] for e in entries]
        self.vn = [e[1] for e in entries]
        self.q = [e[2] for e in entries]
        self.payload = [e[3] for e in entries]
        self.node_count = 0
        v_rank = [(v * m) // q for v, q in zip(self.vn, self.q)]
        self.root = self._build(0, len(entries), v_rank) if entries else None

    def _build(self, lo: int, hi: int, v_rank: list[int]) -> _Node:
        self.node_count += 1
        if hi - lo <= LEAF_SIZE:
            return _Node(lo, hi, min(range(lo, hi), key=v_rank.__getitem__),
                         max(range(lo, hi), key=v_rank.__getitem__))
        mid = (lo + hi) // 2
        left = self._build(lo, mid, v_rank)
        right = self._build(mid, hi, v_rank)
        v_min = min(left.v_min, right.v_min, key=v_rank.__getitem__)
        v_max = max(left.v_max, right.v_max, key=v_rank.__getitem__)
        return _Node(lo, hi, v_min, v_max, left, right)

    def stored_entries(self) -> int:
        return len(self.kn) + self.node_count

    def _first_key(self, bound: Rat, above: bool) -> int:
        """First index whose key is >= bound (> bound when ``above``)."""
        num, den = bound.numerator, bound.denominator
        kn, q = self.kn, self.q
        lo, hi = 0, len(kn)
        while lo < hi:
            mid = (lo + hi) // 2
            diff = kn[mid] * den - num * q[mid]
            if diff > 0 or (diff == 0 and not above):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def query(self, key_lo: Rat | None, key_hi: Rat | None, a: Rat, b: Rat,
              stats: QueryStats | None = None) -> list[int]:
        """Payloads with key in [key_lo, key_hi] and value <= a * key + b."""
        if self.root is None:
            return []
        stats = stats if stats is not None else QueryStats()
        i0 = 0 if key_lo is None else self._first_key(key_lo, False)
        i1 = len(self.kn) if key_hi is None else self._first_key(key_hi, True)
        if i0 >= i1:
            return []
        # a = ca / cl and b = cb / cl; entry t is below the line iff
        # vn[t] * cl <= ca * kn[t] + cb * q[t].
        ca, cb, cl = _integer_form((a, b, 1))
        kn, vn, q, payload = self.kn, self.vn, self.q, self.payload
        out: list[int] = []
        stack = [self.root]
        while stack:  # left before right
            node = stack.pop()
            stats.nodes_visited += 1
            lo, hi = node.lo, node.hi
            if i0 <= lo and hi <= i1:
                # The line at the node's two end keys, each as num / (cl *
                # q[end]); over the key extent it lies between them.
                ends = [(ca * kn[e] + cb * q[e], q[e]) for e in (lo, hi - 1)]
                t_min, t_max = node.v_min, node.v_max
                if all(vn[t_min] * cl * qe > ye * q[t_min] for ye, qe in ends):
                    continue
                if all(vn[t_max] * cl * qe <= ye * q[t_max]
                       for ye, qe in ends):
                    out.extend(payload[lo:hi])
                    continue
            if node.left is None:
                for t in range(max(lo, i0), min(hi, i1)):
                    stats.entry_tests += 1
                    if vn[t] * cl <= ca * kn[t] + cb * q[t]:
                        out.append(payload[t])
                continue
            if i1 > node.right.lo:
                stack.append(node.right)
            if i0 < node.left.hi:
                stack.append(node.left)
        return out
