import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkfree.dyadic import DyadicRange, canonical_decomposition
from kkfree.errors import InvalidInputError

from conftest import ceil_log2, decomposition_size


def _ranges(decomp):
    return [(r.lo, r.hi) for r in decomp]


def test_already_dyadic():
    assert _ranges(canonical_decomposition(2, 3, 8)) == [(2, 3)]


def test_full_range_is_single():
    assert _ranges(canonical_decomposition(0, 7, 8)) == [(0, 7)]


def test_worked_example():
    assert _ranges(canonical_decomposition(1, 6, 8)) == \
        [(1, 1), (2, 3), (4, 5), (6, 6)]


def test_invalid_range():
    with pytest.raises(InvalidInputError):
        canonical_decomposition(3, 2, 8)


# --- exhaustive oracle: minimal disjoint dyadic covers by dynamic programming

def _all_dyadic_starting_at(x, beta):
    out = []
    i = 0
    while x + (1 << i) - 1 <= beta:
        if (x >> i) << i == x:
            out.append(DyadicRange(i, x >> i))
        i += 1
    return out


def _min_cover(alpha, beta):
    """(min size, number of minimal covers, one minimal cover)."""
    memo = {}

    def go(x):
        if x > beta:
            return (0, 1, [])
        if x in memo:
            return memo[x]
        best = None
        for r in _all_dyadic_starting_at(x, beta):
            size, ways, cover = go(r.hi + 1)
            cand = (size + 1, ways, [r] + cover)
            if best is None or cand[0] < best[0]:
                best = cand
            elif cand[0] == best[0]:
                best = (best[0], best[1] + cand[1], best[2])
        memo[x] = best
        return best

    return go(alpha)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16, 31, 32, 64])
def test_exhaustive_unique_minimal(n):
    for alpha in range(n):
        for beta in range(alpha, n):
            got = canonical_decomposition(alpha, beta, n)
            size, ways, cover = _min_cover(alpha, beta)
            assert ways == 1, (alpha, beta, n)
            assert len(got) == size
            assert [(r.lo, r.hi) for r in got] == [(r.lo, r.hi) for r in cover]
            assert len(got) <= 2 * ceil_log2(n)


@given(st.integers(2, 1024), st.data())
@settings(max_examples=300)
def test_decomposition_properties(n, data):
    alpha = data.draw(st.integers(0, n - 1))
    beta = data.draw(st.integers(alpha, n - 1))
    decomp = canonical_decomposition(alpha, beta, n)
    covered = []
    for r in decomp:
        covered.extend(range(r.lo, r.hi + 1))
    assert covered == list(range(alpha, beta + 1))  # disjoint + exact + sorted
    assert len(decomp) <= 2 * ceil_log2(n)
    assert len(decomp) == decomposition_size(alpha, beta)

