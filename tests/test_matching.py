import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretotrack.matching import min_cost_assignment, positive_matching


def _assignment_cost(cost, col_of_row):
    return math.fsum(cost[i, j] for i, j in enumerate(col_of_row))


def _is_permutation(col_of_row, k):
    return sorted(int(j) for j in col_of_row) == list(range(k))


@pytest.mark.parametrize("kind", ["float", "small-int"])
def test_min_cost_assignment_matches_permutation_brute_force(kind):
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        if kind == "float":
            cost = rng.normal(size=(k, k))
        else:
            cost = rng.integers(-2, 3, size=(k, k)).astype(float)
        col_of_row = min_cost_assignment(cost)
        assert _is_permutation(col_of_row, k)
        best = min(_assignment_cost(cost, perm)
                   for perm in itertools.permutations(range(k)))
        assert _assignment_cost(cost, col_of_row) == best


def test_min_cost_assignment_empty_and_non_square():
    assert min_cost_assignment(np.zeros((0, 0))).shape == (0,)
    with pytest.raises(ValueError):
        min_cost_assignment(np.zeros((2, 3)))


def _tie_matrices():
    rng = random.Random("min-cost-assignment-ties")
    for _ in range(500):
        k = rng.randint(1, 16)
        yield [[float(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]


# sha256 over the assignments of _tie_matrices(), one line of columns per
# matrix; it pins which optimum the scan order picks among tied ones.
_TIE_DIGEST = "bddb21530764eb6b4eee7ddbc83e96ba7d616e0a5908c64d6874d8bf4ed66c91"


def test_min_cost_assignment_tie_break_is_pinned():
    digest = hashlib.sha256()
    for cost in _tie_matrices():
        cols = min_cost_assignment(np.array(cost))
        digest.update((" ".join(str(int(c)) for c in cols) + "\n").encode())
    assert digest.hexdigest() == _TIE_DIGEST



def _padded_matching(gain):
    """positive_matching's search path: the full padded assignment."""
    n, m = gain.shape
    k = max(n, m)
    padded = np.zeros((k, k))
    padded[:n, :m] = np.maximum(gain, 0.0)
    col_of_row = min_cost_assignment(-padded)
    return [(i, int(col_of_row[i])) for i in range(n)
            if col_of_row[i] < m and gain[i, col_of_row[i]] > 0.0]


@st.composite
def _partial_permutation_gains(draw):
    """Rectangular gains whose strictly positive cells share no row or column."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    others = st.one_of(st.just(0.0), st.floats(-1e3, -1e-6))
    gain = np.array([[draw(others) for _ in range(m)] for _ in range(n)])
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(m)))
    # zip pairs up to min(n, m) rows; drawing fewer leaves all-zero-gain rows
    # between the matched ones
    k = draw(st.integers(0, min(n, m)))
    for i, j in list(zip(rows, cols))[:k]:
        gain[i, j] = draw(st.floats(1e-6, 1e3))
    return gain


@settings(max_examples=300, deadline=None)
@given(_partial_permutation_gains())
def test_positive_matching_shortcut_equals_padded_assignment(gain):
    pairs = positive_matching(gain)
    assert pairs == sorted(zip(*np.nonzero(gain > 0)))
    assert pairs == _padded_matching(gain)


def test_positive_matching_searches_when_positive_cells_collide():
    # two positive cells in row 0
    gain = np.array([[1.0, 2.0], [-1.0, -1.0]])
    assert positive_matching(gain) == [(0, 1)] == _padded_matching(gain)
    gain = np.array([[1.0, 2.0], [0.0, 5.0]])
    assert positive_matching(gain) == [(0, 0), (1, 1)] == _padded_matching(gain)
    # two positive cells in column 0
    gain = np.array([[1.0, -1.0], [2.0, -1.0]])
    assert positive_matching(gain) == [(1, 0)] == _padded_matching(gain)
