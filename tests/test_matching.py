import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretotrack import matching
from paretotrack.matching import min_cost_assignment, positive_matching


def _assignment_cost(cost, col_of_row):
    return math.fsum(cost[i, j] for i, j in enumerate(col_of_row))


def _is_injection(col_of_row, m):
    cols = [int(j) for j in col_of_row]
    return len(set(cols)) == len(cols) and all(0 <= j < m for j in cols)


@pytest.mark.parametrize("kind", ["float", "small-int"])
def test_min_cost_assignment_matches_permutation_brute_force(kind):
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, m + 1))
        if kind == "float":
            cost = rng.normal(size=(n, m))
        else:
            cost = rng.integers(-2, 3, size=(n, m)).astype(float)
        col_of_row = min_cost_assignment(cost)
        assert _is_injection(col_of_row, m)
        best = min(_assignment_cost(cost, cols)
                   for cols in itertools.permutations(range(m), n))
        assert _assignment_cost(cost, col_of_row) == best


def test_min_cost_assignment_empty_and_non_square():
    assert min_cost_assignment(np.zeros((0, 0))).shape == (0,)
    assert min_cost_assignment(np.zeros((0, 3))).shape == (0,)
    assert min_cost_assignment(np.array([[3.0, 1.0, 2.0], [1.0, 0.0, 5.0]])).tolist() == [1, 0]
    with pytest.raises(ValueError):
        min_cost_assignment(np.zeros((3, 2)))


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
    """The reference search: the gain padded to a square of zero "skip" cells."""
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


@st.composite
def _rectangular_gains(draw):
    """Gains of sides 0-12 whose positive cells often share a row or a column:
    most cells lie on the integer grid -2..2, the rest are floats."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 12))
    cell = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), st.floats(-2.0, 2.0))
    return np.array([[draw(cell) for _ in range(m)] for _ in range(n)]).reshape(n, m)


@settings(max_examples=300, deadline=None)
@given(_rectangular_gains())
def test_positive_matching_scores_as_the_padded_assignment(gain):
    pairs = positive_matching(gain)
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)
    assert all(gain[i, j] > 0.0 for i, j in pairs)
    assert (math.fsum(gain[i, j] for i, j in pairs)
            == math.fsum(gain[i, j] for i, j in _padded_matching(gain)))


def test_positive_matching_solves_a_lopsided_gain_on_its_smaller_side(monkeypatch):
    # one assignment of the single row or column to the 500 others, not a
    # 500 x 500 square
    shapes = []
    solve = matching.min_cost_assignment

    def recording(cost):
        shapes.append(np.shape(cost))
        return solve(cost)

    monkeypatch.setattr(matching, "min_cost_assignment", recording)
    column = np.random.default_rng(5).uniform(0.5, 1.5, size=(500, 1))
    best = int(np.argmax(column))
    for gain, want in ((column, [(best, 0)]), (column.T, [(0, best)])):
        shapes.clear()
        assert positive_matching(gain) == want
        assert shapes == [(1, 500)]
