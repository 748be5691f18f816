import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from paretotrack.matching import min_cost_assignment


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

