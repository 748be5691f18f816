"""Maximum-weight bipartite matching via shortest augmenting paths.

The core routine solves the rectangular assignment problem, rows <= columns,
with the classic Jonker-Volgenant / Hungarian potential scheme in
O(n^2 m) for n rows and m columns, run on Python lists: each of the n rows
augments once, by at most n steps that each scan the free columns (Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
2016).  At tracking sizes the work per augmenting step is a handful of scalar
operations per column, which lists do faster than small-array numpy calls:
on a 2-core x86 host with Python 3.11 and numpy 2.4 the list scan was about
6x faster than a numpy column scan at n = 8, 3x at n = 45 and 1.1-1.4x at
n = 100-150, level at n = 200 and 1.5-2x slower at n = 300-400.

On top of it, positive_matching() finds a maximum-total-gain matching where
leaving a node unmatched is free and only strictly positive gains are worth
taking.  It assigns each node of the smaller side (the gain is transposed
when it has more rows than columns) on the cost -max(gain, 0), so a search
costs O(min(n, m)^2 max(n, m)); a node that lands on a zero cell stays
unmatched, so the optimum total is that of the best partial matching.

Before any search, positive_matching() checks whether the strictly positive
cells form a partial permutation: no two of them share a row or a column.
Then those cells, in row order, are the one optimal matching and are
returned without a search.  They fit together, so taking all of them is
feasible; any other matching leaves out at least one of them and can gain
nothing in its place (every other cell of that row and column is <= 0), so
it scores strictly less.  This is the common case in tracking, where gating
leaves each tracklet at most one detection worth linking.
"""

from __future__ import annotations

import math

import numpy as np


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of every row to its own column, rows <= columns.

    Returns col_of_row: col_of_row[i] is the column assigned to row i.
    Deterministic: ties are resolved by the lowest column index scanned first.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] > cost.shape[1]:
        raise ValueError(f"cost matrix must have rows <= columns, got {cost.shape}")
    n, m = cost.shape
    rows = cost.tolist()

    # 1-based; column 0 is the virtual start of each augmenting path.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)  # p[j] = row matched to column j, 0 while unmatched
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [0]  # columns on the alternating tree, in the order reached
        free = list(range(1, m + 1))  # the other columns, ascending
        while True:
            row = rows[p[j0] - 1]
            ui = u[p[j0]]
            j1 = free[0]
            delta = math.inf
            for j in free:
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:  # strict: the lowest column wins a tie
                    delta = minv[j]
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(j1)
            used.append(j1)
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    col_of_row = np.zeros(n, dtype=np.int64)
    for j in range(1, m + 1):
        if p[j]:
            col_of_row[p[j] - 1] = j - 1
    return col_of_row


def positive_matching(gain: np.ndarray) -> list[tuple[int, int]]:
    """Matching maximizing the sum of gains, using only strictly positive cells.

    Rows/columns may stay unmatched at zero gain.  Returns (row, col) pairs
    sorted by row index.
    """
    gain = np.asarray(gain, dtype=np.float64)
    if gain.ndim != 2:
        raise ValueError(f"gain matrix must be 2D, got shape {gain.shape}")
    n, m = gain.shape
    rows, cols = np.nonzero(gain > 0)  # row-major order
    if rows.size == 0:
        return []
    if rows.size <= min(n, m):
        rows, cols = rows.tolist(), cols.tolist()
        if len(set(rows)) == len(rows) == len(set(cols)):
            return list(zip(rows, cols))  # the unique optimum, no search needed
    cost = -np.maximum(gain, 0.0)
    if n <= m:
        pairs = enumerate(min_cost_assignment(cost).tolist())
    else:
        pairs = sorted((i, j) for j, i in enumerate(min_cost_assignment(cost.T).tolist()))
    return [(i, j) for i, j in pairs if gain[i, j] > 0.0]
