"""Exact data association between one frame pair via binary flow flags.

Variables, all in {0, 1}:
  f_link(i, j)   previous object i linked to current detection j
  f_in(j)        a trajectory starts at current detection j
  f_out(i)       a trajectory ends at previous object i
  f_det_prev(i)  previous object i is a true positive
  f_det_curr(j)  current detection j is a true positive

subject to  f_det_curr(j) = sum_i f_link(i, j) + f_in(j)   for every j
            f_det_prev(i) = sum_j f_link(i, j) + f_out(i)  for every i

maximizing  sum s_in*f_in + sum s_link*f_link + sum s_det_prev*f_det_prev
          + sum s_det_curr*f_det_curr + sum s_out*f_out.

The constraints force the links to form a bipartite matching, so the program
reduces exactly to max-weight matching with node prizes: an unmatched previous
node i is worth u(i) = max(0, s_det_prev(i) + s_out(i)), an unmatched current
node j is worth v(j) = max(0, s_det_curr(j) + s_in(j)), and a matched pair is
worth w(i, j) = s_det_prev(i) + s_det_curr(j) + s_link(i, j).  Matching on the
adjusted gains w' = w - u - v (keeping only w' > 0 edges) is optimal and
polynomial, so no external MIP solver is needed.

A ScoreSet is the whole problem: solve_exact and solve_bruteforce take one and
return the node flags f_in and f_out plus the (row, col) link pairs they chose.
A solution stores only those three; f_link, f_det_prev and f_det_curr follow
from them and are built on first read.  Nor does a solution carry its
objective: objective_value(scores, solution) prices it on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .matching import positive_matching
from .scoring import ScoreSet

# Above this many free flags the brute-force enumerator refuses to run, and
# solve_exact skips its canonical tie-break refinement (ties between distinct
# optimal solutions are then broken by the matching's deterministic scan).
BRUTEFORCE_FLAG_LIMIT = 25


@dataclass
class AssociationSolution:
    """The node flags f_in and f_out plus the (row, col) links, in row order.

    f_link, f_det_prev and f_det_curr are derived from those on first read
    and then kept, so a caller that reads only the links and f_in never
    builds them.
    """

    f_in: np.ndarray
    f_out: np.ndarray
    link_pairs: list[tuple[int, int]]

    @cached_property
    def f_link(self) -> np.ndarray:
        f_link = np.zeros((len(self.f_out), len(self.f_in)), dtype=np.int64)
        for i, j in self.link_pairs:
            f_link[i, j] = 1
        return f_link

    @cached_property
    def f_det_prev(self) -> np.ndarray:
        return self.f_link.sum(axis=1) + self.f_out

    @cached_property
    def f_det_curr(self) -> np.ndarray:
        return self.f_link.sum(axis=0) + self.f_in

    def flag_vector(self) -> tuple[int, ...]:
        """Row-major f_link, then f_in, then f_out; the tie-break sort key."""
        return tuple(
            int(x)
            for x in np.concatenate(
                [self.f_link.reshape(-1), self.f_in, self.f_out]
            )
        )


def make_solution(scores: ScoreSet, link_pairs, f_in, f_out) -> AssociationSolution:
    """Assemble a solution from its links and node flags; f_det follows from the constraints."""
    return AssociationSolution(
        f_in=np.asarray(f_in, dtype=np.int64).reshape(scores.n_curr),
        f_out=np.asarray(f_out, dtype=np.int64).reshape(scores.n_prev),
        link_pairs=list(link_pairs),
    )


def objective_value(scores: ScoreSet, sol: AssociationSolution) -> float:
    """Exact objective of a solution.

    Uses math.fsum over every active term, so the result is the correctly
    rounded true sum regardless of term order; two solutions with equal
    mathematical objectives always compare equal.
    """
    n, m = scores.n_prev, scores.n_curr
    if (
        sol.f_in.shape != (m,)
        or sol.f_out.shape != (n,)
        or sol.f_det_prev.shape != (n,)
        or sol.f_det_curr.shape != (m,)
        or sol.f_link.shape != (n, m)
    ):
        raise ValueError("solution shape does not match the score set")
    terms = []
    for values, flags in ((scores.s_in, sol.f_in), (scores.s_link, sol.f_link),
                          (scores.s_det_prev, sol.f_det_prev),
                          (scores.s_det_curr, sol.f_det_curr), (scores.s_out, sol.f_out)):
        terms += values[flags != 0].tolist()
    return math.fsum(terms)


def check_feasible(sol: AssociationSolution) -> bool:
    """True iff all flags are binary and both constraint families hold exactly."""
    arrays = (sol.f_in, sol.f_out, sol.f_det_prev, sol.f_det_curr, sol.f_link)
    if any(not np.isin(a, (0, 1)).all() for a in arrays):
        return False
    curr_ok = np.array_equal(sol.f_det_curr, sol.f_link.sum(axis=0) + sol.f_in)
    prev_ok = np.array_equal(sol.f_det_prev, sol.f_link.sum(axis=1) + sol.f_out)
    return bool(curr_ok and prev_ok)


def _node_gains(scores: ScoreSet):
    """Unmatched prizes u, v and the adjusted gains ((prev + curr) + link) - u - v."""
    u = np.maximum(0.0, scores.s_det_prev + scores.s_out)
    v = np.maximum(0.0, scores.s_det_curr + scores.s_in)
    w = np.add.outer(scores.s_det_prev, scores.s_det_curr)
    w += scores.s_link
    w -= u[:, None]
    w -= v
    return u, v, w


def _lex_refine(adjusted: np.ndarray, target: float) -> list[tuple[int, int]]:
    """Lexicographically smallest optimal matching on the adjusted gains.

    Scans the f_link positions in row-major order; a position is fixed to 0
    whenever some optimal matching avoids it (checked by re-solving with the
    cell banned), otherwise it is forced into the matching.  Greedy first-fit
    zeroing yields the lexicographically smallest flag vector among optima.
    """
    gain = adjusted.copy()
    n, m = gain.shape
    forced: list[tuple[int, int]] = []
    forced_gain: list[float] = []
    free_rows = list(range(n))
    free_cols = list(range(m))

    def best_with(g: np.ndarray) -> float:
        sub = g[np.ix_(free_rows, free_cols)]
        pairs = positive_matching(sub)
        total = [g[free_rows[i], free_cols[j]] for i, j in pairs]
        return math.fsum(forced_gain + total)

    for i in range(n):
        for j in range(m):
            if adjusted[i, j] <= 0.0:
                continue
            if i not in free_rows or j not in free_cols:
                continue
            banned = gain.copy()
            banned[i, j] = 0.0
            if best_with(banned) == target:
                gain = banned
            else:
                forced.append((i, j))
                forced_gain.append(float(gain[i, j]))
                free_rows.remove(i)
                free_cols.remove(j)
    return forced


def solve_exact(scores: ScoreSet) -> AssociationSolution:
    """Feasible solution maximizing the objective.

    Ties between equally scoring solutions resolve to the lexicographically
    smallest flag vector (f_link row-major, then f_in, then f_out); for
    problems above BRUTEFORCE_FLAG_LIMIT free flags the tie-break falls back
    to the matching's deterministic scan order.
    """
    n, m = scores.n_prev, scores.n_curr
    u, v, adjusted = _node_gains(scores)
    pairs = positive_matching(adjusted)
    if n * m + n + m <= BRUTEFORCE_FLAG_LIMIT and pairs:
        gains = [float(adjusted[i, j]) for i, j in pairs]
        target = math.fsum(gains)
        # _lex_refine would force every pair when the matching holds every
        # positive cell and dropping any one pair changes the fsum total;
        # only then is the matching already the lexicographic optimum.
        if len(pairs) < np.count_nonzero(adjusted > 0.0) or any(
            math.fsum(gains[:k] + gains[k + 1:]) == target
            for k in range(len(gains))
        ):
            pairs = _lex_refine(adjusted, target)

    # Unmatched nodes activate only when strictly profitable, so exact zero
    # prizes stay inactive (the lexicographically smaller choice).
    f_out = u > 0.0
    f_in = v > 0.0
    for i, j in pairs:
        f_out[i] = f_in[j] = False
    return make_solution(scores, pairs, f_in, f_out)


@lru_cache(maxsize=64)
def _link_patterns(n: int, m: int) -> np.ndarray:
    """All binary n x m link matrices with row and column sums <= 1.

    Any pattern violating those sums is infeasible for every choice of the
    remaining flags, because f_det would have to exceed 1.
    """
    total = n * m
    if total == 0:
        return np.zeros((1, n, m), dtype=np.int64)
    ints = np.arange(2 ** total, dtype=np.int64)
    bits = (ints[:, None] >> np.arange(total, dtype=np.int64)) & 1
    mats = bits.reshape(-1, n, m)
    ok = (mats.sum(axis=2) <= 1).all(axis=1) & (mats.sum(axis=1) <= 1).all(axis=1)
    return mats[ok]


_ENUM_CHUNK = 1 << 12


def _bits_range(width: int, lo: int, hi: int) -> np.ndarray:
    """Bit patterns of the integers [lo, hi), one row per integer."""
    if width == 0:
        return np.zeros((hi - lo, 0), dtype=np.int64)
    ints = np.arange(lo, hi, dtype=np.int64)
    return (ints[:, None] >> np.arange(width, dtype=np.int64)) & 1


def solve_bruteforce(scores: ScoreSet) -> AssociationSolution:
    """Exhaustive oracle: enumerate every assignment of the free flags.

    f_det_prev/f_det_curr are determined by the constraints, so the free flags
    are f_link, f_in and f_out; infeasible combinations are filtered out and
    the maximum is returned under the same lexicographic tie-break as
    solve_exact.  Refuses problems with more than BRUTEFORCE_FLAG_LIMIT flags.
    The f_in/f_out axes are enumerated in chunks to bound memory.
    """
    n, m = scores.n_prev, scores.n_curr
    if n * m + n + m > BRUTEFORCE_FLAG_LIMIT:
        raise ValueError(
            f"instance has {n * m + n + m} free flags, "
            f"brute force is limited to {BRUTEFORCE_FLAG_LIMIT}"
        )
    links = _link_patterns(n, m)  # (K, n, m)
    linked_prev = links.sum(axis=2)  # (K, n)
    linked_curr = links.sum(axis=1)  # (K, m)
    base = (
        (links * scores.s_link[None, :, :]).sum(axis=(1, 2))
        + linked_prev @ scores.s_det_prev
        + linked_curr @ scores.s_det_curr
    )  # (K,)

    best = -np.inf
    best_key = None
    best_combo = None
    for alo in range(0, 2 ** m, _ENUM_CHUNK):
        in_bits = _bits_range(m, alo, min(alo + _ENUM_CHUNK, 2 ** m))
        in_gain = in_bits @ (scores.s_in + scores.s_det_curr)  # (A,)
        # f_in may only fire on detections that are not linked; same for f_out.
        in_ok = ~((in_bits[None, :, :] & (linked_curr[:, None, :] > 0)).any(axis=2))
        for blo in range(0, 2 ** n, _ENUM_CHUNK):
            out_bits = _bits_range(n, blo, min(blo + _ENUM_CHUNK, 2 ** n))
            out_gain = out_bits @ (scores.s_out + scores.s_det_prev)  # (B,)
            out_ok = ~((out_bits[None, :, :] & (linked_prev[:, None, :] > 0)).any(axis=2))

            obj = base[:, None, None] + in_gain[None, :, None] + out_gain[None, None, :]
            feasible = in_ok[:, :, None] & out_ok[:, None, :]
            obj = np.where(feasible, obj, -np.inf)
            local = obj.max()
            if local == -np.inf or local < best:
                continue
            combos = [
                (links[k], in_bits[a], out_bits[b])
                for k, a, b in np.argwhere(obj == local)
            ]
            combo = min(
                combos,
                key=lambda c: (tuple(c[0].reshape(-1)), tuple(c[1]), tuple(c[2])),
            )
            key = (tuple(combo[0].reshape(-1)), tuple(combo[1]), tuple(combo[2]))
            if local > best or key < best_key:
                best, best_key, best_combo = local, key, combo
    link, f_in, f_out = best_combo
    rows, cols = np.nonzero(link)
    return make_solution(scores, zip(rows.tolist(), cols.tolist()), f_in, f_out)
