import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scoreset
from paretotrack import assoc
from paretotrack.assoc import (
    check_feasible,
    make_solution,
    objective_value,
    solve_bruteforce,
    solve_exact,
)
from paretotrack.scoring import ScoreSet


def _problem(s_in, s_out, s_det_prev, s_det_curr, s_link):
    return ScoreSet(s_in, s_out, s_det_prev, s_det_curr, s_link)


def _pairs(f_link):
    """The (row, col) cells set in a link matrix, in row order."""
    rows, cols = np.nonzero(f_link)
    return list(zip(rows.tolist(), cols.tolist()))


def test_objective_all_zero_flags():
    p = _problem([1.0], [1.0], [1.0], [1.0], [[1.0]])
    sol = make_solution(p, [], [0], [0])
    assert objective_value(p, sol) == 0.0


def test_objective_matched_pair():
    p = _problem([-1.0], [-1.0], [1.0], [1.0], [[2.0]])
    sol = make_solution(p, [(0, 0)], [0], [0])
    assert objective_value(p, sol) == 4.0


def test_objective_matches_independent_summation(rng):
    # oracle: direct per-flag accumulation in the documented term order
    for _ in range(50):
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        s = random_scoreset(rng, n, m)
        f_link = rng.integers(0, 2, (n, m))
        f_in = rng.integers(0, 2, m)
        f_out = rng.integers(0, 2, n)
        sol = make_solution(s, _pairs(f_link), f_in, f_out)
        terms = []
        for j in range(m):
            if sol.f_in[j]:
                terms.append(s.s_in[j])
        for i in range(n):
            for j in range(m):
                if sol.f_link[i, j]:
                    terms.append(s.s_link[i, j])
        for i in range(n):
            if sol.f_det_prev[i]:
                terms.append(s.s_det_prev[i])
        for j in range(m):
            if sol.f_det_curr[j]:
                terms.append(s.s_det_curr[j])
        for i in range(n):
            if sol.f_out[i]:
                terms.append(s.s_out[i])
        assert objective_value(s, sol) == math.fsum(terms)


def test_objective_shape_mismatch():
    p = _problem([0.0], [0.0], [0.0], [0.0], [[0.0]])
    other = make_solution(
        ScoreSet([0.0, 0.0], [0.0], [0.0], [0.0, 0.0], [[0.0, 0.0]]),
        [], [0, 0], [0],
    )
    with pytest.raises(ValueError):
        objective_value(p, other)


def test_feasible_all_zero():
    p = _problem([0.0], [0.0], [0.0], [0.0], [[0.0]])
    assert check_feasible(make_solution(p, [], [0], [0]))


def test_infeasible_link_without_det():
    p = _problem([0.0], [0.0], [0.0], [0.0], [[0.0]])
    sol = make_solution(p, [(0, 0)], [0], [0])
    sol.f_det_curr[0] = 0
    assert not check_feasible(sol)


def test_infeasible_link_plus_birth():
    p = _problem([0.0], [0.0], [0.0], [0.0], [[0.0]])
    sol = make_solution(p, [(0, 0)], [1], [0])
    sol.f_det_curr[0] = 1  # left side 1, right side 2
    assert not check_feasible(sol)


def test_solve_exact_match_example():
    p = _problem([-1.0], [-1.0], [1.0], [1.0], [[2.0]])
    sol = solve_exact(p)
    assert sol.f_link[0, 0] == 1
    assert sol.f_det_prev[0] == 1 and sol.f_det_curr[0] == 1
    assert sol.f_in[0] == 0 and sol.f_out[0] == 0
    assert objective_value(p, sol) == 4.0


def test_solve_exact_all_negative_scores():
    p = _problem([-1, -1], [-1], [-1], [-1, -1], [[-1, -1]])
    sol = solve_exact(p)
    assert objective_value(p, sol) == 0.0
    assert not sol.f_link.any() and not sol.f_in.any() and not sol.f_out.any()


def test_solve_exact_birth_only():
    p = _problem([1.0], [], [], [1.0], np.zeros((0, 1)))
    sol = solve_exact(p)
    assert sol.f_det_curr[0] == 1 and sol.f_in[0] == 1
    assert objective_value(p, sol) == 2.0


def test_bruteforce_same_instances_as_exact():
    instances = [
        _problem([-1.0], [-1.0], [1.0], [1.0], [[2.0]]),
        _problem([-1, -1], [-1], [-1], [-1, -1], [[-1, -1]]),
        _problem([1.0], [], [], [1.0], np.zeros((0, 1))),
    ]
    for p in instances:
        e, b = solve_exact(p), solve_bruteforce(p)
        assert e.flag_vector() == b.flag_vector()
        assert objective_value(p, e) == objective_value(p, b)


def test_bruteforce_empty_problem():
    p = _problem([], [], [], [], np.zeros((0, 0)))
    sol = solve_bruteforce(p)
    assert objective_value(p, sol) == 0.0


def test_bruteforce_guard():
    rng = np.random.default_rng(0)
    p = random_scoreset(rng, 5, 5)
    with pytest.raises(ValueError):
        solve_bruteforce(p)


def test_bruteforce_matches_literal_enumeration(rng):
    # oracle for the oracle: plain itertools enumeration at trivial sizes
    for _ in range(20):
        n, m = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        p = random_scoreset(rng, n, m)
        best = None
        for bits in itertools.product((0, 1), repeat=n * m + m + n):
            f_link = np.array(bits[: n * m]).reshape(n, m)
            f_in = np.array(bits[n * m : n * m + m])
            f_out = np.array(bits[n * m + m :])
            sol = make_solution(p, _pairs(f_link), f_in, f_out)
            if not check_feasible(sol):
                continue
            key = (-objective_value(p, sol), sol.flag_vector())
            if best is None or key < best[0]:
                best = (key, sol)
        got = solve_bruteforce(p)
        assert objective_value(p, got) == objective_value(p, best[1])
        assert got.flag_vector() == best[1].flag_vector()


def test_exact_oracle_equivalence_random(rng):
    for _ in range(300):
        n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        p = random_scoreset(rng, n, m)
        e, b = solve_exact(p), solve_bruteforce(p)
        assert check_feasible(e)
        assert check_feasible(b)
        assert objective_value(p, e) == objective_value(p, b)
        assert e.flag_vector() == b.flag_vector()
        assert e.link_pairs == _pairs(e.f_link) == b.link_pairs


def test_exact_oracle_equivalence_integer_ties(rng):
    # small integer scores make exact objective ties common
    for _ in range(200):
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        s = ScoreSet(
            rng.integers(-2, 3, m).astype(float),
            rng.integers(-2, 3, n).astype(float),
            rng.integers(-2, 3, n).astype(float),
            rng.integers(-2, 3, m).astype(float),
            rng.integers(-2, 3, (n, m)).astype(float),
        )
        e, b = solve_exact(s), solve_bruteforce(s)
        assert objective_value(s, e) == objective_value(s, b)
        assert e.flag_vector() == b.flag_vector()


def test_tie_break_prefers_lex_smallest():
    # two equally good matchings; the lex-smallest flag vector is antidiagonal
    p = _problem([-1, -1], [-1, -1], [1, 1], [1, 1], [[1, 1], [1, 1]])
    e, b = solve_exact(p), solve_bruteforce(p)
    assert e.f_link.tolist() == [[0, 1], [1, 0]]
    assert e.flag_vector() == b.flag_vector()


def test_zero_prize_stays_inactive():
    # s_det_prev + s_out == 0 exactly: activating is objective-neutral, keep off
    p = _problem([], [0.5], [-0.5], [], np.zeros((1, 0)))
    sol = solve_exact(p)
    assert sol.f_out[0] == 0 and sol.f_det_prev[0] == 0


def test_monotone_in_link_score(rng):
    for _ in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        s = random_scoreset(rng, n, m)
        before = objective_value(s, solve_exact(s))
        i, j = int(rng.integers(n)), int(rng.integers(m))
        bumped = s.s_link.copy()
        bumped[i, j] += float(rng.uniform(0, 3))
        s2 = ScoreSet(s.s_in, s.s_out, s.s_det_prev, s.s_det_curr, bumped)
        after = objective_value(s2, solve_exact(s2))
        assert after >= before


def test_scale_invariance_of_argmax(rng):
    # scaling by powers of two keeps float arithmetic exact
    for _ in range(30):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        s = random_scoreset(rng, n, m)
        base = solve_exact(s).flag_vector()
        for c in (0.5, 2.0, 4.0):
            s2 = ScoreSet(c * s.s_in, c * s.s_out, c * s.s_det_prev,
                          c * s.s_det_curr, c * s.s_link)
            assert solve_exact(s2).flag_vector() == base


def test_exact_solution_always_feasible(rng):
    for _ in range(100):
        n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        p = random_scoreset(rng, n, m)
        assert check_feasible(solve_exact(p))


@st.composite
def _forced_matching_problems(draw):
    """Score sets whose adjusted gains put every positive cell in distinct rows
    and columns, at least 0.01 apart from zero, so no pair can be dropped.

    Node scores lie on a 0.01 grid: a node prize is then 0 or at least about
    0.01, which the oracle's plain float sums cannot lose next to the others.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    score = st.integers(-200, 200).map(lambda k: k / 100)
    s_in = np.array([draw(score) for _ in range(m)])
    s_out = np.array([draw(score) for _ in range(n)])
    s_det_prev = np.array([draw(score) for _ in range(n)])
    s_det_curr = np.array([draw(score) for _ in range(m)])
    adjusted = np.array([[draw(st.floats(-2.0, -0.01)) for _ in range(m)]
                         for _ in range(n)])
    pairs = list(zip(draw(st.permutations(range(n))), draw(st.permutations(range(m)))))
    for i, j in pairs[:draw(st.integers(0, min(n, m)))]:
        adjusted[i, j] = draw(st.floats(0.01, 10.0))
    u = np.maximum(0.0, s_det_prev + s_out)
    v = np.maximum(0.0, s_det_curr + s_in)
    s_link = adjusted + u[:, None] + v[None, :] - s_det_prev[:, None] - s_det_curr[None, :]
    return ScoreSet(s_in, s_out, s_det_prev, s_det_curr, s_link)


@settings(max_examples=300, deadline=None)
@given(_forced_matching_problems())
def test_exact_skips_refine_and_equals_oracle_when_every_pair_is_forced(problem):
    with mock.patch.object(assoc, "_lex_refine", side_effect=AssertionError):
        e = solve_exact(problem)
    b = solve_bruteforce(problem)
    assert objective_value(problem, e) == objective_value(problem, b)
    assert e.flag_vector() == b.flag_vector()


def test_refine_runs_when_a_pair_is_invisible_to_fsum():
    # 1.0 + 1e-20 == 1.0, so both matchings score the same and the tie-break
    # must keep the lexicographically smaller one, without the (1, 1) link
    p = _problem([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                 [[1.0, -1.0], [-1.0, 1e-20]])
    with mock.patch.object(assoc, "_lex_refine", wraps=assoc._lex_refine) as refine:
        e = solve_exact(p)
    assert refine.called
    assert e.link_pairs == [(0, 0)]
    assert e.flag_vector() == solve_bruteforce(p).flag_vector()


@st.composite
def _grid_scoresets(draw):
    """Score sets of 0-4 by 0-4 nodes with scores on a 0.5 grid, so ties are common."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    score = st.integers(-4, 4).map(lambda k: k / 2)

    def family(*shape):
        return np.array([draw(score) for _ in range(math.prod(shape))]).reshape(shape)

    return ScoreSet(family(m), family(n), family(n), family(m), family(n, m))


@st.composite
def _matchings_with_node_flags(draw, scores):
    """make_solution's inputs: a matching, then 0/1 node flags on unmatched nodes."""
    n, m = scores.n_prev, scores.n_curr
    k = draw(st.integers(0, min(n, m)))
    rows = sorted(draw(st.permutations(range(n)))[:k])
    cols = draw(st.permutations(range(m)))[:k]
    f_in = [0 if j in cols else draw(st.integers(0, 1)) for j in range(m)]
    f_out = [0 if i in rows else draw(st.integers(0, 1)) for i in range(n)]
    return list(zip(rows, cols)), f_in, f_out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derived_flags_follow_the_links_and_node_flags(data):
    scores = data.draw(_grid_scoresets())
    built = make_solution(scores, *data.draw(_matchings_with_node_flags(scores)))
    for sol in (solve_exact(scores), solve_bruteforce(scores), built):
        link = np.zeros((scores.n_prev, scores.n_curr), dtype=np.int64)
        for i, j in sol.link_pairs:
            link[i, j] = 1
        assert sol.f_link.tolist() == link.tolist()
        assert sol.f_det_prev.tolist() == (link.sum(1) + sol.f_out).tolist()
        assert sol.f_det_curr.tolist() == (link.sum(0) + sol.f_in).tolist()
        assert check_feasible(sol)
