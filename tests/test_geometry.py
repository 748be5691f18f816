import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import boxes
from paretotrack.geometry import iou_2d, iou_matrix


def test_iou_identical_boxes():
    box = (3, 4, 10, 12)
    assert iou_2d(box, box) == 1.0


def test_iou_disjoint_boxes():
    assert iou_2d((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0


_SQUARE = (0.0, 0.0, 2.0, 2.0)
_HUGE = (-2.0 ** 510, -2.0 ** 510, 2.0 ** 510, 2.0 ** 510)  # the reader's widest box


@settings(max_examples=200, deadline=None)
@given(st.lists(boxes(), max_size=6), st.lists(boxes(), max_size=6))
@example([], [_SQUARE])
@example([_SQUARE], [])
@example([_SQUARE], [_SQUARE, (2.0, 0.0, 4.0, 2.0), (1.0, 1.0, 1.0, 3.0),
                     (0.0, 1.0, 2.0, 1.0)])
@example([_HUGE], [_HUGE, (0.0, 0.0, 2.0 ** 510, 2.0 ** 510), _SQUARE])
# signed zeros and touching edges: iou_2d's ties may pick the other zero than numpy's
@example([(-0.0, -0.0, 0.0, 1.0), (0.0, -0.0, 1.0, 1.0)],
         [(0.0, 0.0, 1.0, 1.0), (-0.0, 0.0, -0.0, 2.0), (1.0, -0.0, 2.0, 0.0)])
def test_iou_matrix_bitwise_equals_iou_2d(a, b):
    got = iou_matrix(a, b)
    want = np.array([[iou_2d(x, y) for y in b] for x in a], dtype=np.float64)
    assert got.shape == (len(a), len(b))
    assert got.tobytes() == want.reshape(len(a), len(b)).tobytes()


# boxes that reach iou_matrix's two float facts: empty pairs (union 0), areas
# that underflow to 0 or to a subnormal, and a -0.0 extent (-0.0 - 0.0 is a
# -0.0 width) against a box of positive height
_TINY = 2.0 ** -540  # its square underflows to 0.0
_SMALL = 2.0 ** -530  # its square is the subnormal 2**-1060
_FLOAT_FACTS = [
    ((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)),
    ((0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0, -0.0)),
    ((0.0, 0.0, _TINY, _TINY), (0.0, 0.0, _TINY, _TINY)),
    ((0.0, 0.0, _TINY, _TINY), (0.0, 0.0, 2 * _TINY, _TINY)),
    ((0.0, 0.0, _SMALL, _SMALL), (0.0, 0.0, _SMALL, _SMALL)),
    ((0.0, 0.0, _SMALL, _SMALL), (_SMALL / 2, 0.0, 2 * _SMALL, _SMALL)),
    ((0.0, 0.0, _SMALL, 3 * _SMALL), (0.0, _SMALL, _SMALL, 2 * _SMALL)),
    ((0.0, 0.0, -0.0, 2.0), (0.0, 0.0, 1.0, 2.0)),
    ((0.0, 0.0, -0.0, 2.0), (-0.0, 1.0, 3.0, 5.0)),
    ((0.0, 0.0, 2.0, -0.0), (0.0, 0.0, 2.0, 1.0)),
]


@pytest.mark.parametrize("a, b", _FLOAT_FACTS)
def test_iou_matrix_bitwise_equals_iou_2d_on_empty_underflowing_and_signed_zero_boxes(a, b):
    for x, y in ((a, b), (b, a)):
        want = np.array([[iou_2d(x, y)]], dtype=np.float64)
        assert iou_matrix([x], [y]).tobytes() == want.tobytes()
    # the same pairs inside one larger matrix give the same bits
    boxes_ = [a, b, _SQUARE]
    want = np.array([[iou_2d(x, y) for y in boxes_] for x in boxes_], dtype=np.float64)
    assert iou_matrix(boxes_, boxes_).tobytes() == want.tobytes()


def test_iou_matrix_leaves_its_inputs_untouched():
    # the scorer passes rows[:n, :4] and rows[n:, :4], views of one table array
    rows = np.array([[0.0, 0.0, 2.0, 2.0, 0.9], [1.0, 1.0, 3.0, 3.0, 0.5],
                     [-0.0, 0.0, -0.0, 2.0, 0.1], [5.0, 5.0, 5.0, 5.0, 1.0],
                     [0.0, 0.0, _SMALL, _SMALL, 0.0]])
    a, b = rows[:2, :4], rows[2:, :4]
    before = rows.tobytes(), a.tobytes(), b.tobytes()
    for x, y in ((a, b), (b, a), (a, a), (rows[:, :4], rows[:, :4]), (a, rows[:0, :4])):
        iou_matrix(x, y)
        assert (rows.tobytes(), a.tobytes(), b.tobytes()) == before


def test_iou_third_overlap():
    # oracle: rasterized pixel count on a fine grid
    a = (0, 0, 10, 10)
    b = (5, 0, 15, 10)
    (al, at, ar, ab), (bl, bt, br, bb) = a, b
    grid = np.zeros((20, 20))
    inter = union = 0
    for r in range(200):
        for c in range(200):
            x, y = c * 0.1 + 0.05, r * 0.1 + 0.05
            in_a = al <= x <= ar and at <= y <= ab
            in_b = bl <= x <= br and bt <= y <= bb
            inter += in_a and in_b
            union += in_a or in_b
    del grid
    assert abs(iou_2d(a, b) - inter / union) < 1e-9
    assert iou_2d(a, b) == pytest.approx(1 / 3)


def test_iou_zero_area_union():
    degenerate = (1, 1, 1, 1)
    assert iou_2d(degenerate, degenerate) == 0.0


def test_iou_symmetric_and_bounded(rng):
    for _ in range(100):
        vals = rng.uniform(0, 50, 4)
        a = (min(vals[0], vals[1]), 0, max(vals[0], vals[1]), 10)
        b = (min(vals[2], vals[3]), 2, max(vals[2], vals[3]), 9)
        assert iou_2d(a, b) == iou_2d(b, a)
        assert 0.0 <= iou_2d(a, b) <= 1.0

