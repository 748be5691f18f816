import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import boxes
from paretotrack.geometry import (
    Box3D,
    bev_to_pgm,
    crop_points,
    iou_2d,
    iou_matrix,
    rasterize_bev,
)

_NO_POINTS = np.empty((0, 3))


def test_box3d_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 0, 1), 0.0)


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


def test_crop_empty_cloud():
    box = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    assert crop_points(_NO_POINTS, box).shape == (0, 3)


def test_crop_center_retained():
    box = Box3D((1, 2, 3), (2, 2, 2), 0.7)
    cropped = crop_points(np.array([(1.0, 2.0, 3.0)]), box)
    assert len(cropped) == 1


def test_crop_unit_box_boundary():
    # unit box at origin, length 1 along x: 0.4 inside (inclusive), 0.6 outside
    box = Box3D((0, 0, 0), (1.0, 1.0, 1.0), 0.0)
    points = np.array([(0.4, 0, 0), (0.6, 0, 0), (0.5, 0, 0)])
    kept = crop_points(points, box)
    assert kept[:, 0].tolist() == [0.4, 0.5]


def test_crop_per_point_containment_oracle(rng):
    box = Box3D((1.0, -2.0, 0.5), (2.0, 1.0, 3.0), 0.6)
    pts = rng.uniform(-4, 4, size=(500, 3))
    kept = crop_points(pts, box)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    expected = []
    for x, y, z in pts:
        dx, dy, dz = x - 1.0, y + 2.0, z - 0.5
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        if abs(lx) <= 1.5 and abs(ly) <= 0.5 and abs(dz) <= 1.0:
            expected.append((x, y, z))
    assert kept.tolist() == [list(p) for p in expected]


def test_crop_idempotent_and_subset(rng):
    box = Box3D((0, 0, 0), (2, 3, 4), -0.3)
    points = rng.uniform(-3, 3, size=(200, 3))
    once = crop_points(points, box)
    twice = crop_points(once, box)
    assert np.array_equal(once, twice)
    as_tuples = {tuple(p) for p in points}
    assert all(tuple(p) in as_tuples for p in once)


def test_rasterize_empty_cloud():
    box = Box3D((0, 0, 0), (1, 2, 2), 0.0)
    cells = rasterize_bev(_NO_POINTS, box, (8, 8))
    assert cells.shape == (8, 8)
    assert not cells.any()


def test_rasterize_min_corner():
    # footprint [-1, 1] x [-1, 1]; the minimum corner lands in cell (0, 0)
    box = Box3D((0, 0, 0), (4.0, 2.0, 2.0), 0.0)
    cells = rasterize_bev(np.array([(-1.0, -1.0, 1.5)]), box, (4, 4))
    assert cells[0, 0] == 1.5
    assert cells.sum() == 1.5


def test_rasterize_max_pooling():
    box = Box3D((0, 0, 0), (4.0, 2.0, 2.0), 0.0)
    cells = rasterize_bev(np.array([(0.1, 0.1, 1.0), (0.11, 0.11, 2.0)]), box, (2, 2))
    assert cells[1, 1] == 2.0


def test_rasterize_upper_boundary_clamped():
    box = Box3D((0, 0, 0), (4.0, 2.0, 2.0), 0.0)
    cells = rasterize_bev(np.array([(1.0, 1.0, 0.7)]), box, (4, 4))
    assert cells[3, 3] == 0.7


def test_rasterize_permutation_invariant(rng):
    box = Box3D((0, 0, 0), (2.0, 3.0, 3.0), 0.4)
    pts = rng.uniform(-1.5, 1.5, size=(100, 3))
    a = rasterize_bev(pts, box, (16, 16))
    b = rasterize_bev(pts[::-1], box, (16, 16))
    assert np.array_equal(a, b)


def test_rasterize_rejects_bad_resolution():
    box = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    with pytest.raises(ValueError):
        rasterize_bev(_NO_POINTS, box, (0, 4))


def test_bev_to_pgm_shape_and_scale():
    text = bev_to_pgm(np.array([[0.0, 1.0], [2.0, 0.5]]))
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    rows = [list(map(int, l.split())) for l in lines[3:]]
    assert rows == [[0, 128], [255, 64]]
