import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import boxes
from paretotrack.geometry import (
    BevImage,
    Box2D,
    Box3D,
    PointCloud,
    bev_to_pgm,
    box_array,
    crop_points,
    iou_2d,
    iou_matrix,
    rasterize_bev,
)


def test_box2d_rejects_inverted_extents():
    with pytest.raises(ValueError):
        Box2D(10, 0, 0, 10)
    with pytest.raises(ValueError):
        Box2D(0, 10, 10, 0)


def test_box3d_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 0, 1), 0.0)


def test_iou_identical_boxes():
    box = Box2D(3, 4, 10, 12)
    assert iou_2d(box, box) == 1.0


def test_iou_disjoint_boxes():
    assert iou_2d(Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6)) == 0.0


_SQUARE = Box2D(0.0, 0.0, 2.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(boxes(), max_size=6), st.lists(boxes(), max_size=6))
@example([], [_SQUARE])
@example([_SQUARE], [])
@example([_SQUARE], [_SQUARE, Box2D(2.0, 0.0, 4.0, 2.0), Box2D(1.0, 1.0, 1.0, 3.0),
                     Box2D(0.0, 1.0, 2.0, 1.0)])
def test_iou_matrix_bitwise_equals_iou_2d(a, b):
    got = iou_matrix(box_array(a), box_array(b))
    want = np.array([[iou_2d(x, y) for y in b] for x in a], dtype=np.float64)
    assert got.shape == (len(a), len(b))
    assert got.tobytes() == want.reshape(len(a), len(b)).tobytes()


def test_iou_third_overlap():
    # oracle: rasterized pixel count on a fine grid
    a = Box2D(0, 0, 10, 10)
    b = Box2D(5, 0, 15, 10)
    grid = np.zeros((20, 20))
    inter = union = 0
    for r in range(200):
        for c in range(200):
            x, y = c * 0.1 + 0.05, r * 0.1 + 0.05
            in_a = a.left <= x <= a.right and a.top <= y <= a.bottom
            in_b = b.left <= x <= b.right and b.top <= y <= b.bottom
            inter += in_a and in_b
            union += in_a or in_b
    del grid
    assert abs(iou_2d(a, b) - inter / union) < 1e-9
    assert iou_2d(a, b) == pytest.approx(1 / 3)


def test_iou_zero_area_union():
    degenerate = Box2D(1, 1, 1, 1)
    assert iou_2d(degenerate, degenerate) == 0.0


def test_iou_symmetric_and_bounded(rng):
    for _ in range(100):
        vals = rng.uniform(0, 50, 4)
        a = Box2D(min(vals[0], vals[1]), 0, max(vals[0], vals[1]), 10)
        b = Box2D(min(vals[2], vals[3]), 2, max(vals[2], vals[3]), 9)
        assert iou_2d(a, b) == iou_2d(b, a)
        assert 0.0 <= iou_2d(a, b) <= 1.0


def test_crop_empty_cloud():
    box = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    assert len(crop_points(PointCloud([]), box)) == 0


def test_crop_center_retained():
    box = Box3D((1, 2, 3), (2, 2, 2), 0.7)
    cropped = crop_points(PointCloud([(1, 2, 3)]), box)
    assert len(cropped) == 1


def test_crop_unit_box_boundary():
    # unit box at origin, length 1 along x: 0.4 inside (inclusive), 0.6 outside
    box = Box3D((0, 0, 0), (1.0, 1.0, 1.0), 0.0)
    cloud = PointCloud([(0.4, 0, 0), (0.6, 0, 0), (0.5, 0, 0)])
    kept = crop_points(cloud, box)
    assert kept.points[:, 0].tolist() == [0.4, 0.5]


def test_crop_per_point_containment_oracle(rng):
    box = Box3D((1.0, -2.0, 0.5), (2.0, 1.0, 3.0), 0.6)
    pts = rng.uniform(-4, 4, size=(500, 3))
    kept = crop_points(PointCloud(pts), box)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    expected = []
    for x, y, z in pts:
        dx, dy, dz = x - 1.0, y + 2.0, z - 0.5
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        if abs(lx) <= 1.5 and abs(ly) <= 0.5 and abs(dz) <= 1.0:
            expected.append((x, y, z))
    assert kept.points.tolist() == [list(p) for p in expected]


def test_crop_idempotent_and_subset(rng):
    box = Box3D((0, 0, 0), (2, 3, 4), -0.3)
    cloud = PointCloud(rng.uniform(-3, 3, size=(200, 3)))
    once = crop_points(cloud, box)
    twice = crop_points(once, box)
    assert once == twice
    as_tuples = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in as_tuples for p in once.points)


def test_rasterize_empty_cloud():
    box = Box3D((0, 0, 0), (1, 2, 2), 0.0)
    img = rasterize_bev(PointCloud([]), box, (8, 8))
    assert img.resolution == (8, 8)
    assert not img.cells.any()


def test_rasterize_min_corner():
    # footprint [-1, 1] x [-1, 1]; the minimum corner lands in cell (0, 0)
    box = Box3D((0, 0, 0), (4.0, 2.0, 2.0), 0.0)
    img = rasterize_bev(PointCloud([(-1.0, -1.0, 1.5)]), box, (4, 4))
    assert img.cells[0, 0] == 1.5
    assert img.cells.sum() == 1.5


def test_rasterize_max_pooling():
    box = Box3D((0, 0, 0), (4.0, 2.0, 2.0), 0.0)
    img = rasterize_bev(
        PointCloud([(0.1, 0.1, 1.0), (0.11, 0.11, 2.0)]), box, (2, 2)
    )
    assert img.cells[1, 1] == 2.0


def test_rasterize_upper_boundary_clamped():
    box = Box3D((0, 0, 0), (4.0, 2.0, 2.0), 0.0)
    img = rasterize_bev(PointCloud([(1.0, 1.0, 0.7)]), box, (4, 4))
    assert img.cells[3, 3] == 0.7


def test_rasterize_permutation_invariant(rng):
    box = Box3D((0, 0, 0), (2.0, 3.0, 3.0), 0.4)
    pts = rng.uniform(-1.5, 1.5, size=(100, 3))
    a = rasterize_bev(PointCloud(pts), box, (16, 16))
    b = rasterize_bev(PointCloud(pts[::-1]), box, (16, 16))
    assert a == b


def test_rasterize_rejects_bad_resolution():
    box = Box3D((0, 0, 0), (1, 1, 1), 0.0)
    with pytest.raises(ValueError):
        rasterize_bev(PointCloud([]), box, (0, 4))


def test_bev_to_pgm_shape_and_scale():
    img = BevImage([[0.0, 1.0], [2.0, 0.5]])
    text = bev_to_pgm(img)
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    rows = [list(map(int, l.split())) for l in lines[3:]]
    assert rows == [[0, 128], [255, 64]]
