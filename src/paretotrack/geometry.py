"""Bounding-box geometry, point-cloud cropping and birds-eye-view rasterization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .settings import AT_LEAST_1, BOUNDED, check


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (x, y, z), size (height, width, length), yaw about the z axis.

    Length runs along the local x axis, width along local y, height along z.
    """

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float

    def __post_init__(self):
        # bounded values keep every difference, rotation and scale that
        # crop_points and rasterize_bev form finite
        if not all(map(BOUNDED.holds, (*self.center, *self.size, self.yaw))):
            raise ValueError(f"box center, size and yaw must be {BOUNDED.text}, got {self}")
        if any(s <= 0 for s in self.size):
            raise ValueError(f"box size components must be positive, got {self.size}")

    def footprint_corners(self) -> np.ndarray:
        """Ground-plane (x, y) corners of the yaw-rotated footprint, shape (4, 2)."""
        h, w, l = self.size
        local = np.array(
            [[-l / 2, -w / 2], [-l / 2, w / 2], [l / 2, w / 2], [l / 2, -w / 2]]
        )
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.asarray(self.center[:2])


def iou_2d(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection-over-union of two (left, top, right, bottom) boxes; 0.0 when
    the union has zero area."""
    al, at, ar, ab = a
    bl, bt, br, bb = b
    # conditional expressions cost less than min/max calls; on a tie they may
    # pick the other zero, and a zero extent gives inter = 0.0 either way
    iw = (ar if ar < br else br) - (al if al > bl else bl)
    ih = (ab if ab < bb else bb) - (at if at > bt else bt)
    if iw <= 0 or ih <= 0:
        inter = 0.0
    else:
        inter = iw * ih
    union = (ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter
    if union <= 0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two box arrays or lists of boxes, (N, 4) by (M, 4) -> (N, M).

    Rows are (left, top, right, bottom).  Entry (i, j) equals iou_2d of box
    a[i] and box b[j] bit for bit: both take min - max for the overlap
    extents (equal but for the sign of a zero extent), zero the intersection
    unless both extents are positive, form the union as (area_a + area_b) -
    inter and return 0.0 where it is not positive.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)))
    al, at, ar, ab = a.T[:, :, None]
    bl, bt, br, bb = b.T
    iw = np.minimum(ar, br) - np.maximum(al, bl)
    ih = np.minimum(ab, bb) - np.maximum(at, bt)
    inter = np.where((iw <= 0) | (ih <= 0), 0.0, iw * ih)
    union = ((ar - al) * (ab - at) + (br - bl) * (bb - bt)) - inter
    return np.divide(inter, union, out=np.zeros_like(union), where=~(union <= 0))


def crop_points(points: np.ndarray, box: Box3D) -> np.ndarray:
    """The rows of an (N, 3) array of (x, y, z) points inside the yaw-rotated
    box, boundaries inclusive."""
    h, w, l = box.size
    cx, cy, cz = box.center
    d = points - np.array([cx, cy, cz])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    # Rotate into the box frame (inverse of the box's yaw).
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    lz = d[:, 2]
    inside = (
        (np.abs(lx) <= l / 2) & (np.abs(ly) <= w / 2) & (np.abs(lz) <= h / 2)
    )
    return points[inside]


def rasterize_bev(points: np.ndarray, box: Box3D, resolution: tuple[int, int]) -> np.ndarray:
    """Rasterize (N, 3) points onto the box's ground-plane footprint, a
    (rows, cols) grid.

    A point lands in row floor((y - y_min) / (y_max - y_min) * rows) and the
    analogous column for x; the upper boundary is clamped into the last cell so
    no in-box point is dropped.  Cells keep the maximum z of their points and
    empty cells are 0.
    """
    rows, cols = resolution
    check("rows", rows, AT_LEAST_1)
    check("cols", cols, AT_LEAST_1)
    corners = box.footprint_corners()
    x_min, y_min = corners.min(axis=0)
    x_max, y_max = corners.max(axis=0)
    if not (x_max > x_min and y_max > y_min):
        raise ValueError(f"box footprint has no ground-plane extent, got {box}")
    cells = np.zeros((rows, cols))
    r = np.floor((points[:, 1] - y_min) / (y_max - y_min) * rows).astype(np.int64)
    c = np.floor((points[:, 0] - x_min) / (x_max - x_min) * cols).astype(np.int64)
    r = np.clip(r, 0, rows - 1)
    c = np.clip(c, 0, cols - 1)
    np.maximum.at(cells, (r, c), points[:, 2])
    return cells


def bev_to_pgm(cells: np.ndarray) -> str:
    """Render a (rows, cols) height grid as plain-text portable graymap (P2)
    for eyeballing, its values scaled linearly onto 0..255 over the range
    from min(0, lowest) to the highest."""
    lo, hi = min(0.0, float(cells.min())), float(cells.max())
    if hi > lo:
        scaled = np.rint((cells - lo) / (hi - lo) * 255).astype(int)
    else:
        scaled = np.zeros_like(cells, dtype=int)
    rows, cols = cells.shape
    lines = ["P2", f"{cols} {rows}", "255"]
    for row in scaled:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
