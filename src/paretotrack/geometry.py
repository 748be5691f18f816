"""Bounding-box geometry, point-cloud cropping and birds-eye-view rasterization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

DEFAULT_BEV_RESOLUTION = (256, 256)


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image-plane box, pixel coordinates, (left, top) towards (right, bottom)."""

    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self):
        if not (self.left <= self.right and self.top <= self.bottom):
            raise ValueError(
                f"invalid box extents: ({self.left}, {self.top}, {self.right}, {self.bottom})"
            )

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (x, y, z), size (height, width, length), yaw about the z axis.

    Length runs along the local x axis, width along local y, height along z.
    """

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.center, *self.size, self.yaw))):
            raise ValueError(f"box center, size and yaw must be finite, got {self}")
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


class PointCloud:
    """A set of (x, y, z) points in meters, stored as an (N, 3) float array."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, PointCloud) and np.array_equal(self.points, other.points)

    def __repr__(self) -> str:
        return f"PointCloud({len(self)} points)"


class BevImage:
    """Top-down height raster: each cell stores the max point height (z), 0 when empty."""

    def __init__(self, cells):
        arr = np.asarray(cells, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"cells must be a 2D grid, got shape {arr.shape}")
        self.cells = arr

    @property
    def resolution(self) -> tuple[int, int]:
        return self.cells.shape

    def __eq__(self, other) -> bool:
        return isinstance(other, BevImage) and np.array_equal(self.cells, other.cells)


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection-over-union of two 2D boxes; 0.0 when the union has zero area."""
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        inter = 0.0
    else:
        inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def box_array(boxes: Iterable[Box2D]) -> np.ndarray:
    """Boxes as an (N, 4) float array of (left, top, right, bottom) rows."""
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two box arrays, shape (N, 4) by (M, 4) -> (N, M).

    Rows are (left, top, right, bottom).  Entry (i, j) equals iou_2d of box
    a[i] and box b[j] bit for bit: both take min - max for the overlap
    extents, zero the intersection unless both extents are positive, form
    the union as (area_a + area_b) - inter and return 0.0 where it is not
    positive.
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


def crop_points(cloud: PointCloud, box: Box3D) -> PointCloud:
    """Keep exactly the points inside the yaw-rotated box, boundaries inclusive."""
    if len(cloud) == 0:
        return PointCloud(cloud.points)
    h, w, l = box.size
    cx, cy, cz = box.center
    d = cloud.points - np.array([cx, cy, cz])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    # Rotate into the box frame (inverse of the box's yaw).
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    lz = d[:, 2]
    inside = (
        (np.abs(lx) <= l / 2) & (np.abs(ly) <= w / 2) & (np.abs(lz) <= h / 2)
    )
    return PointCloud(cloud.points[inside])


def rasterize_bev(
    cloud: PointCloud,
    box: Box3D,
    resolution: tuple[int, int] = DEFAULT_BEV_RESOLUTION,
) -> BevImage:
    """Rasterize points onto the box's ground-plane footprint.

    A point lands in row floor((y - y_min) / (y_max - y_min) * rows) and the
    analogous column for x; the upper boundary is clamped into the last cell so
    no in-box point is dropped.  Cells keep the maximum z of their points and
    empty cells are 0.
    """
    rows, cols = resolution
    if rows <= 0 or cols <= 0:
        raise ValueError(f"resolution components must be positive, got {resolution}")
    corners = box.footprint_corners()
    x_min, y_min = corners.min(axis=0)
    x_max, y_max = corners.max(axis=0)
    if not (x_max > x_min and y_max > y_min):
        raise ValueError("degenerate footprint: zero ground-plane extent")
    cells = np.zeros((rows, cols))
    if len(cloud) == 0:
        return BevImage(cells)
    pts = cloud.points
    r = np.floor((pts[:, 1] - y_min) / (y_max - y_min) * rows).astype(np.int64)
    c = np.floor((pts[:, 0] - x_min) / (x_max - x_min) * cols).astype(np.int64)
    r = np.clip(r, 0, rows - 1)
    c = np.clip(c, 0, cols - 1)
    np.maximum.at(cells, (r, c), pts[:, 2])
    return BevImage(cells)


def bev_to_pgm(image: BevImage, maxval: int = 255) -> str:
    """Render a BEV image as plain-text portable graymap (P2) for eyeballing.

    Heights are scaled linearly onto 0..maxval over the image's value range.
    """
    if maxval < 1:
        raise ValueError("maxval must be >= 1")
    cells = image.cells
    lo = min(0.0, float(cells.min())) if cells.size else 0.0
    hi = float(cells.max()) if cells.size else 0.0
    if hi > lo:
        scaled = np.rint((cells - lo) / (hi - lo) * maxval).astype(int)
    else:
        scaled = np.zeros_like(cells, dtype=int)
    rows, cols = image.resolution
    lines = ["P2", f"{cols} {rows}", str(maxval)]
    for row in scaled:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
