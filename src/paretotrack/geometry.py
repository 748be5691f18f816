"""Intersection-over-union of 2-D (left, top, right, bottom) boxes."""

from __future__ import annotations

from typing import Sequence

import numpy as np


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

