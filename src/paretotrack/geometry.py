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

    Rows are (left, top, right, bottom); the inputs are only read.  Entry
    (i, j) equals iou_2d of a[i] and b[j] bit for bit, from 14 in-place passes
    over N x M arrays: inter = max(0, iw) * max(0, ih), union = (area_a +
    area_b) - inter, and inter / max(union, 5e-324) + 0.0.  union is 0.0 only
    where inter is 0.0, so the floor of the smallest positive double changes
    no other quotient; and + 0.0 turns the -0.0 that numpy's maximum may give
    for a -0.0 extent into iou_2d's 0.0.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    al, at, ar, ab = a.T[:, :, None]
    bl, bt, br, bb = b.T
    inter = np.minimum(ar, br)
    inter -= np.maximum(al, bl)
    ih = np.minimum(ab, bb)
    ih -= np.maximum(at, bt)
    np.maximum(inter, 0.0, out=inter)
    inter *= np.maximum(ih, 0.0, out=ih)
    union = (ar - al) * (ab - at) + (br - bl) * (bb - bt)
    union -= inter
    inter /= np.maximum(union, 5e-324, out=union)
    return np.add(inter, 0.0, out=inter)
