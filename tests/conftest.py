"""Shared synthetic-data helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from paretotrack.kitti_io import parse_sequence
from paretotrack.nas import nominal_table  # noqa: F401  (re-exported for the tests)
from paretotrack.scoring import ScoreSet


def label_line(frame, track_id, box, score=0.9, class_name="Car"):
    """The canonical 18-field tracking line of one object, spelled as results are written."""
    return "%d %d %s 0.0 0 -1.2 %r %r %r %r 1.5 1.6 3.9 2.0 1.5 30.0 -1.5 %r" % (
        frame, track_id, class_name, *map(float, box), float(score))


def make_detection(frame, track_id, box, score=0.9, class_name="Car"):
    """The one record that the reader makes of `label_line`'s line."""
    (det,) = parse_sequence([label_line(frame, track_id, box, score, class_name)]).frames[frame]
    return det


def slot_box(slot: int, frame: int) -> tuple[float, float, float, float]:
    """Non-overlapping (left, top, right, bottom) box for object `slot`, drifting
    one pixel per frame."""
    left = 120.0 * slot + float(frame)
    top = 40.0 * (slot % 3)
    return (left, top, left + 60.0, top + 30.0)


# Coordinates from a small integer grid make touching edges, zero-width or
# zero-height boxes and identical boxes common; the float range covers the rest
# of what the reader admits, every coordinate up to 2**510 in magnitude.
_coord = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-2.0 ** 510, 2.0 ** 510, allow_subnormal=True))


@st.composite
def boxes(draw):
    x1, x2, y1, y2 = (draw(_coord) for _ in range(4))
    return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


def random_gt_sequence(rng, max_objects=10, max_frames=30):
    """Synthetic ground truth: objects live in contiguous frame windows.

    Returns (SequenceDetections, gt frame map of (id, box)).
    """
    n_objects = int(rng.integers(1, max_objects + 1))
    n_frames = int(rng.integers(3, max_frames + 1))
    lines = []
    gt = {f: [] for f in range(n_frames)}
    for obj in range(n_objects):
        enter = int(rng.integers(0, max(1, n_frames - 1)))
        leave = int(rng.integers(enter, n_frames - 1))
        for f in range(enter, leave + 1):
            box = slot_box(obj, f)
            lines.append(label_line(f, obj, box))
            gt[f].append((obj, box))
    gt = {f: objs for f, objs in gt.items() if objs}
    return parse_sequence(lines), gt


class IdentityScorer:
    """Oracle scorer: +affinity iff the ground-truth track ids agree."""

    def __call__(self, tracklets, detections):
        n, m = len(tracklets), len(detections)
        link = np.full((n, m), -2.0)
        for i, track in enumerate(tracklets):
            tid = track.detections[-1][1].track_id
            for j, det in enumerate(detections):
                if det.track_id == tid:
                    link[i, j] = 2.0
        return ScoreSet(
            np.full(m, -0.5), np.full(n, -0.5), np.ones(n), np.ones(m), link
        )


def kind_logits(space, rng=None, scale=1e-2):
    """Stage-one logits, one (positions, ops) array per cell kind of `space`:
    zeros, or drawn from `rng` with the calls `stage1_search` draws its start with."""
    shape = (space.n_positions, len(space.ops))
    return {kind: np.zeros(shape) if rng is None else rng.normal(0.0, scale, size=shape)
            for kind in space.kinds()}


def random_scoreset(rng, n, m, lo=-2.0, hi=2.0) -> ScoreSet:
    return ScoreSet(
        rng.uniform(lo, hi, m),
        rng.uniform(lo, hi, n),
        rng.uniform(lo, hi, n),
        rng.uniform(lo, hi, m),
        rng.uniform(lo, hi, (n, m)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
