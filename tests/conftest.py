"""Shared synthetic-data helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from paretotrack.geometry import Box2D
from paretotrack.kitti_io import LabeledObject, SequenceDetections
from paretotrack.latency import (
    CANDIDATE_OPS,
    LatencyEntry,
    LatencyTable,
    nominal_cost_ms,
)
from paretotrack.scoring import ScoreSet


def make_label(frame, track_id, box, score=0.9, class_name="Car"):
    return LabeledObject(
        frame=frame,
        track_id=track_id,
        class_name=class_name,
        truncated=0.0,
        occluded=0,
        alpha=-1.2,
        bbox=box,
        dimensions=(1.5, 1.6, 3.9),
        location=(2.0, 1.5, 30.0),
        rotation_y=-1.5,
        score=score,
    )


def slot_box(slot: int, frame: int) -> Box2D:
    """Non-overlapping box for object `slot`, drifting one pixel per frame."""
    left = 120.0 * slot + float(frame)
    top = 40.0 * (slot % 3)
    return Box2D(left, top, left + 60.0, top + 30.0)


# Coordinates from a small integer grid make touching edges, zero-width or
# zero-height boxes and identical boxes common; the float range covers the rest.
_coord = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))


@st.composite
def boxes(draw):
    x1, x2, y1, y2 = (draw(_coord) for _ in range(4))
    return Box2D(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


def random_gt_sequence(rng, max_objects=10, max_frames=30):
    """Synthetic ground truth: objects live in contiguous frame windows.

    Returns (SequenceDetections, gt frame map of (id, box)).
    """
    n_objects = int(rng.integers(1, max_objects + 1))
    n_frames = int(rng.integers(3, max_frames + 1))
    seq = SequenceDetections()
    gt = {f: [] for f in range(n_frames)}
    for obj in range(n_objects):
        enter = int(rng.integers(0, max(1, n_frames - 1)))
        leave = int(rng.integers(enter, n_frames - 1))
        for f in range(enter, leave + 1):
            box = slot_box(obj, f)
            seq.frames.setdefault(f, []).append(
                make_label(f, obj, box).to_detection()
            )
            gt[f].append((obj, box))
    seq.frames = {f: dets for f, dets in seq.frames.items() if dets}
    gt = {f: objs for f, objs in gt.items() if objs}
    return seq, gt


class IdentityScorer:
    """Oracle scorer: +affinity iff the ground-truth track ids agree."""

    def __call__(self, tracklets, detections):
        n, m = len(tracklets), len(detections)
        link = np.full((n, m), -2.0)
        for i, track in enumerate(tracklets):
            tid = track.last_detection.source.track_id
            for j, det in enumerate(detections):
                if det.source.track_id == tid:
                    link[i, j] = 2.0
        return ScoreSet(
            np.full(m, -0.5), np.full(n, -0.5), np.ones(n), np.ones(m), link
        )


def nominal_table(space) -> LatencyTable:
    """Latency table over every (kind template, op) pair from the nominal model."""
    table = LatencyTable()
    for kind in space.kinds():
        template = space.op_template(kind)
        for op in CANDIDATE_OPS:
            cfg = template.with_op(op)
            table.add(cfg, LatencyEntry(nominal_cost_ms(cfg), 0.0, 1))
    return table


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
