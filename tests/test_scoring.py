import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, make_label, slot_box
from paretotrack.geometry import Box2D, iou_2d
from paretotrack.kitti_io import Detection
from paretotrack.scoring import (
    BaselineScorer,
    ScorerConfig,
    ScoreSet,
    baseline_scores,
)
from paretotrack.tracker import Tracklet


def _tracklet(slot, frame=0, score=0.9):
    det = make_label(frame, slot, slot_box(slot, frame), score=score).to_detection()
    return Tracklet(id=slot, detections=[(frame, det)])


def test_scoreset_shape_validation():
    with pytest.raises(ValueError):
        ScoreSet([0.0], [0.0], [0.0, 0.0], [0.0], [[0.0]])


def test_scoreset_rejects_nan():
    with pytest.raises(ValueError):
        ScoreSet([np.nan], [], [], [0.0], np.zeros((0, 1)))


def test_baseline_identical_box_max_affinity():
    track = _tracklet(0)
    det = track.detections[0][1]
    scores = baseline_scores([track], [det], cfg=ScorerConfig(w_iou=1.0))
    assert scores.s_link[0, 0] == 1.0


def test_baseline_disjoint_boxes():
    track = _tracklet(0)
    far = make_label(1, 9, slot_box(3, 1)).to_detection()
    scores = baseline_scores([track], [far], cfg=ScorerConfig(w_iou=1.0))
    assert scores.s_link[0, 0] == -1.0


def test_baseline_confidence_mapping():
    det = make_label(0, 0, slot_box(0, 0), score=1.0).to_detection()
    scores = baseline_scores([], [det], cfg=ScorerConfig(w_det=1.0))
    assert scores.s_det_curr[0] == 1.0


def test_baseline_terminal_scores_constant():
    tracks = [_tracklet(0), _tracklet(1)]
    dets = [make_label(1, 0, slot_box(0, 1)).to_detection()]
    scores = baseline_scores(tracks, dets, cfg=ScorerConfig(terminal_score=-0.2))
    assert scores.s_in.tolist() == [-0.2]
    assert scores.s_out.tolist() == [-0.2, -0.2]


def test_baseline_shapes_match_inputs(rng):
    for n, m in [(0, 0), (0, 3), (2, 0), (3, 4)]:
        tracks = [_tracklet(i) for i in range(n)]
        dets = [make_label(1, j, slot_box(j, 1)).to_detection() for j in range(m)]
        s = baseline_scores(tracks, dets)
        assert (s.n_prev, s.n_curr) == (n, m)
        assert s.s_link.shape == (n, m)


def test_baseline_deterministic():
    tracks = [_tracklet(0), _tracklet(1)]
    dets = [make_label(1, j, slot_box(j, 1), score=0.7).to_detection() for j in range(3)]
    a = baseline_scores(tracks, dets)
    b = baseline_scores(tracks, dets)
    assert np.array_equal(a.s_link, b.s_link)
    assert np.array_equal(a.s_det_curr, b.s_det_curr)


def test_baseline_monotone_in_iou():
    # shifting the detection box away from the tracklet only lowers s_link
    track = _tracklet(0)
    prev = None
    for shift in range(0, 60, 10):
        base = slot_box(0, 0)
        det_box = Box2D(base.left + shift, base.top, base.right + shift, base.bottom)
        det = make_label(1, 0, det_box).to_detection()
        val = baseline_scores([track], [det]).s_link[0, 0]
        if prev is not None:
            assert val <= prev
        prev = val


def test_baseline_scorer_callable():
    scorer = BaselineScorer(ScorerConfig(w_iou=2.0))
    track = _tracklet(0)
    det = track.detections[0][1]
    scores = scorer([track], [det])
    assert scores.s_link[0, 0] == 2.0


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _detections(frame=0):
    return st.builds(Detection, st.just(frame), boxes(), st.floats(0.0, 1.0))


@st.composite
def _tracklets(draw):
    history = draw(st.lists(_detections(), min_size=1, max_size=3))
    return Tracklet(id=None, detections=list(enumerate(history)))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(_tracklets(), max_size=6), st.lists(_detections(frame=5), max_size=6),
       _finite, _finite, _finite)
def test_baseline_equals_scalar_recomputation(tracks, dets, w_iou, w_det, terminal):
    cfg = ScorerConfig(w_iou=w_iou, w_det=w_det, terminal_score=terminal)
    got = baseline_scores(tracks, dets, cfg=cfg)
    last = [t.detections[-1][1] for t in tracks]
    link = [w_iou * (2.0 * iou_2d(p.box, d.box) - 1.0) for p in last for d in dets]
    assert got.s_link.shape == (len(tracks), len(dets))
    assert _bits(got.s_link.ravel()) == _bits(link)
    assert _bits(got.s_det_prev) == _bits(w_det * (2.0 * p.confidence - 1.0) for p in last)
    assert _bits(got.s_det_curr) == _bits(w_det * (2.0 * d.confidence - 1.0) for d in dets)
    assert _bits(got.s_in) == [terminal.hex()] * len(dets)
    assert _bits(got.s_out) == [terminal.hex()] * len(tracks)
