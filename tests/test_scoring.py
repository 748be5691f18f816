import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, label_line, make_detection, slot_box
from paretotrack import scoring
from paretotrack.geometry import iou_2d
from paretotrack.kitti_io import parse_sequence
from paretotrack.scoring import (
    BaselineScorer,
    ScorerConfig,
    ScoreSet,
    baseline_scores,
)
from paretotrack.tracker import TrackerConfig, TrackerState, Tracklet, run_sequence, step


def _tracklet(slot, frame=0, score=0.9):
    det = make_detection(frame, slot, slot_box(slot, frame), score=score)
    return Tracklet(id=slot, detections=[(frame, det)])


def test_scoreset_shape_validation():
    with pytest.raises(ValueError):
        ScoreSet([0.0], [0.0], [0.0, 0.0], [0.0], [[0.0]])


def test_scoreset_rejects_nan():
    with pytest.raises(ValueError):
        ScoreSet([np.nan], [], [], [0.0], np.zeros((0, 1)))


_FAMILIES = ("s_in", "s_out", "s_det_prev", "s_det_curr", "s_link")


def _finite_families():
    """Two tracklets by three detections, every score finite."""
    return {"s_in": np.zeros(3), "s_out": np.zeros(2), "s_det_prev": np.zeros(2),
            "s_det_curr": np.zeros(3), "s_link": np.zeros((2, 3))}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", _FAMILIES)
def test_scoreset_names_the_non_finite_family(name, value):
    families = _finite_families()
    families[name].flat[-1] = value
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
        ScoreSet(**families)


@pytest.mark.parametrize("first, second", itertools.combinations(_FAMILIES, 2))
def test_scoreset_names_the_first_of_two_non_finite_families(first, second):
    families = _finite_families()
    families[first].flat[0] = np.inf
    families[second].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"^{first} contains non-finite values$"):
        ScoreSet(**families)


def test_baseline_identical_box_max_affinity():
    track = _tracklet(0)
    det = track.detections[0][1]
    scores = baseline_scores([track], [det], cfg=ScorerConfig(w_iou=1.0))
    assert scores.s_link[0, 0] == 1.0


def test_baseline_disjoint_boxes():
    track = _tracklet(0)
    far = make_detection(1, 9, slot_box(3, 1))
    scores = baseline_scores([track], [far], cfg=ScorerConfig(w_iou=1.0))
    assert scores.s_link[0, 0] == -1.0


def test_baseline_confidence_mapping():
    det = make_detection(0, 0, slot_box(0, 0), score=1.0)
    scores = baseline_scores([], [det], cfg=ScorerConfig(w_det=1.0))
    assert scores.s_det_curr[0] == 1.0


def test_baseline_terminal_scores_constant():
    tracks = [_tracklet(0), _tracklet(1)]
    dets = [make_detection(1, 0, slot_box(0, 1))]
    scores = baseline_scores(tracks, dets, cfg=ScorerConfig(terminal_score=-0.2))
    assert scores.s_in.tolist() == [-0.2]
    assert scores.s_out.tolist() == [-0.2, -0.2]


def test_baseline_shapes_match_inputs(rng):
    for n, m in [(0, 0), (0, 3), (2, 0), (3, 4)]:
        tracks = [_tracklet(i) for i in range(n)]
        dets = [make_detection(1, j, slot_box(j, 1)) for j in range(m)]
        s = baseline_scores(tracks, dets)
        assert (s.n_prev, s.n_curr) == (n, m)
        assert s.s_link.shape == (n, m)


def test_baseline_deterministic():
    tracks = [_tracklet(0), _tracklet(1)]
    dets = [make_detection(1, j, slot_box(j, 1), score=0.7) for j in range(3)]
    a = baseline_scores(tracks, dets)
    b = baseline_scores(tracks, dets)
    assert np.array_equal(a.s_link, b.s_link)
    assert np.array_equal(a.s_det_curr, b.s_det_curr)


def test_baseline_monotone_in_iou():
    # shifting the detection box away from the tracklet only lowers s_link
    track = _tracklet(0)
    prev = None
    for shift in range(0, 60, 10):
        left, top, right, bottom = slot_box(0, 0)
        det_box = (left + shift, top, right + shift, bottom)
        det = make_detection(1, 0, det_box)
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


_bounded = st.floats(-2.0 ** 510, 2.0 ** 510)  # what ScorerConfig admits


_detections = st.builds(lambda box, score: make_detection(0, 0, box, score=score),
                        boxes(), st.floats(0.0, 1.0))


@st.composite
def _tracklets(draw):
    history = draw(st.lists(_detections, min_size=1, max_size=3))
    return Tracklet(id=None, detections=list(enumerate(history)))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(_tracklets(), max_size=6), st.lists(_detections, max_size=6),
       _bounded, _bounded, _bounded)
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


def _families(scores: ScoreSet) -> list:
    return [(name, getattr(scores, name).dtype, getattr(scores, name).shape,
             _bits(getattr(scores, name).ravel())) for name in _FAMILIES]


@st.composite
def _detection_lines(draw):
    """Lines of 1-10 frames of 0-4 detections each, and a frame of at least one."""
    lines = []
    for frame in range(draw(st.integers(1, 10))):
        for slot in range(draw(st.integers(0, 4))):
            lines.append(label_line(frame, slot, draw(boxes()), draw(st.floats(0.0, 1.0))))
    return lines or [label_line(0, 0, draw(boxes()), 0.5)]


def _frame_reversed(lines):
    """The lines with their frames in reverse order, each frame's lines in file order."""
    return sorted(lines, key=lambda line: -int(line.split()[0]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_baseline_scorer_equals_baseline_scores_bit_for_bit(data):
    # one stateful scorer across tracking runs on several tables, from sorted and
    # frame-reversed files; each run scores every frame index, an empty frame
    # with [], and may pass a subset or a reordering of a frame's detections, or
    # the same records from a second table; small bounds split a run into many
    # blocks
    cfg = ScorerConfig(*(data.draw(_bounded) for _ in range(3)))
    lines = data.draw(_detection_lines())
    scorer = BaselineScorer(cfg)
    bound = data.draw(st.sampled_from([1, 4, 12, 40, scoring.BLOCK_ENTRIES]))
    with mock.patch.object(scoring, "BLOCK_ENTRIES", bound):
        for _run in range(data.draw(st.integers(1, 3))):
            file = _frame_reversed(lines) if data.draw(st.booleans()) else lines
            tables = [parse_sequence(file)]
            if data.draw(st.booleans()):
                # the same records at other rows of a longer file
                far = label_line(1000, 0, (0.0, 0.0, 1.0, 1.0), 0.5)
                tables.append(parse_sequence([far] * len(file) + file))
            seq = tables[0]
            state = TrackerState(config=TrackerConfig(t_birth=data.draw(st.integers(1, 3)),
                                                      t_death=data.draw(st.integers(1, 3))))
            for frame in range(min(seq.frames), max(seq.frames) + 1):
                dets = seq.frames.get(frame, [])
                picks = range(len(dets))
                if dets and data.draw(st.booleans()):
                    picks = data.draw(st.permutations(picks))[:data.draw(
                        st.integers(0, len(dets)))]
                dets = [data.draw(st.sampled_from(tables)).frames[frame][k] for k in picks]
                want = baseline_scores(state.active, dets, cfg=cfg)
                assert _families(scorer(state.active, dets)) == _families(want)
                step(state, frame, dets, want)


def _track_until_error(scorer, seq):
    """Step every frame of ``seq`` until scoring raises: the frame, the error and the state."""
    state = TrackerState(config=TrackerConfig(t_birth=2, t_death=2))
    for frame in sorted(seq.frames):
        try:
            scores = scorer(state.active, seq.frames[frame])
        except (ValueError, RuntimeWarning) as exc:
            error = (frame, type(exc), str(exc))
            break
        step(state, frame, seq.frames[frame], scores)
    else:
        error = None
    tracks = [(t.id, [(f, d.lineno) for f, d in t.detections])
              for t in state.active + state.retired]
    return error, tracks, state.next_id


@pytest.mark.parametrize("bound", [8, scoring.BLOCK_ENTRIES])
@pytest.mark.parametrize("overflow", ["ignore", "warn"])
def test_an_overflowing_weighted_score_fails_at_its_own_frame(bound, overflow):
    # frame 6's second detection has a confidence whose weighted score is inf: the
    # block that holds it must neither warn nor raise before frame 6, and must
    # leave the tracker where per-frame baseline_scores leaves it; a RuntimeWarning
    # is an error in this suite, so overflow="warn" raises it at the frame instead
    lines = [label_line(frame, slot, slot_box(slot, frame),
                        1e308 if (frame, slot) == (6, 1) else 0.9)
             for frame in range(10) for slot in range(2)]
    seq = parse_sequence(lines)
    with mock.patch.object(scoring, "BLOCK_ENTRIES", bound), np.errstate(over=overflow):
        got = _track_until_error(BaselineScorer(), seq)
        want = _track_until_error(baseline_scores, seq)
    assert want[0][0] == 6
    assert got == want
    if overflow == "ignore":
        assert want[0][1:] == (ValueError, "s_det_curr contains non-finite values")


def _blocks_built(run) -> list:
    """Every block the scorers build while ``run()`` runs."""
    built, real = [], scoring._Block

    def block(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(scoring, "_Block", block):
        run()
    return built


def _frame_loop(scorer, seq):
    """Score and step every frame index of ``seq``, an empty frame with []."""
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=3))
    for frame in range(min(seq.frames), max(seq.frames) + 1):
        dets = seq.frames.get(frame, [])
        step(state, frame, dets, scorer(state.active, dets))


def test_an_empty_call_between_two_frames_of_a_block_keeps_the_block():
    # six frames of two objects fit one block; a call with no tracklets and no
    # detections after each frame is answered without building another
    seq = parse_sequence([label_line(frame, slot, slot_box(slot, frame))
                          for frame in range(6) for slot in range(2)])
    scorer = BaselineScorer()
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=2))
    empty = []

    def run():
        for frame in range(6):
            step(state, frame, seq.frames[frame], scorer(state.active, seq.frames[frame]))
            empty.append(scorer([], []))

    assert len(_blocks_built(run)) == 1
    assert all(_families(got) == _families(baseline_scores([], [])) for got in empty)


def _sparse_lines(n_frames=400, seed=5):
    """0-4 drifting objects a frame, some frames left out."""
    rng = np.random.default_rng(seed)
    return [label_line(frame, slot, slot_box(slot, frame), 0.9)
            for frame in range(n_frames) if rng.random() < 0.8
            for slot in range(int(rng.integers(0, 5)))]


@pytest.mark.parametrize("bound", [1, 4, 12, 40, scoring.BLOCK_ENTRIES])
def test_every_block_is_a_square_of_at_most_block_entries(bound):
    seq = parse_sequence(_sparse_lines())
    with mock.patch.object(scoring, "BLOCK_ENTRIES", bound):
        built = _blocks_built(lambda: run_sequence(seq, BaselineScorer(),
                                                   TrackerConfig(t_birth=1, t_death=3)))
        built += _blocks_built(lambda: _frame_loop(BaselineScorer(), seq))
    sides = [len(block.terminal) for block in built]
    assert all(block.s_link.shape == (side, side) for block, side in zip(built, sides))
    assert all(block.s_link.size <= bound for block in built)
    if bound >= 12:  # blocks are built, and grow to near the bound
        assert built and max(sides) ** 2 > bound // 2


def test_a_file_of_45_boxes_a_frame_builds_no_block():
    # 45 rows and the next frame's 45 do not fit one block, with or without
    # tracklets, so every frame is scored by baseline_scores
    seq = parse_sequence([label_line(frame, slot, slot_box(slot, frame))
                          for frame in range(4) for slot in range(45)])
    with mock.patch.object(scoring, "baseline_scores", wraps=baseline_scores) as dense:
        built = _blocks_built(lambda: run_sequence(seq, BaselineScorer(),
                                                   TrackerConfig(t_birth=1, t_death=3)))
    assert built == []
    assert dense.call_count == 4
