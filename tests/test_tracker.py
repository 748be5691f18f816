import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IdentityScorer, make_label, random_gt_sequence, slot_box
from paretotrack.kitti_io import SequenceDetections
from paretotrack.scoring import BaselineScorer, ScorerConfig, ScoreSet
from paretotrack.tracker import (
    TrackerConfig,
    TrackerState,
    Tracklet,
    TrackState,
    run_sequence,
    step,
)


def _det(frame, tid, slot=None):
    return make_label(frame, tid, slot_box(tid if slot is None else slot, frame)).to_detection()


def _matched_scores(n, m, pairs):
    link = np.full((n, m), -2.0)
    for i, j in pairs:
        link[i, j] = 2.0
    return ScoreSet(np.full(m, -0.5), np.full(n, -0.5), np.ones(n), np.ones(m), link)


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(t_birth=0)
    with pytest.raises(ValueError):
        TrackerConfig(t_death=0)


def test_step_match_extends_tracklet():
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=2))
    track = Tracklet(id=0, detections=[(0, _det(0, 0))], state=TrackState.CONFIRMED)
    state.active = [track]
    state.next_id = 1
    _, sol = step(state, 1, [_det(1, 0)], _matched_scores(1, 1, [(0, 0)]))
    assert sol.f_link[0, 0] == 1
    assert len(track.detections) == 2
    assert track.id == 0
    assert track.consecutive_misses == 0


def test_step_spawns_tentative_without_id():
    state = TrackerState(config=TrackerConfig(t_birth=2, t_death=2))
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    assert len(state.active) == 1
    assert state.active[0].state is TrackState.TENTATIVE
    assert state.active[0].id is None


def test_step_miss_increments():
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=3))
    track = Tracklet(id=0, detections=[(0, _det(0, 0))], state=TrackState.CONFIRMED)
    state.active = [track]
    step(state, 1, [], _matched_scores(1, 0, []))
    assert track.consecutive_misses == 1
    assert track in state.active


def test_step_shape_mismatch():
    state = TrackerState()
    with pytest.raises(ValueError):
        step(state, 0, [_det(0, 0)], _matched_scores(1, 1, []))


def test_step_drops_rejected_detection():
    # strongly negative detection score: solver keeps every flag off
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=1))
    scores = ScoreSet([-1.0], [], [], [-1.0], np.zeros((0, 1)))
    _, sol = step(state, 0, [_det(0, 0)], scores)
    assert sol.f_det_curr[0] == 0
    assert state.active == []


def test_birth_confirms_after_threshold():
    cfg = TrackerConfig(t_birth=2, t_death=5)
    state = TrackerState(config=cfg)
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    assert state.active[0].state is TrackState.TENTATIVE
    step(state, 1, [_det(1, 0)], _matched_scores(1, 1, [(0, 0)]))
    assert state.active[0].state is TrackState.CONFIRMED
    assert state.active[0].id == 0


def test_death_removes_after_threshold():
    cfg = TrackerConfig(t_birth=1, t_death=2)
    state = TrackerState(config=cfg)
    track = Tracklet(id=0, detections=[(0, _det(0, 0))], state=TrackState.CONFIRMED)
    state.active = [track]
    state.next_id = 1
    step(state, 1, [], _matched_scores(1, 0, []))
    assert track in state.active
    step(state, 2, [], _matched_scores(1, 0, []))
    assert state.active == []
    assert track.state is TrackState.DEAD
    assert state.retired == [track]


def test_tentative_dies_on_first_miss():
    cfg = TrackerConfig(t_birth=3, t_death=5)
    state = TrackerState(config=cfg)
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    step(state, 1, [], _matched_scores(1, 0, []))
    assert state.active == []
    assert state.retired == []  # never confirmed, so never reported


def test_birth_threshold_one_confirms_immediately():
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=1))
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    assert state.active[0].state is TrackState.CONFIRMED


def test_ids_unique_and_monotone():
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=1))
    step(state, 0, [_det(0, 0), _det(0, 1)], _matched_scores(0, 2, []))
    ids = [t.id for t in state.active]
    assert ids == [0, 1]
    assert state.next_id == 2


def test_match_resets_miss_counter():
    cfg = TrackerConfig(t_birth=1, t_death=3)
    state = TrackerState(config=cfg)
    track = Tracklet(id=0, detections=[(0, _det(0, 0))], state=TrackState.CONFIRMED)
    state.active = [track]
    state.next_id = 1
    step(state, 1, [], _matched_scores(1, 0, []))
    assert track.consecutive_misses == 1
    step(state, 2, [_det(2, 0)], _matched_scores(1, 1, [(0, 0)]))
    assert track.consecutive_misses == 0


def test_frame_monotonicity_enforced():
    track = Tracklet(id=0, detections=[(3, _det(3, 0))])
    with pytest.raises(ValueError):
        track.append(3, _det(3, 0))


def test_run_sequence_empty():
    assert run_sequence(SequenceDetections(), IdentityScorer()) == []


def test_run_sequence_two_objects_three_frames():
    seq = SequenceDetections()
    for f in range(3):
        seq.frames[f] = [_det(f, 0), _det(f, 1)]
    tracks = run_sequence(seq, IdentityScorer(), TrackerConfig(t_birth=1, t_death=1))
    assert len(tracks) == 2
    assert all(len(t.detections) == 3 for t in tracks)
    assert [t.id for t in tracks] == [0, 1]


def test_run_sequence_gap_counts_as_miss():
    seq = SequenceDetections()
    seq.frames[0] = [_det(0, 0)]
    seq.frames[2] = [_det(2, 0)]  # frame 1 missing entirely
    tracks = run_sequence(seq, IdentityScorer(), TrackerConfig(t_birth=1, t_death=1))
    # the tracklet dies in the gap, a second identity is born at frame 2
    assert len(tracks) == 2


def test_run_sequence_conservation(rng):
    # every detection is linked, spawned tentative, or dropped, exactly once
    seq, _ = random_gt_sequence(rng, max_objects=5, max_frames=12)
    state = TrackerState(config=TrackerConfig(t_birth=2, t_death=2))
    scorer = IdentityScorer()
    first, last = min(seq.frames), max(seq.frames)
    for frame in range(first, last + 1):
        dets = seq.frames.get(frame, [])
        scores = scorer(state.active, dets)
        n_before = len(state.active)
        appended = sum(len(t.detections) for t in state.active)
        _, sol = step(state, frame, dets, scores)
        linked = int(sol.f_link.sum())
        born = int((sol.f_in & (sol.f_link.sum(axis=0) == 0)).sum())
        dropped = len(dets) - linked - born
        assert linked + born + dropped == len(dets)
        assert dropped >= 0


def test_run_sequence_deterministic(rng):
    seq, _ = random_gt_sequence(rng, max_objects=6, max_frames=15)
    a = run_sequence(seq, IdentityScorer(), TrackerConfig(t_birth=2, t_death=2))
    b = run_sequence(seq, IdentityScorer(), TrackerConfig(t_birth=2, t_death=2))
    assert [(t.id, [f for f, _ in t.detections]) for t in a] == [
        (t.id, [f for f, _ in t.detections]) for t in b
    ]


def test_dead_tracklets_never_revive():
    cfg = TrackerConfig(t_birth=1, t_death=1)
    state = TrackerState(config=cfg)
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    dead = state.active[0]
    step(state, 1, [], _matched_scores(1, 0, []))
    assert dead.state is TrackState.DEAD
    # the same object reappearing gets a fresh identity
    step(state, 2, [_det(2, 0)], _matched_scores(0, 1, []))
    assert state.active[0] is not dead
    assert state.active[0].id == 1


def _walk_every_frame(seq, scorer, cfg):
    """Reference loop: step through every frame index, empty gaps included."""
    state = TrackerState(config=cfg)
    for frame in range(min(seq.frames), max(seq.frames) + 1):
        dets = seq.frames.get(frame, [])
        step(state, frame, dets, scorer(state.active, dets))
    confirmed = state.retired + [
        t for t in state.active if t.state is TrackState.CONFIRMED
    ]
    return sorted(confirmed, key=lambda t: t.id)


def _summary(tracks):
    return [(t.id, t.state, [(f, d.source.track_id) for f, d in t.detections])
            for t in tracks]


@pytest.mark.parametrize("t_death", [1, 5, 3000, 10**6])
def test_run_sequence_gap_skip_matches_frame_walk(t_death):
    # two bursts 4000 frames apart with one lone detection in between; with
    # t_death=3000 the first tracklets are still alive at the lone detection
    seq = SequenceDetections()
    for f in [*range(0, 6), *range(4000, 4006)]:
        seq.frames[f] = [_det(f, 0), _det(f, 1)]
    seq.frames[2000] = [_det(2000, 2)]
    cfg = TrackerConfig(t_birth=2, t_death=t_death)
    expected = _summary(_walk_every_frame(seq, IdentityScorer(), cfg))
    assert _summary(run_sequence(seq, IdentityScorer(), cfg)) == expected
    assert expected


def test_run_sequence_huge_frame_gap_finishes_quickly():
    seq = SequenceDetections()
    for f in (0, 1, 2, 10**9, 10**9 + 1):
        seq.frames[f] = [_det(f, 0)]
    for t_death, identities in [
        (5, [[0, 1, 2], [10**9, 10**9 + 1]]),
        # the first identity is still alive, and confirmed, across the gap
        (2 * 10**9, [[0, 1, 2, 10**9, 10**9 + 1]]),
    ]:
        t0 = time.perf_counter()
        tracks = run_sequence(seq, IdentityScorer(), TrackerConfig(t_birth=2, t_death=t_death))
        assert time.perf_counter() - t0 < 1.0
        assert [[f for f, _ in t.detections] for t in tracks] == identities


# frame -> {slot: confidence}; a slot's box drifts one pixel per frame, so the
# same slot in nearby frames overlaps and different slots never do
_frames = st.dictionaries(
    st.integers(0, 24),
    st.dictionaries(st.integers(0, 4), st.sampled_from([0.1, 0.5, 0.9]),
                    min_size=1, max_size=4),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(frames=_frames, t_birth=st.integers(1, 4), t_death=st.integers(1, 4),
       scorer=st.sampled_from([IdentityScorer(), BaselineScorer(ScorerConfig())]))
def test_run_sequence_invariants(frames, t_birth, t_death, scorer):
    seq = SequenceDetections()
    for f, slots in frames.items():
        seq.frames[f] = [make_label(f, slot, slot_box(slot, f), score=conf).to_detection()
                         for slot, conf in sorted(slots.items())]
    tracks = run_sequence(seq, scorer, TrackerConfig(t_birth=t_birth, t_death=t_death))

    used = [id(det) for t in tracks for _, det in t.detections]
    assert len(used) == len(set(used))  # each detection in at most one tracklet
    confirmed_at = []
    for t in tracks:
        frames_of = [f for f, _ in t.detections]
        assert all(a < b for a, b in zip(frames_of, frames_of[1:]))
        assert all(any(det is d for d in seq.frames[f]) for f, det in t.detections)
        # confirmed only after t_birth hits in consecutive frames
        assert frames_of[:t_birth] == list(range(frames_of[0], frames_of[0] + t_birth))
        confirmed_at.append(frames_of[t_birth - 1])
    assert [t.id for t in tracks] == list(range(len(tracks)))
    assert confirmed_at == sorted(confirmed_at)  # IDs follow confirmation order
