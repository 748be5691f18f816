import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IdentityScorer, label_line, make_detection, random_gt_sequence, slot_box
from paretotrack.kitti_io import parse_sequence
from paretotrack.scoring import BaselineScorer, ScorerConfig, ScoreSet
from paretotrack.tracker import (
    TrackerConfig,
    TrackerState,
    Tracklet,
    apply_birth_death,
    run_sequence,
    step,
)


def _det(frame, tid, slot=None):
    return make_detection(frame, tid, slot_box(tid if slot is None else slot, frame))


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
    track = Tracklet(id=0, detections=[(0, _det(0, 0))])
    state.active = [track]
    state.next_id = 1
    _, sol = step(state, 1, [_det(1, 0)], _matched_scores(1, 1, [(0, 0)]))
    assert sol.f_link[0, 0] == 1
    assert len(track.detections) == 2
    assert track.id == 0
    assert track.detections[-1][0] == 1  # no miss at frame 1


def test_step_spawns_tentative_without_id():
    state = TrackerState(config=TrackerConfig(t_birth=2, t_death=2))
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    assert len(state.active) == 1
    assert state.active[0].id is None
    assert state.next_id == 0


def test_step_miss_increments():
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=3))
    track = Tracklet(id=0, detections=[(0, _det(0, 0))])
    state.active = [track]
    step(state, 1, [], _matched_scores(1, 0, []))
    assert track.detections[-1][0] == 0  # one miss at frame 1
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
    assert state.active[0].id is None
    step(state, 1, [_det(1, 0)], _matched_scores(1, 1, [(0, 0)]))
    assert state.active[0].id == 0


def test_death_removes_after_threshold():
    cfg = TrackerConfig(t_birth=1, t_death=2)
    state = TrackerState(config=cfg)
    track = Tracklet(id=0, detections=[(0, _det(0, 0))])
    state.active = [track]
    state.next_id = 1
    step(state, 1, [], _matched_scores(1, 0, []))
    assert track in state.active
    step(state, 2, [], _matched_scores(1, 0, []))
    assert state.active == []
    assert state.retired == [track]
    assert track.id == 0  # a retired tracklet keeps its public ID


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
    assert state.active[0].id == 0


def test_ids_unique_and_monotone():
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=1))
    step(state, 0, [_det(0, 0), _det(0, 1)], _matched_scores(0, 2, []))
    ids = [t.id for t in state.active]
    assert ids == [0, 1]
    assert state.next_id == 2


def test_match_resets_miss_counter():
    cfg = TrackerConfig(t_birth=1, t_death=3)
    state = TrackerState(config=cfg)
    track = Tracklet(id=0, detections=[(0, _det(0, 0))])
    state.active = [track]
    state.next_id = 1
    step(state, 1, [], _matched_scores(1, 0, []))
    assert 1 - track.detections[-1][0] == 1  # one miss at frame 1
    step(state, 2, [_det(2, 0)], _matched_scores(1, 1, [(0, 0)]))
    assert 2 - track.detections[-1][0] == 0  # the match at frame 2 ends the misses


def test_backwards_step_raises():
    # an unmatched tracklet last seen after the stepped frame cannot count misses
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=3))
    state.active = [Tracklet(id=0, detections=[(3, _det(3, 0))])]
    state.next_id = 1
    with pytest.raises(ValueError, match="frame 2 is before"):
        step(state, 2, [], _matched_scores(1, 0, []))
    with pytest.raises(ValueError):
        apply_birth_death(state, 2)


def test_a_backwards_frame_leaves_the_state_as_it_was():
    # the ripe tentative comes first, so a loop that confirms as it goes
    # would give it ID 1 before the confirmed tracklet raises
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=3))
    tentative = Tracklet(id=None, detections=[(1, _det(1, 1))])
    confirmed = Tracklet(id=0, detections=[(5, _det(5, 0))])
    state.active = [tentative, confirmed]
    state.next_id = 1
    with pytest.raises(ValueError, match="frame 1 is before"):
        apply_birth_death(state, 1)
    assert state.active == [tentative, confirmed]
    assert [t.id for t in state.active] == [None, 0]
    assert state.next_id == 1
    assert state.retired == []


def _snapshot(state):
    """Everything a step may change: each tracklet's ID and detections, and next_id."""
    def tracks(ts):
        return [(id(t), t.id, list(t.detections)) for t in ts]
    return tracks(state.active), tracks(state.retired), state.next_id


def test_a_repeated_frame_raises_and_leaves_the_state_as_it_was():
    # the tentative would count no miss at its own frame and stay alive
    state = TrackerState(config=TrackerConfig(t_birth=3, t_death=5))
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    before = _snapshot(state)
    with pytest.raises(ValueError, match="frame 0 is at a tracklet's last frame 0"):
        step(state, 0, [], _matched_scores(1, 0, []))
    assert _snapshot(state) == before


def test_a_backwards_step_with_a_link_leaves_the_state_as_it_was():
    # tracklet 0 would take the detection at frame 3 before tracklet 1,
    # last seen at frame 5, makes the frame fail
    state = TrackerState(config=TrackerConfig(t_birth=1, t_death=5))
    state.active = [Tracklet(id=0, detections=[(1, _det(1, 0))]),
                    Tracklet(id=1, detections=[(5, _det(5, 1))])]
    state.next_id = 2
    before = _snapshot(state)
    with pytest.raises(ValueError, match="frame 3 is before a tracklet's last frame 5"):
        step(state, 3, [_det(3, 0)], _matched_scores(2, 1, [(0, 0)]))
    assert _snapshot(state) == before


def test_birth_death_twice_at_one_frame_changes_nothing():
    state = TrackerState(config=TrackerConfig(t_birth=2, t_death=2))
    step(state, 0, [_det(0, 0), _det(0, 1)], _matched_scores(0, 2, []))
    step(state, 1, [_det(1, 0)], _matched_scores(2, 1, [(0, 0)]))
    before = [(t.id, t.detections[-1][0]) for t in state.active], state.next_id
    apply_birth_death(state, 1)
    assert ([(t.id, t.detections[-1][0]) for t in state.active], state.next_id) == before


def test_run_sequence_empty():
    assert run_sequence({}, IdentityScorer()) == []


def test_run_sequence_two_objects_three_frames():
    frames = {f: [_det(f, 0), _det(f, 1)] for f in range(3)}
    tracks = run_sequence(frames, IdentityScorer(), TrackerConfig(t_birth=1, t_death=1))
    assert len(tracks) == 2
    assert all(len(t.detections) == 3 for t in tracks)
    assert [t.id for t in tracks] == [0, 1]


def test_run_sequence_gap_counts_as_miss():
    frames = {0: [_det(0, 0)], 2: [_det(2, 0)]}  # frame 1 missing entirely
    tracks = run_sequence(frames, IdentityScorer(), TrackerConfig(t_birth=1, t_death=1))
    # the tracklet dies in the gap, a second identity is born at frame 2
    assert len(tracks) == 2


def test_run_sequence_conservation(rng):
    # after each step every detection of the frame ends at most one active
    # tracklet, and the linked and the born are exactly the ones that do; the
    # rest were dropped.  run_sequence puts no record in two confirmed tracklets
    seq, _ = random_gt_sequence(rng, max_objects=5, max_frames=12)
    inputs = {det.lineno for dets in seq.frames.values() for det in dets}
    cfg = TrackerConfig(t_birth=2, t_death=2)
    for make_scorer in (IdentityScorer, BaselineScorer):
        state, scorer = TrackerState(config=cfg), make_scorer()
        for frame in sorted(seq.frames):
            dets = seq.frames[frame]
            _, sol = step(state, frame, dets, scorer(state.active, dets))
            ends = [t.detections[-1][1] for t in state.active if t.detections[-1][0] == frame]
            assert all(any(end is det for det in dets) for end in ends)
            assert all(sum(end is det for end in ends) <= 1 for det in dets)
            linked = int(sol.f_link.sum())
            born = int((sol.f_in & (sol.f_link.sum(axis=0) == 0)).sum())
            assert linked + born == len(ends)
        held = [det.lineno for t in run_sequence(seq.frames, make_scorer(), cfg)
                for _, det in t.detections]
        assert held and len(set(held)) == len(held) and set(held) <= inputs


def test_run_sequence_deterministic(rng):
    seq, _ = random_gt_sequence(rng, max_objects=6, max_frames=15)
    a = run_sequence(seq.frames, IdentityScorer(), TrackerConfig(t_birth=2, t_death=2))
    b = run_sequence(seq.frames, IdentityScorer(), TrackerConfig(t_birth=2, t_death=2))
    assert [(t.id, [f for f, _ in t.detections]) for t in a] == [
        (t.id, [f for f, _ in t.detections]) for t in b
    ]


def test_dead_tracklets_never_revive():
    cfg = TrackerConfig(t_birth=1, t_death=1)
    state = TrackerState(config=cfg)
    step(state, 0, [_det(0, 0)], _matched_scores(0, 1, []))
    dead = state.active[0]
    step(state, 1, [], _matched_scores(1, 0, []))
    assert state.active == [] and state.retired == [dead]
    # the same object reappearing gets a fresh identity
    step(state, 2, [_det(2, 0)], _matched_scores(0, 1, []))
    assert state.active[0] is not dead
    assert state.active[0].id == 1


def _walk_every_frame(frames, scorer, cfg):
    """Reference loop: step through every frame index, empty gaps included."""
    state = TrackerState(config=cfg)
    for frame in range(min(frames), max(frames) + 1):
        dets = frames.get(frame, [])
        step(state, frame, dets, scorer(state.active, dets))
    confirmed = state.retired + [t for t in state.active if t.id is not None]
    return sorted(confirmed, key=lambda t: t.id)


def _summary(tracks):
    return [(t.id, [(f, d.track_id) for f, d in t.detections])
            for t in tracks]


def _runs(t_death):
    """Runs of consecutive frames, each after a gap (1 = none) and with the
    slots detected on each of its frames; the long gaps straddle t_death (or
    3000 frames, so that walking them stays quick)."""
    long_gaps = sorted({max(1, min(t_death, 3000) + d) for d in (-1, 0, 1, 2)})
    return st.lists(
        st.tuples(st.integers(1, 4) | st.sampled_from(long_gaps),
                  st.integers(1, 4),
                  st.dictionaries(st.integers(0, 3), st.sampled_from([0.1, 0.5, 0.9]),
                                  min_size=1, max_size=3)),
        min_size=1, max_size=5)


@pytest.mark.parametrize("t_death", [1, 5, 3000, 10**6])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), t_birth=st.integers(1, 3),
       make_scorer=st.sampled_from([IdentityScorer, BaselineScorer]))
def test_run_sequence_gap_skip_matches_frame_walk(t_death, data, t_birth, make_scorer):
    # run_sequence skips the lifecycle call after a stepped frame and every
    # empty frame of a gap; walking each frame index must give the same tracks
    lines, frame = [], -1
    for gap, length, slots in data.draw(_runs(t_death)):
        frame += gap
        for f in range(frame, frame + length):
            lines += [label_line(f, slot, slot_box(slot, f), conf)
                      for slot, conf in sorted(slots.items())]
        frame += length - 1
    seq = parse_sequence(lines)  # one table, so the baseline scorer builds blocks
    cfg = TrackerConfig(t_birth=t_birth, t_death=t_death)
    expected = _summary(_walk_every_frame(seq.frames, make_scorer(), cfg))
    assert _summary(run_sequence(seq.frames, make_scorer(), cfg)) == expected


def test_run_sequence_huge_frame_gap_finishes_quickly():
    frames = {f: [_det(f, 0)] for f in (0, 1, 2, 10**9, 10**9 + 1)}
    for t_death, identities in [
        (5, [[0, 1, 2], [10**9, 10**9 + 1]]),
        # the first identity is still alive, and confirmed, across the gap
        (2 * 10**9, [[0, 1, 2, 10**9, 10**9 + 1]]),
    ]:
        t0 = time.perf_counter()
        tracks = run_sequence(frames, IdentityScorer(), TrackerConfig(t_birth=2, t_death=t_death))
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
    dets = {f: [make_detection(f, slot, slot_box(slot, f), score=conf)
                for slot, conf in sorted(slots.items())]
            for f, slots in frames.items()}
    tracks = run_sequence(dets, scorer, TrackerConfig(t_birth=t_birth, t_death=t_death))

    used = [id(det) for t in tracks for _, det in t.detections]
    assert len(used) == len(set(used))  # each detection in at most one tracklet
    confirmed_at = []
    for t in tracks:
        frames_of = [f for f, _ in t.detections]
        assert all(a < b for a, b in zip(frames_of, frames_of[1:]))
        assert all(any(det is d for d in dets[f]) for f, det in t.detections)
        # confirmed only after t_birth hits in consecutive frames
        assert frames_of[:t_birth] == list(range(frames_of[0], frames_of[0] + t_birth))
        confirmed_at.append(frames_of[t_birth - 1])
    assert [t.id for t in tracks] == list(range(len(tracks)))
    assert confirmed_at == sorted(confirmed_at)  # IDs follow confirmation order


@dataclass
class _Counted:
    obj: int
    frames: list
    id: int | None = None
    hits: int = 1
    misses: int = 0


class _CounterLifecycle:
    """Reference lifecycle kept with hit and miss counters, stepped on every frame.

    With one detection per present object and the identity scorer, an
    object's detection extends its own live tracklet or starts a tentative
    one, in object order.
    """

    def __init__(self, t_birth, t_death):
        self.t_birth, self.t_death = t_birth, t_death
        self.active, self.retired, self.next_id = [], [], 0

    def step(self, frame, present):
        live = {t.obj for t in self.active}
        for t in self.active:
            if t.obj in present:
                t.frames.append(frame)
                t.hits, t.misses = t.hits + 1, 0
            else:
                t.hits, t.misses = 0, t.misses + 1
        self.active += [_Counted(obj, [frame]) for obj in sorted(present - live)]
        survivors = []
        for t in self.active:
            if t.id is None:
                if t.misses >= 1:
                    continue
                if t.hits >= self.t_birth:
                    t.id, self.next_id = self.next_id, self.next_id + 1
            elif t.misses >= self.t_death:
                self.retired.append(t)
                continue
            survivors.append(t)
        self.active = survivors


def _ids_and_frames(tracks):
    return [(t.id, list(t.frames)) if isinstance(t, _Counted)
            else (t.id, [f for f, _ in t.detections]) for t in tracks]


_presence = st.integers(1, 16).flatmap(lambda n: st.lists(
    st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=4))


@pytest.mark.parametrize("t_death", [1, 2, 3, 4])
@pytest.mark.parametrize("t_birth", [1, 2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(presence=_presence)
def test_lifecycle_matches_hit_and_miss_counters(t_birth, t_death, presence):
    # presence[obj][frame]: whether object obj is detected at that frame
    n_frames = len(presence[0])
    frames = {}
    for f in range(n_frames):
        objs = [obj for obj, row in enumerate(presence) if row[f]]
        if objs:
            frames[f] = [make_detection(f, obj, slot_box(obj, f)) for obj in objs]
    cfg = TrackerConfig(t_birth=t_birth, t_death=t_death)

    reference = _CounterLifecycle(t_birth, t_death)
    state = TrackerState(config=cfg)
    after = {}  # frame -> the reference's active tracklets after that frame
    for f in range(n_frames):
        reference.step(f, {obj for obj, row in enumerate(presence) if row[f]})
        after[f] = _ids_and_frames(reference.active)
        dets = frames.get(f, [])
        step(state, f, dets, IdentityScorer()(state.active, dets))
        assert _ids_and_frames(state.active) == after[f]
        assert _ids_and_frames(state.retired) == _ids_and_frames(reference.retired)

    # run_sequence skips the empty frames: before scoring a frame, its active
    # tracklets are the reference's after the frame before
    scored = []

    def recording_scorer(tracklets, detections):
        scored.append((detections[0].frame, _ids_and_frames(tracklets)))
        return IdentityScorer()(tracklets, detections)

    tracks = run_sequence(frames, recording_scorer, cfg)
    assert scored == [(f, after.get(f - 1, [])) for f in frames]
    # no tracklet is confirmed after the last detection
    confirmed = reference.retired + [t for t in reference.active if t.id is not None]
    assert _ids_and_frames(tracks) == _ids_and_frames(sorted(confirmed, key=lambda t: t.id))
