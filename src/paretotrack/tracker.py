"""Online tracking loop: per-frame association, ID propagation and lifecycle gating.

A detection matched to a tracklet inherits the tracklet's identity.  Unmatched
detections become tentative tracklets that must appear in t_birth consecutive
frames before they are confirmed and receive a public ID; a tentative tracklet
is discarded on its first miss.  Confirmed tracklets survive misses until they
have disappeared for t_death consecutive frames.  Tentative tracklets do take
part in association (so their hit streaks can grow), and a match resets a
tracklet's miss counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .assoc import AssociationProblem, AssociationSolution, solve_exact
from .kitti_io import Detection, SequenceDetections
from .scoring import ScoreSet


class TrackState(Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DEAD = "dead"


@dataclass(frozen=True)
class TrackerConfig:
    t_birth: int = 3
    t_death: int = 5

    def __post_init__(self):
        if self.t_birth < 1 or self.t_death < 1:
            raise ValueError("t_birth and t_death must be >= 1")


@dataclass
class Tracklet:
    """One identity: its detections in frame order plus lifecycle counters."""

    id: int | None
    detections: list[tuple[int, Detection]]
    state: TrackState = TrackState.TENTATIVE
    consecutive_hits: int = 1
    consecutive_misses: int = 0

    @property
    def last_frame(self) -> int:
        return self.detections[-1][0]

    @property
    def last_detection(self) -> Detection:
        return self.detections[-1][1]

    def append(self, frame: int, det: Detection) -> None:
        if self.detections and frame <= self.last_frame:
            raise ValueError(
                f"detection frames must strictly increase ({frame} after {self.last_frame})"
            )
        self.detections.append((frame, det))


@dataclass
class TrackerState:
    """Mutable per-sequence state; single-owner, stepped frame by frame."""

    config: TrackerConfig = field(default_factory=TrackerConfig)
    active: list[Tracklet] = field(default_factory=list)
    retired: list[Tracklet] = field(default_factory=list)
    next_id: int = 0


Scorer = Callable[[Sequence[Tracklet], Sequence[Detection]], ScoreSet]


def step(
    state: TrackerState,
    frame: int,
    detections: Sequence[Detection],
    scores: ScoreSet,
) -> tuple[TrackerState, AssociationSolution]:
    """Associate one frame of detections against the active tracklets.

    Matched pairs extend their tracklet; unmatched detections flagged as
    trajectory starts (or true positives) spawn tentative tracklets; unmatched
    tracklets accrue a miss.  Lifecycle transitions are applied afterwards.
    """
    if scores.n_prev != len(state.active) or scores.n_curr != len(detections):
        raise ValueError(
            f"score set shaped ({scores.n_prev}, {scores.n_curr}) does not match "
            f"{len(state.active)} tracklets x {len(detections)} detections"
        )
    solution = solve_exact(AssociationProblem(scores))

    matched_tracks = set()
    matched_dets = set()
    for i, j in solution.link_pairs():
        track = state.active[i]
        track.append(frame, detections[j])
        track.consecutive_hits += 1
        track.consecutive_misses = 0
        matched_tracks.add(i)
        matched_dets.add(j)

    for i, track in enumerate(state.active):
        if i not in matched_tracks:
            track.consecutive_misses += 1
            track.consecutive_hits = 0

    for j, det in enumerate(detections):
        if j in matched_dets:
            continue
        if solution.f_in[j]:
            state.active.append(
                Tracklet(id=None, detections=[(frame, det)], consecutive_hits=1)
            )
        # otherwise the detection is dropped as a false positive

    apply_birth_death(state)
    return state, solution


def apply_birth_death(state: TrackerState) -> TrackerState:
    """Confirm ripe tentative tracklets, discard broken ones, retire expired ones."""
    cfg = state.config
    survivors = []
    for track in state.active:
        if track.state is TrackState.TENTATIVE:
            if track.consecutive_misses >= 1:
                track.state = TrackState.DEAD  # never confirmed: a wrong detection
            elif track.consecutive_hits >= cfg.t_birth:
                track.state = TrackState.CONFIRMED
                track.id = state.next_id
                state.next_id += 1
                survivors.append(track)
            else:
                survivors.append(track)
        else:  # confirmed
            if track.consecutive_misses >= cfg.t_death:
                track.state = TrackState.DEAD
                state.retired.append(track)
            else:
                survivors.append(track)
    state.active = survivors
    return state


def run_sequence(
    seq: SequenceDetections,
    scorer: Scorer,
    cfg: TrackerConfig = TrackerConfig(),
) -> list[Tracklet]:
    """Track a whole sequence and return every tracklet that was ever confirmed.

    Frames with detections are stepped in key order.  The frame indices
    between them, absent or empty, are frames with zero detections, so gaps
    age tracklets.  A run of them is applied at once: every active tracklet
    takes the run's length in misses and loses its hit streak, then the
    lifecycle rules run once.  That ends where stepping each empty frame
    would: a tentative tracklet dies at its first miss, a confirmed one
    retires once its misses reach t_death.
    """
    state = TrackerState(config=cfg)
    previous = None
    for frame in sorted(f for f, dets in seq.frames.items() if dets):
        if previous is not None and frame - previous > 1:
            for track in state.active:
                track.consecutive_misses += frame - previous - 1
                track.consecutive_hits = 0
            apply_birth_death(state)
        detections = seq.frames[frame]
        step(state, frame, detections, scorer(state.active, detections))
        previous = frame
    confirmed = state.retired + [
        t for t in state.active if t.state is TrackState.CONFIRMED
    ]
    return sorted(confirmed, key=lambda t: t.id)
