"""Online tracking loop: per-frame association, ID propagation and lifecycle gating.

A detection matched to a tracklet inherits the tracklet's identity.  Unmatched
detections become tentative tracklets that must appear in t_birth consecutive
frames before they are confirmed and receive a public ID; a tentative tracklet
is discarded on its first miss.  Confirmed tracklets survive misses until they
have disappeared for t_death consecutive frames.  Tentative tracklets do take
part in association, so their hit streaks can grow.

A tracklet records only its ID and its detections, and the lifecycle is read
from them: it is tentative while its ID is None, a tentative tracklet's hit
streak is its number of detections (it dies at its first miss), and at frame
f it has missed the f - last_frame frames since its last detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .assoc import AssociationSolution, solve_exact
from .kitti_io import KittiRecord, SequenceDetections
from .scoring import ScoreSet
from .settings import AT_LEAST_1, check


@dataclass(frozen=True)
class TrackerConfig:
    t_birth: int = 3
    t_death: int = 5

    def __post_init__(self):
        check("t_birth", self.t_birth, AT_LEAST_1)
        check("t_death", self.t_death, AT_LEAST_1)


@dataclass
class Tracklet:
    """One identity: its public ID (None while tentative) and its detections in frame order."""

    id: int | None
    detections: list[tuple[int, KittiRecord]]

    @property
    def last_frame(self) -> int:
        return self.detections[-1][0]

    def append(self, frame: int, det: KittiRecord) -> None:
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


Scorer = Callable[[Sequence[Tracklet], Sequence[KittiRecord]], ScoreSet]


def step(
    state: TrackerState,
    frame: int,
    detections: Sequence[KittiRecord],
    scores: ScoreSet,
) -> tuple[TrackerState, AssociationSolution]:
    """Associate one frame of detections against the active tracklets.

    Matched pairs extend their tracklet; unmatched detections flagged as
    trajectory starts (or true positives) spawn tentative tracklets.  The
    lifecycle rules then run at this frame, where an unmatched tracklet has
    one more miss.  A frame that is not after every active tracklet's last
    frame raises ValueError and leaves the state as it was.
    """
    if scores.n_prev != len(state.active) or scores.n_curr != len(detections):
        raise ValueError(
            f"score set shaped ({scores.n_prev}, {scores.n_curr}) does not match "
            f"{len(state.active)} tracklets x {len(detections)} detections"
        )
    for track in state.active:
        last = track.detections[-1][0]
        if frame <= last:
            where = "before" if frame < last else "at"
            raise ValueError(f"frame {frame} is {where} a tracklet's last frame {last}")
    solution = solve_exact(scores)
    # every active tracklet ends before this frame, checked above
    for i, j in solution.link_pairs:
        state.active[i].detections.append((frame, detections[j]))
    # f_in is 1 only on unmatched detections; an unmatched one without it is
    # dropped as a false positive
    for j in solution.f_in.nonzero()[0].tolist():
        state.active.append(Tracklet(id=None, detections=[(frame, detections[j])]))
    apply_birth_death(state, frame)
    return state, solution


def apply_birth_death(state: TrackerState, frame: int) -> TrackerState:
    """Apply the lifecycle rules at ``frame``: confirm, discard and retire tracklets.

    At ``frame`` each active tracklet has missed every frame since its last
    detection.  A tentative tracklet with a miss is discarded, one with
    t_birth detections is confirmed with the next ID, and a confirmed
    tracklet with t_death misses is retired.  Applying the rules twice at one
    frame changes nothing.  A frame before a tracklet's last detection raises
    ValueError and leaves the state as it was.
    """
    cfg = state.config
    survivors, ripe, retiring = [], [], []
    for track in state.active:
        last = track.detections[-1][0]
        misses = frame - last
        if misses < 0:
            raise ValueError(f"frame {frame} is before a tracklet's last frame {last}")
        if track.id is None:
            if misses:
                continue  # never confirmed: a wrong detection
            if len(track.detections) >= cfg.t_birth:
                ripe.append(track)
        elif misses >= cfg.t_death:
            retiring.append(track)
            continue
        survivors.append(track)
    for track in ripe:
        track.id = state.next_id
        state.next_id += 1
    state.retired += retiring
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
    age tracklets: before a frame is scored, the lifecycle rules run once at
    the frame before it.  Misses are counted from each tracklet's last frame,
    so that ends where stepping each empty frame would, and a gap of any
    length costs the same.  After a stepped frame the rules have just run
    there, so the frame after it skips them.
    """
    state = TrackerState(config=cfg)
    stepped = None
    for frame in sorted(f for f, dets in seq.frames.items() if dets):
        if frame - 1 != stepped:
            apply_birth_death(state, frame - 1)
        stepped = frame
        detections = seq.frames[frame]
        step(state, frame, detections, scorer(state.active, detections))
    confirmed = state.retired + [t for t in state.active if t.id is not None]
    return sorted(confirmed, key=lambda t: t.id)
