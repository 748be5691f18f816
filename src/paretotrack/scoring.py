"""Score families feeding the association solver.

A scorer is any callable mapping (tracklets, detections) to a ScoreSet; the
deterministic baseline below, built from 2-D box overlap and detection
confidence, is the reference implementation and the tracker's default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import box_array, iou_matrix
from .kitti_io import Detection

if TYPE_CHECKING:  # pragma: no cover
    from .tracker import Tracklet


@dataclass(frozen=True)
class ScorerConfig:
    w_iou: float = 1.0
    w_det: float = 1.0
    terminal_score: float = -0.2

    def __post_init__(self):
        for name in ("w_iou", "w_det", "terminal_score"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class ScoreSet:
    """The four score families for one adjacent frame pair (N tracklets, M detections).

    s_in(j):       gain for starting a trajectory at current detection j
    s_out(i):      gain for ending a trajectory at previous object i
    s_det_prev(i): true-positive confidence score of previous object i
    s_det_curr(j): true-positive confidence score of current detection j
    s_link(i, j):  affinity between previous object i and current detection j
    """

    def __init__(self, s_in, s_out, s_det_prev, s_det_curr, s_link):
        self.s_in = np.asarray(s_in, dtype=np.float64).reshape(-1)
        self.s_out = np.asarray(s_out, dtype=np.float64).reshape(-1)
        self.s_det_prev = np.asarray(s_det_prev, dtype=np.float64).reshape(-1)
        self.s_det_curr = np.asarray(s_det_curr, dtype=np.float64).reshape(-1)
        n, m = self.s_out.shape[0], self.s_in.shape[0]
        self.s_link = np.asarray(s_link, dtype=np.float64).reshape(n, m)
        if self.s_det_prev.shape[0] != n or self.s_det_curr.shape[0] != m:
            raise ValueError("score array lengths do not agree on (N, M)")
        for name in ("s_in", "s_out", "s_det_prev", "s_det_curr", "s_link"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains non-finite values")

    @property
    def n_prev(self) -> int:
        return self.s_out.shape[0]

    @property
    def n_curr(self) -> int:
        return self.s_in.shape[0]


def _confidences(detections: Sequence[Detection]) -> np.ndarray:
    return np.array([d.confidence for d in detections], dtype=np.float64)


def baseline_scores(
    tracklets: Sequence["Tracklet"],
    detections: Sequence[Detection],
    cfg: ScorerConfig = ScorerConfig(),
) -> ScoreSet:
    """Deterministic stand-in for a learned adjacency estimator.

    s_link(i, j) = w_iou * (2*iou - 1), where iou compares the last box of
    tracklet i with detection j.  Detection scores map confidence onto
    [-w_det, w_det]; start/end scores are a flat terminal constant.
    Affinities live in a signed range so "no evidence" sits at 0, the
    implicit value of an inactive flow flag.
    """
    prev_dets = [track.detections[-1][1] for track in tracklets]
    iou = iou_matrix(box_array(d.box for d in prev_dets),
                     box_array(d.box for d in detections))
    s_link = cfg.w_iou * (2.0 * iou - 1.0)
    s_det_prev = cfg.w_det * (2.0 * _confidences(prev_dets) - 1.0)
    s_det_curr = cfg.w_det * (2.0 * _confidences(detections) - 1.0)
    s_in = np.full(len(detections), cfg.terminal_score)
    s_out = np.full(len(tracklets), cfg.terminal_score)
    return ScoreSet(s_in, s_out, s_det_prev, s_det_curr, s_link)


class BaselineScorer:
    """Callable scorer wrapping baseline_scores for use with the tracking loop."""

    def __init__(self, cfg: ScorerConfig = ScorerConfig()):
        self.cfg = cfg

    def __call__(self, tracklets, detections) -> ScoreSet:
        return baseline_scores(tracklets, detections, cfg=self.cfg)
