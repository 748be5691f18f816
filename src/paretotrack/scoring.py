"""Score families feeding the association solver.

A scorer is any callable mapping (tracklets, detections) to a ScoreSet; the
deterministic baseline below, built from 2-D box overlap and detection
confidence, is the reference implementation and the tracker's default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import iou_matrix
from .kitti_io import KittiRecord, number_rows
from .settings import BOUNDED, check

if TYPE_CHECKING:  # pragma: no cover
    from .tracker import Tracklet


@dataclass(frozen=True)
class ScorerConfig:
    w_iou: float = 1.0
    w_det: float = 1.0
    terminal_score: float = -0.2

    def __post_init__(self):
        for name in ("w_iou", "w_det", "terminal_score"):
            check(name, getattr(self, name), BOUNDED)

    def det_score(self, confidence):
        """The detection score of a confidence (or an array of them), in
        [-w_det, w_det] for confidences in [0, 1]."""
        return self.w_det * (2.0 * confidence - 1.0)


class ScoreSet:
    """The five score families for one adjacent frame pair (N tracklets, M detections).

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
        families = (self.s_in, self.s_out, self.s_det_prev, self.s_det_curr, self.s_link)
        # one check over all five; the walk only names the first bad family
        if not np.isfinite(np.concatenate(families, axis=None)).all():
            names = ("s_in", "s_out", "s_det_prev", "s_det_curr", "s_link")
            for name, values in zip(names, families):
                if not np.isfinite(values).all():
                    raise ValueError(f"{name} contains non-finite values")

    @property
    def n_prev(self) -> int:
        return self.s_out.shape[0]

    @property
    def n_curr(self) -> int:
        return self.s_in.shape[0]


def baseline_scores(
    tracklets: Sequence["Tracklet"],
    detections: Sequence[KittiRecord],
    cfg: ScorerConfig = ScorerConfig(),
) -> ScoreSet:
    """Deterministic stand-in for a learned adjacency estimator.

    s_link(i, j) = w_iou * (2*iou - 1), where iou compares the last box of
    tracklet i with detection j.  Detection scores map confidence onto
    [-w_det, w_det]; start/end scores are a flat terminal constant.
    Affinities live in a signed range so "no evidence" sits at 0, the
    implicit value of an inactive flow flag.
    """
    n = len(tracklets)
    # one (N + M, 5) array: the tracklets' last boxes and confidences, then
    # the detections'; rows are (left, top, right, bottom, confidence)
    rows = number_rows([track.detections[-1][1] for track in tracklets] + list(detections))
    s_link = cfg.w_iou * (2.0 * iou_matrix(rows[:n, :4], rows[n:, :4]) - 1.0)
    s_det = cfg.det_score(rows[:, 4])
    terminal = np.full(len(rows), cfg.terminal_score)
    return ScoreSet(terminal[n:], terminal[:n], s_det[:n], s_det[n:], s_link)


class BaselineScorer:
    """Callable scorer wrapping baseline_scores for use with the tracking loop."""

    def __init__(self, cfg: ScorerConfig = ScorerConfig()):
        self.cfg = cfg

    def __call__(self, tracklets, detections) -> ScoreSet:
        return baseline_scores(tracklets, detections, cfg=self.cfg)
