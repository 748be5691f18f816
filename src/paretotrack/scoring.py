"""Score families feeding the association solver, plus feature correlation/fusion.

Feature vectors are plain 1D float arrays of a fixed dimension D.  A scorer is
any callable mapping (tracklets, detections) to a ScoreSet; the deterministic
geometric/appearance baseline below is the reference implementation.
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
    w_app: float = 1.0
    w_det: float = 1.0
    terminal_score: float = -0.2

    def __post_init__(self):
        for name in ("w_iou", "w_app", "w_det", "terminal_score"):
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

    @classmethod
    def empty(cls, n_prev: int = 0, n_curr: int = 0) -> "ScoreSet":
        return cls(
            np.zeros(n_curr), np.zeros(n_prev), np.zeros(n_prev), np.zeros(n_curr),
            np.zeros((n_prev, n_curr)),
        )


def _check_dims(vectors: Sequence[np.ndarray]) -> int:
    dims = {np.asarray(v).shape for v in vectors}
    if len(dims) > 1:
        raise ValueError(f"feature dimension mismatch: {sorted(dims)}")
    (shape,) = dims or {(0,)}
    if len(shape) != 1:
        raise ValueError(f"feature vectors must be 1D, got shape {shape}")
    return shape[0]


def correlation_features(prev: Sequence[np.ndarray], curr: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise absolute differences, shape (N, M, D)."""
    if len(prev) == 0 or len(curr) == 0:
        d = _check_dims(list(prev) + list(curr)) if (len(prev) + len(curr)) else 0
        return np.zeros((len(prev), len(curr), d))
    d = _check_dims(list(prev) + list(curr))
    p = np.asarray(prev, dtype=np.float64).reshape(len(prev), d)
    c = np.asarray(curr, dtype=np.float64).reshape(len(curr), d)
    return np.abs(p[:, None, :] - c[None, :, :])


def fuse_features(image_feat: np.ndarray, lidar_feat: np.ndarray) -> np.ndarray:
    """Elementwise sum of the two modality features."""
    a = np.asarray(image_feat, dtype=np.float64)
    b = np.asarray(lidar_feat, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"feature dimension mismatch: {a.shape} vs {b.shape}")
    return a + b


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm.

    The denominator is sqrt(dot(a,a) * dot(b,b)), which is exact for equal
    inputs, so identical features score exactly 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"feature dimension mismatch: {a.shape} vs {b.shape}")
    aa, bb = float(np.dot(a, a)), float(np.dot(b, b))
    if aa == 0.0 or bb == 0.0:
        return 0.0
    return float(np.dot(a, b) / math.sqrt(aa * bb))


def _confidences(detections: Sequence[Detection]) -> np.ndarray:
    return np.array([d.confidence for d in detections], dtype=np.float64)


def baseline_scores(
    tracklets: Sequence["Tracklet"],
    detections: Sequence[Detection],
    features: tuple[Sequence[np.ndarray], Sequence[np.ndarray]] | None = None,
    cfg: ScorerConfig = ScorerConfig(),
) -> ScoreSet:
    """Deterministic stand-in for a learned adjacency estimator.

    s_link(i, j) = w_iou * (2*iou - 1) + w_app * cosine(f_i, f_j); the
    appearance term is 0 when no features are supplied.  Detection scores map
    confidence onto [-w_det, w_det]; start/end scores are a flat terminal
    constant.  Affinities live in a signed range so "no evidence" sits at 0,
    the implicit value of an inactive flow flag.
    """
    n, m = len(tracklets), len(detections)
    if features is not None:
        prev_feats, curr_feats = features
        if len(prev_feats) != n or len(curr_feats) != m:
            raise ValueError("feature lists must pair up with tracklets/detections")
    prev_dets = [track.detections[-1][1] for track in tracklets]
    iou = iou_matrix(box_array(d.box for d in prev_dets),
                     box_array(d.box for d in detections))
    s_link = cfg.w_iou * (2.0 * iou - 1.0)
    if features is not None:
        for i in range(n):
            for j in range(m):
                s_link[i, j] += cfg.w_app * cosine_similarity(prev_feats[i], curr_feats[j])
    s_det_prev = cfg.w_det * (2.0 * _confidences(prev_dets) - 1.0)
    s_det_curr = cfg.w_det * (2.0 * _confidences(detections) - 1.0)
    s_in = np.full(m, cfg.terminal_score)
    s_out = np.full(n, cfg.terminal_score)
    return ScoreSet(s_in, s_out, s_det_prev, s_det_curr, s_link)


class BaselineScorer:
    """Callable scorer wrapping baseline_scores for use with the tracking loop."""

    def __init__(self, cfg: ScorerConfig = ScorerConfig()):
        self.cfg = cfg

    def __call__(self, tracklets, detections) -> ScoreSet:
        return baseline_scores(tracklets, detections, features=None, cfg=self.cfg)
