"""Score families feeding the association solver.

A scorer is any callable mapping (tracklets, detections) to a ScoreSet; the
deterministic baseline below, built from 2-D box overlap and detection
confidence, is the reference implementation and the tracker's default.

`baseline_scores` scores one call.  On a sparse frame of two or three
detections nearly all of its cost is numpy dispatch, not arithmetic, so
`BaselineScorer` gives the same values bit for bit from fewer numpy calls: it
scores a run of one table's frames in a block, by one `iou_matrix` call and one
`det_score` call, checks the block for finiteness once, and indexes each later
frame's five families out of it.  Each entry is an elementwise function of one
pair of rows, so a bigger matrix gives the same bits.  BLOCK_ENTRIES bounds a
block so that building one stays rare: on the sparse benchmark input 3.6 % of
frames build a block, where a bound of half the size made 5.1 % build and
moved the frame loop's 95th-percentile frame onto the builds; and once
tracklets exist a dense frame and the next one do not fit together, so dense
frames keep one `baseline_scores` call each.
"""

from __future__ import annotations

from bisect import bisect_right
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

    @classmethod
    def _checked(cls, s_in, s_out, s_det_prev, s_det_curr, s_link) -> "ScoreSet":
        """A ScoreSet of float64 arrays of agreeing shapes whose values were
        checked finite together, with no second check."""
        scores = cls.__new__(cls)
        scores.s_in, scores.s_out = s_in, s_out
        scores.s_det_prev, scores.s_det_curr, scores.s_link = s_det_prev, s_det_curr, s_link
        return scores

    @property
    def n_prev(self) -> int:
        return self.s_out.shape[0]

    @property
    def n_curr(self) -> int:
        return self.s_in.shape[0]


def _link_and_det(rows: np.ndarray, n_prev: int, n: int, cfg: ScorerConfig):
    """s_link of rows[:n_prev] by rows[n:], and the det_score of every row, for
    (left, top, right, bottom, confidence) rows."""
    s_link = cfg.w_iou * (2.0 * iou_matrix(rows[:n_prev, :4], rows[n:, :4]) - 1.0)
    return s_link, cfg.det_score(rows[:, 4])


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
    s_link, s_det = _link_and_det(rows, n, n, cfg)
    terminal = np.full(len(rows), cfg.terminal_score)
    return ScoreSet(terminal[n:], terminal[:n], s_det[:n], s_det[n:], s_link)


# The largest block a BaselineScorer keeps, in s_link entries (rows A x rows B).
# Measured on a 2-core x86_64 host on the sparse benchmark input (seed 2, 800
# frames of about 2.2 detections): at 4096 a block spans about 28 frames, so
# 3.6 % of frames build one (about 130 us, half of it a 60 x 60 iou_matrix),
# and a frame answered from the block spends about 8 us in scoring against
# 40 us in baseline_scores.  At 2048, 5.1 % of frames built one and the frame
# loop's p95 rose from 0.05 to 0.15 ms.  At 8192 a dense frame (about 45
# detections and as many tracklets) and the next one fit together, and half
# the dense frames built a block.
BLOCK_ENTRIES = 4096


class _Block:
    """s_link and det_score for a run of frames of one table, checked finite once.

    Rows A are the tracklets' last rows then every block frame's rows but the
    last frame's; rows B are every block frame's rows.  `prev` and `curr` give
    the place of a table row among rows A and rows B.
    """

    def __init__(self, table, prev_rows: list[int], curr_rows: list[int], n_prev: int,
                 cfg: ScorerConfig):
        n = len(prev_rows)
        numbers = table.numbers[prev_rows + curr_rows]
        # a block may hold a frame that is not scored yet: a non-finite value
        # must not warn before its frame, where baseline_scores warns and raises
        with np.errstate(over="ignore", invalid="ignore"):
            self.s_link, self.s_det = _link_and_det(numbers, n_prev, n, cfg)
        self.finite = bool(np.isfinite(self.s_link).all() and np.isfinite(self.s_det).all())
        self.s_det_curr = self.s_det[n:]
        self.terminal = np.full(max(n_prev, len(curr_rows)), cfg.terminal_score)
        self.terminal.flags.writeable = False  # shared by every frame's ScoreSet
        self.table = table
        self.prev = {row: i for i, row in enumerate(prev_rows + curr_rows[:n_prev - n])}
        self.curr = {row: j for j, row in enumerate(curr_rows)}

    def places(self, tracklets, detections) -> tuple[list[int], list[int]] | None:
        """The places of the tracklets' last records among rows A and of the
        detections among rows B; None if a record is not there."""
        prev = self._find([track.detections[-1][1] for track in tracklets], self.prev)
        curr = None if prev is None else self._find(detections, self.curr)
        return None if curr is None else (prev, curr)

    def _find(self, records, place_of: dict[int, int]) -> list[int] | None:
        places = []
        for record in records:
            place = place_of.get(record._row) if record._table is self.table else None
            if place is None:
                return None
            places.append(place)
        return places

    def scores(self, prev: list[int], curr: list[int]) -> ScoreSet:
        return ScoreSet._checked(self.terminal[:len(curr)], self.terminal[:len(prev)],
                                 self.s_det[prev], self.s_det_curr[curr],
                                 self.s_link[prev][:, curr])


class BaselineScorer:
    """Callable scorer giving baseline_scores' values, for use with the tracking loop.

    When every record of a call comes from one parsed table, the scorer scores
    the call's frame and the table's frames after it in one block of at most
    BLOCK_ENTRIES links, and answers later calls from the block by indexing.
    A call with a record outside the block builds a new one.  A call without
    detections, with records from several tables, or whose next frame would
    not fit in a block, is scored by baseline_scores; so is every call while
    the block holds a non-finite value, which raises at the frame it always did.
    """

    def __init__(self, cfg: ScorerConfig = ScorerConfig()):
        self.cfg = cfg
        self._block: _Block | None = None

    def __call__(self, tracklets, detections) -> ScoreSet:
        block = self._block
        places = None if block is None else block.places(tracklets, detections)
        if places is None:
            block = self._block = self._build(tracklets, detections)
            places = None if block is None else block.places(tracklets, detections)
        if places is None or not block.finite:
            return baseline_scores(tracklets, detections, cfg=self.cfg)
        return block.scores(*places)

    def _build(self, tracklets, detections) -> _Block | None:
        """The block of this call's frame and the frames after it, or None."""
        # a frame of s rows joins while (rows A) x (rows B) stays in bounds;
        # rows A are then the tracklets and the rows B had before it.  With
        # s >= 1, no frame joins when even one row would not fit.
        n, n_curr = len(tracklets), len(detections)
        if not detections or (n + n_curr) * (n_curr + 1) > BLOCK_ENTRIES:
            return None
        table = detections[0]._table
        frames, rows = table.rows_by_frame()
        start = stop = bisect_right(frames, detections[0].frame)
        last = n_curr
        while stop < len(frames):
            s = len(rows[frames[stop]])
            if (n + n_curr) * (n_curr + s) > BLOCK_ENTRIES:
                break
            n_curr += s
            last = s
            stop += 1
        if stop == start:
            return None
        prev = [track.detections[-1][1] for track in tracklets]
        if any(record._table is not table for record in prev + list(detections)):
            return None
        curr_rows = [det._row for det in detections]
        for frame in frames[start:stop]:
            curr_rows += rows[frame]
        return _Block(table, [record._row for record in prev], curr_rows,
                      n + n_curr - last, self.cfg)
