"""Score families feeding the association solver.

A scorer is any callable mapping (tracklets, detections) to a ScoreSet; the
deterministic baseline below, built from 2-D box overlap and detection
confidence, is the reference implementation and the tracker's default.

`baseline_scores` scores one call.  On a sparse frame of two or three
detections nearly all of its cost is numpy dispatch, not arithmetic, so
`BaselineScorer` gives the same values bit for bit from fewer numpy calls: it
keeps one square block over a run of one table's rows, the link and detection
scores of every pair of them from one `link_score` call and one `det_score`
call, checks the block for finiteness once, and answers any call whose
records all lie among its rows by indexing.  Each entry is an elementwise
function of one pair of rows, so a bigger matrix gives the same bits.
BLOCK_ENTRIES bounds a block so that building one stays rare; and a dense
frame and the next one do not fit together, so dense frames keep one
`baseline_scores` call each.
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

    def link_score(self, a, b):
        """The link scores of rows a by rows b, in [-w_iou, w_iou], for
        (left, top, right, bottom, ...) rows."""
        return self.w_iou * (2.0 * iou_matrix(a[:, :4], b[:, :4]) - 1.0)


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
    s_link, s_det = cfg.link_score(rows[:n], rows[n:]), cfg.det_score(rows[:, 4])
    terminal = np.full(len(rows), cfg.terminal_score)
    return ScoreSet(terminal[n:], terminal[:n], s_det[:n], s_det[n:], s_link)


# The largest block a BaselineScorer keeps, in s_link entries (rows squared),
# so a block holds at most 64 rows.  Measured on a 2-core x86_64 host on the
# sparse benchmark input (seed 2, 800 frames of about 2.2 detections): 30 of
# the 800 frames (3.8 %) build a block, each in about 85 us, and a frame
# answered from the block spends about 6 us in scoring against 34 us in
# baseline_scores; the frame loop's 95th-percentile frame took 0.041 ms.  At
# 2048 (45 rows) 43 frames (5.4 %) built one and that p95 rose to 0.14 ms, onto
# the builds.  At 8192 (90 rows) 21 frames built one, at about 130 us each.
# A dense frame of about 45 detections and its next frame do not fit in 64
# rows, so the dense input builds none.
BLOCK_ENTRIES = 4096


class _Block:
    """s_link and det_score for every pair of a run of one table's rows,
    checked finite once.

    The rows are a call's tracklets' last rows, its detections' rows and the
    rows of the frames after it that fit.  Each entry is a function of its two
    rows alone, so any call whose records all lie among the rows is answered
    by indexing, in any order.  `place` gives the place of a table row.
    """

    def __init__(self, table, rows: list[int], cfg: ScorerConfig):
        numbers = table.numbers[rows]
        # a block may hold a frame that is not scored yet: a non-finite value
        # must not warn before its frame, where baseline_scores warns and raises
        with np.errstate(over="ignore", invalid="ignore"):
            self.s_link = cfg.link_score(numbers, numbers)
            self.s_det = cfg.det_score(numbers[:, 4])
        self.finite = bool(np.isfinite(self.s_link).all() and np.isfinite(self.s_det).all())
        self.terminal = np.full(len(rows), cfg.terminal_score)
        self.terminal.flags.writeable = False  # shared by every frame's ScoreSet
        self.table = table
        self.place = {row: i for i, row in enumerate(rows)}

    def places(self, records) -> list[int] | None:
        """The records' places among the rows; None if a record is not there."""
        places = []
        for record in records:
            place = self.place.get(record._row) if record._table is self.table else None
            if place is None:
                return None
            places.append(place)
        return places

    def scores(self, places: list[int], n: int) -> ScoreSet:
        """The scores of a call whose first n places are its tracklets'."""
        prev, curr = places[:n], places[n:]
        s_det = self.s_det[places]
        return ScoreSet._checked(self.terminal[:len(curr)], self.terminal[:n],
                                 s_det[:n], s_det[n:], self.s_link[prev][:, curr])


class BaselineScorer:
    """Callable scorer giving baseline_scores' values, for use with the tracking loop.

    When every record of a call comes from one parsed table, the scorer keeps
    one block of that table's rows, the call's rows and the rows of the frames
    after it, at most BLOCK_ENTRIES entries, and answers every later call whose
    records all lie among them by indexing.  A call with detections and a
    record outside the block builds a new one.  A call is scored by
    baseline_scores when it is too large to share a block with one more row,
    or lies outside the block and builds none (it has no detections, records
    from several tables, or a next frame that does not fit); so is every call
    while the block holds a non-finite value, which raises at the frame it
    always did.
    """

    def __init__(self, cfg: ScorerConfig = ScorerConfig()):
        self.cfg = cfg
        self._block: _Block | None = None

    def __call__(self, tracklets, detections) -> ScoreSet:
        n = len(tracklets)
        if (n + len(detections) + 1) ** 2 > BLOCK_ENTRIES:  # no block holds one more row
            return baseline_scores(tracklets, detections, cfg=self.cfg)
        records = [track.detections[-1][1] for track in tracklets] + list(detections)
        block = self._block
        places = None if block is None else block.places(records)
        if places is None and detections:
            block = self._block = self._build(records)
            places = None if block is None else block.places(records)
        if places is None or not block.finite:
            return baseline_scores(tracklets, detections, cfg=self.cfg)
        return block.scores(places, n)

    def _build(self, records) -> _Block | None:
        """The block of the records' rows and the rows of the frames after the
        last record's, or None if the records come from several tables or no
        frame fits."""
        last = records[-1]
        table = last._table
        if any(record._table is not table for record in records):
            return None
        frames, rows_of = table.rows_by_frame()
        rows = [record._row for record in records]
        start = stop = bisect_right(frames, last.frame)
        while (stop < len(frames)
               and (len(rows) + len(rows_of[frames[stop]])) ** 2 <= BLOCK_ENTRIES):
            rows += rows_of[frames[stop]]
            stop += 1
        return None if stop == start else _Block(table, rows, self.cfg)
