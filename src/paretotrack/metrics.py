"""CLEAR-MOT evaluation: MOTA, false positives/negatives and identity switches.

Correspondences persist across frames: a ground-truth/hypothesis pair from the
previous frame is kept while its IoU stays above the threshold, even when a
better partner appears, and only the remainder is re-matched by max-weight
bipartite matching on IoU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .geometry import Box2D, box_array, iou_2d, iou_matrix
from .matching import positive_matching

FrameObjects = Sequence[tuple[int, Box2D]]


@dataclass
class MotReport:
    mota: float | None  # None when there is no ground truth to score against
    fp: int
    fn: int
    idsw: int
    gt_count: int
    frames: list[int]
    per_frame: list[tuple[int, int, int]]  # (fp, fn, idsw) per frame


def match_frame(
    gt: FrameObjects,
    hyp: FrameObjects,
    prev: Mapping[int, int],
    thresh: float = 0.5,
) -> dict[int, int]:
    """Correspond one frame's ground truth to hypotheses; returns gt_id -> hyp_id."""
    if not 0.0 < thresh <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {thresh}")
    gt_map = dict(gt)
    hyp_map = dict(hyp)
    if len(gt_map) != len(gt):
        raise ValueError("duplicate ground-truth IDs in frame")
    if len(hyp_map) != len(hyp):
        raise ValueError("duplicate hypothesis IDs in frame")

    matches: dict[int, int] = {}
    for g, h in prev.items():
        if g in gt_map and h in hyp_map and h not in matches.values():
            if iou_2d(gt_map[g], hyp_map[h]) >= thresh:
                matches[g] = h

    rest_gt = [g for g, _ in gt if g not in matches]
    rest_hyp = [h for h, _ in hyp if h not in matches.values()]
    if rest_gt and rest_hyp:
        iou = iou_matrix(box_array(gt_map[g] for g in rest_gt),
                         box_array(hyp_map[h] for h in rest_hyp))
        gain = np.where(iou >= thresh, iou, 0.0)
        for a, b in positive_matching(gain):
            matches[rest_gt[a]] = rest_hyp[b]
    return matches


def clear_mot(
    gt_frames: Mapping[int, FrameObjects],
    hyp_frames: Mapping[int, FrameObjects],
    thresh: float = 0.5,
) -> MotReport:
    """Accumulate CLEAR-MOT counts over frame-aligned sequences.

    FP counts unmatched hypotheses, FN unmatched ground truth, and IDSW every
    matched ground-truth object whose hypothesis ID differs from the last
    hypothesis it was ever matched to.  MOTA = 1 - (FP + FN + IDSW) / GT.
    """
    if not 0.0 < thresh <= 1.0:  # checked here too, for sequences with no frames
        raise ValueError(f"threshold must be in (0, 1], got {thresh}")
    frames = sorted(set(gt_frames) | set(hyp_frames))
    prev: dict[int, int] = {}
    last_hyp: dict[int, int] = {}
    fp = fn = idsw = gt_count = 0
    per_frame = []
    for f in frames:
        gt = gt_frames.get(f, [])
        hyp = hyp_frames.get(f, [])
        matches = match_frame(gt, hyp, prev, thresh)
        frame_fp = len(hyp) - len(matches)
        frame_fn = len(gt) - len(matches)
        frame_idsw = 0
        for g, h in matches.items():
            if g in last_hyp and last_hyp[g] != h:
                frame_idsw += 1
            last_hyp[g] = h
        fp += frame_fp
        fn += frame_fn
        idsw += frame_idsw
        gt_count += len(gt)
        per_frame.append((frame_fp, frame_fn, frame_idsw))
        prev = matches
    mota = 1.0 - (fp + fn + idsw) / gt_count if gt_count > 0 else None
    return MotReport(
        mota=mota,
        fp=fp,
        fn=fn,
        idsw=idsw,
        gt_count=gt_count,
        frames=frames,
        per_frame=per_frame,
    )


def format_report_table(report: MotReport) -> str:
    """Aligned-column rendering, one row per frame plus a totals row."""
    header = f"{'frame':>8} {'fp':>6} {'fn':>6} {'idsw':>6}"
    rows = [header]
    for f, (fp, fn, idsw) in zip(report.frames, report.per_frame):
        rows.append(f"{f:>8} {fp:>6} {fn:>6} {idsw:>6}")
    rows.append(f"{'total':>8} {report.fp:>6} {report.fn:>6} {report.idsw:>6}")
    return "\n".join(rows) + "\n"


def format_report_kv(report: MotReport) -> str:
    """Machine-readable key=value lines."""
    mota = "undefined" if report.mota is None else f"{report.mota:.4f}"
    lines = [
        f"MOTA={mota}",
        f"FP={report.fp}",
        f"FN={report.fn}",
        f"IDSW={report.idsw}",
        f"GT={report.gt_count}",
    ]
    return "\n".join(lines) + "\n"


def check_report_identity(report: MotReport) -> bool:
    """The MOTA identity and per-frame count sums, as a self-check predicate."""
    sums = tuple(map(sum, zip(*report.per_frame))) if report.per_frame else (0, 0, 0)
    if sums != (report.fp, report.fn, report.idsw):
        return False
    if report.gt_count == 0:
        return report.mota is None
    expected = 1.0 - (report.fp + report.fn + report.idsw) / report.gt_count
    return report.mota == expected
