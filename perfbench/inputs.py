"""Seeded benchmark inputs, each with the results the program must produce.

Every expected result here is derived from the generator's own bookkeeping
and the documented tracking rules, never by calling the program:

* association links a tracklet to the detection of the same object and to
  nothing else, because objects never overlap, drift at most a fraction of
  a pixel per frame and never appear where another object ended within
  ``t_death`` frames;
* a detection with confidence above 0.6 that no tracklet claims starts a
  tentative tracklet; a detection at or below 0.6 (clutter) is dropped;
* a tentative tracklet is confirmed after ``t_birth`` consecutive hits and
  dies on its first miss; a confirmed tracklet is retired after ``t_death``
  consecutive misses; public IDs count up in confirmation order, and the
  tracklets confirmed on one frame are ordered by their first detection's
  line in the file;
* the tracker writes each confirmed tracklet's detections back unchanged
  apart from the track ID, and KITTI floats are written with ``repr``, so
  an output line is its input line with the ID field replaced;
* CLEAR-MOT on boxes that either coincide exactly or do not overlap at all
  matches each ground-truth box to the hypothesis box equal to it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

T_BIRTH = 3
T_DEATH = 5

# Fields after the track ID; every float already in repr form.
_TAIL = "Car 0.0 0 -1.2 {l!r} {t!r} {r!r} {b!r} 1.5 1.6 3.9 2.0 1.5 30.0 -1.5"

Box = tuple  # (left, top, right, bottom)


def label_tail(box: Box, score: float | None = None) -> str:
    text = _TAIL.format(l=box[0], t=box[1], r=box[2], b=box[3])
    return text if score is None else f"{text} {score!r}"


@dataclass
class TrackingCase:
    """One tracking input and everything the program must produce from it."""

    det_lines: list[str]  # detection file, file order
    gt_lines: list[str]  # ground-truth file
    hyp_lines: list[str] | None  # evaluate hypothesis; None = the tracker output
    expected_track: list[str]  # exact tracker output file, line by line
    expected_eval: dict[str, int]  # FP, FN, IDSW, GT that evaluate must print
    frames_with_dets: int
    eval_frames: int
    dropped: int  # object detections missing from the detection file
    clutter_tails: frozenset = field(default_factory=frozenset)
    injected: dict[str, int] = field(default_factory=dict)


class _Mover:
    """A box oscillating slowly about its slot: at most 0.3 px per frame."""

    def __init__(self, rng: random.Random, x0: float, y0: float):
        self.x0, self.y0 = x0, y0
        self.w = rng.uniform(50.0, 70.0)
        self.h = rng.uniform(25.0, 35.0)
        self.ax, self.ay = rng.uniform(0.0, 15.0), rng.uniform(0.0, 8.0)
        self.wx, self.wy = rng.uniform(0.005, 0.02), rng.uniform(0.005, 0.02)
        self.px, self.py = rng.uniform(0.0, 6.3), rng.uniform(0.0, 6.3)

    def box(self, frame: int) -> Box:
        left = self.x0 + self.ax * math.sin(self.wx * frame + self.px)
        top = self.y0 + self.ay * math.sin(self.wy * frame + self.py)
        return (left, top, left + self.w, top + self.h)


# Slot pitch: widest box plus both oscillation amplitudes plus a margin.
_COL = 70.0 + 2 * 15.0 + 20.0
_ROW = 35.0 + 2 * 8.0 + 20.0


def _slot_origin(slot: int, cols: int) -> tuple[float, float]:
    return (100.0 + _COL * (slot % cols), 100.0 + _ROW * (slot // cols))


def _far_box(rng: random.Random, y_base: float) -> Box:
    """A box in a band that no object slot ever reaches."""
    left = rng.uniform(0.0, 900.0)
    top = y_base + rng.uniform(0.0, 300.0)
    return (left, top, left + rng.uniform(20.0, 60.0), top + rng.uniform(15.0, 40.0))


def expected_tracking(frames: dict[int, list[tuple[int | None, str]]],
                      t_birth: int = T_BIRTH, t_death: int = T_DEATH) -> list[str]:
    """The tracker output the gating rules imply, sorted by frame then ID.

    ``frames`` maps a frame to its detections in file order, each as
    (object key or None for clutter, line tail after the track ID).
    """
    if not frames:
        return []
    active: list[dict] = []
    confirmed: list[dict] = []
    next_id = 0
    for f in range(min(frames), max(frames) + 1):
        entries = frames.get(f, [])
        present = {obj: tail for obj, tail in entries if obj is not None}
        claimed = set()
        for tr in active:
            tail = present.get(tr["obj"])
            if tail is not None:
                tr["members"].append((f, tail))
                tr["hits"] += 1
                tr["misses"] = 0
                claimed.add(tr["obj"])
            else:
                tr["hits"] = 0
                tr["misses"] += 1
        for obj, tail in entries:
            if obj is not None and obj not in claimed:
                active.append({"obj": obj, "hits": 1, "misses": 0, "id": None,
                               "members": [(f, tail)]})
        survivors = []
        for tr in active:
            if tr["id"] is None:
                if tr["misses"] >= 1:
                    continue
                if tr["hits"] >= t_birth:
                    tr["id"] = next_id
                    next_id += 1
                    confirmed.append(tr)
                survivors.append(tr)
            elif tr["misses"] < t_death:
                survivors.append(tr)
        active = survivors
    rows = sorted((f, tr["id"], tail) for tr in confirmed for f, tail in tr["members"])
    return [f"{f} {tid} {tail}" for f, tid, tail in rows]


def exact_box_counts(gt: dict[int, dict[Box, int]],
                     hyp: dict[int, dict[Box, int]]) -> dict[str, int]:
    """CLEAR-MOT counts when boxes either coincide or do not overlap."""
    last: dict[int, int] = {}
    fp = fn = idsw = n_gt = 0
    for f in sorted(set(gt) | set(hyp)):
        g, h = gt.get(f, {}), hyp.get(f, {})
        matched = g.keys() & h.keys()
        fp += len(h) - len(matched)
        fn += len(g) - len(matched)
        n_gt += len(g)
        for box in matched:
            if g[box] in last and last[g[box]] != h[box]:
                idsw += 1
            last[g[box]] = h[box]
    return {"FP": fp, "FN": fn, "IDSW": idsw, "GT": n_gt}


def boxes_by_frame(lines: list[str]) -> dict[int, dict[Box, int]]:
    """frame -> {box: track id} read straight from KITTI text lines."""
    out: dict[int, dict[Box, int]] = {}
    for line in lines:
        fields = line.split()
        box = tuple(float(x) for x in fields[6:10])
        out.setdefault(int(fields[0]), {})[box] = int(fields[1])
    return out


def mota_text(counts: dict[str, int]) -> str:
    mota = 1.0 - (counts["FP"] + counts["FN"] + counts["IDSW"]) / counts["GT"]
    return f"{mota:.4f}"


def dense_case(seed: int, n_frames: int, n_objects: int = 40,
               swap_every: int = 8) -> TrackingCase:
    """About 40 never-overlapping objects in every frame plus clutter.

    Each object is detected with confidence in [0.7, 1) except for isolated
    one-frame drops after its track is confirmed, so every drop is one FN
    and no identity ever breaks.  Three to seven clutter boxes per frame
    carry confidence <= 0.6 in a band no object reaches.  The evaluate
    hypothesis is the ground truth with one ID swap every ``swap_every``
    frames, about 2 % of boxes dropped and zero to two far-away spurious
    boxes per frame.
    """
    rng = random.Random(f"dense-{seed}")
    cols = 8
    movers = [_Mover(rng, *_slot_origin(k, cols)) for k in range(n_objects)]
    clutter_y = 100.0 + _ROW * ((n_objects + cols - 1) // cols) + 200.0
    spurious_y = clutter_y + 600.0

    frames: dict[int, list[tuple[int | None, str]]] = {}
    det_lines, gt_lines = [], []
    clutter_tails = set()
    dropped = 0
    last_drop = {}
    for f in range(n_frames):
        entries: list[tuple[int | None, str]] = []
        for k, mover in enumerate(movers):
            box = mover.box(f)
            gt_lines.append(f"{f} {k} {label_tail(box)}")
            if f >= T_BIRTH and last_drop.get(k) != f - 1 and rng.random() < 0.03:
                last_drop[k] = f
                dropped += 1
                continue
            entries.append((k, label_tail(box, rng.uniform(0.7, 1.0))))
        for _ in range(rng.randint(3, 7)):
            tail = label_tail(_far_box(rng, clutter_y), rng.uniform(0.05, 0.6))
            clutter_tails.add(tail)
            entries.append((None, tail))
        rng.shuffle(entries)
        frames[f] = entries
        det_lines.extend(f"{f} -1 {tail}" for _, tail in entries)

    # Evaluate hypothesis: relabelled ground truth plus planted faults.
    labels = list(range(n_objects))
    hyp_lines = []
    swaps = hyp_dropped = spurious = 0
    for f in range(n_frames):
        swapped = ()
        if f > 0 and f % swap_every == 0:
            a, b = rng.sample(range(n_objects), 2)
            labels[a], labels[b] = labels[b], labels[a]
            swapped = (a, b)
            swaps += 1
        for k, mover in enumerate(movers):
            if k not in swapped and rng.random() < 0.02:
                hyp_dropped += 1
                continue
            hyp_lines.append(f"{f} {labels[k]} {label_tail(mover.box(f), 0.9)}")
        for s in range(rng.randint(0, 2)):
            spurious += 1
            hyp_lines.append(
                f"{f} {1000 + s} {label_tail(_far_box(rng, spurious_y), 0.5)}")

    injected = {"FP": spurious, "FN": hyp_dropped, "IDSW": 2 * swaps,
                "GT": n_objects * n_frames}
    expected_eval = exact_box_counts(boxes_by_frame(gt_lines), boxes_by_frame(hyp_lines))
    if expected_eval != injected:
        raise AssertionError(f"generator bookkeeping {injected} != {expected_eval}")
    return TrackingCase(
        det_lines=det_lines,
        gt_lines=gt_lines,
        hyp_lines=hyp_lines,
        expected_track=expected_tracking(frames),
        expected_eval=expected_eval,
        frames_with_dets=n_frames,
        eval_frames=n_frames,
        dropped=dropped,
        clutter_tails=frozenset(clutter_tails),
        injected=injected,
    )


# Below two live regular objects, a birth each step with these odds; extra
# objects, up to two more, arrive on a fixed schedule with a fixed life,
# as (period, step within it, life).  So the number of boxes, and with it
# the work per frame, hardly varies from seed to seed.
_REFILL_ODDS = 0.6
_EXTRA_BIRTHS = ((100, 50, 30), (200, 60, 20))


def sparse_case(seed: int, n_frames: int, n_slots: int = 10) -> TrackingCase:
    """``n_frames`` frames with one to four objects, births and deaths.

    Objects live 1 to 120 steps, so some die before confirmation; births
    keep about two alive at a time, with scheduled third and fourth
    objects, and a step with no live object leaves an empty frame index.  Each object misses one or two frames now and
    then (a short dropout), but never all live objects at once, so every
    frame with ground truth has a detection.  Sensor dropouts of 20 to 300
    frame indices carry neither detections nor ground truth.  A slot is
    reused only ``t_death + 2`` frames after its last occupant ended.
    Evaluate scores the tracker's own output.  Steps run until ``n_frames``
    frames hold detections, so every seed tracks and evaluates exactly
    ``n_frames`` frames.
    """
    rng = random.Random(f"sparse-{seed}")
    # Sensor dropouts: a fixed set of lengths from 20 to 300 frame indices
    # (so every seed walks as many empty frames) at seeded steps.
    n_gaps = max(2, n_frames // 150)
    gap_at = dict(zip(rng.sample(range(1, n_frames), n_gaps),
                      (20 + 280 * i // (n_gaps - 1) for i in range(n_gaps))))
    free_after = [-10**9] * n_slots  # first frame each slot may be reused
    alive: dict[int, dict] = {}  # object key -> state
    frames: dict[int, list[tuple[int | None, str]]] = {}
    gt_lines, det_lines = [], []
    dropped = 0
    next_obj = 0
    f = step = 0
    while len(frames) < n_frames:
        f += gap_at.get(step, 0)
        for key in list(alive):
            obj = alive[key]
            obj["life"] -= 1
            if obj["life"] <= 0:
                free_after[obj["slot"]] = f + T_DEATH + 2
                del alive[key]
        regular = sum(not o["extra"] for o in alive.values())
        lives = []  # (life, whether an extra object)
        while regular + len(lives) < 2 and rng.random() < _REFILL_ODDS:
            lives.append((rng.randint(1, 120), False))
        lives += [(life, True) for period, at, life in _EXTRA_BIRTHS if step % period == at]
        for life, extra in lives:
            slots = [s for s in range(n_slots) if free_after[s] <= f
                     and all(o["slot"] != s for o in alive.values())]
            if not slots:
                break
            slot = rng.choice(slots)
            alive[next_obj] = {
                "slot": slot,
                "mover": _Mover(rng, *_slot_origin(slot, 5)),
                "life": life,
                "extra": extra,
                "dropout": 0,
            }
            free_after[slot] = 10**9
            next_obj += 1
        hidden = set()
        for key, obj in alive.items():
            if obj["dropout"] == 0 and rng.random() < 0.04:
                obj["dropout"] = rng.randint(1, 2)
            if obj["dropout"] > 0:
                obj["dropout"] -= 1
                hidden.add(key)
        if alive and hidden == alive.keys():  # keep one live object in view
            first = min(alive)
            alive[first]["dropout"] = 0
            hidden.discard(first)
        entries = []
        for key, obj in alive.items():
            box = obj["mover"].box(f)
            gt_lines.append(f"{f} {key} {label_tail(box)}")
            if key in hidden:
                dropped += 1
            else:
                entries.append((key, label_tail(box, rng.uniform(0.7, 1.0))))
        rng.shuffle(entries)
        if entries:
            frames[f] = entries
            det_lines.extend(f"{f} -1 {tail}" for _, tail in entries)
        f += 1
        step += 1

    expected_track = expected_tracking(frames)
    gt = boxes_by_frame(gt_lines)
    eval_frames = len(set(gt) | {int(l.split()[0]) for l in expected_track})
    if eval_frames != n_frames:
        raise AssertionError(f"{eval_frames} frames to evaluate, expected {n_frames}")
    return TrackingCase(
        det_lines=det_lines,
        gt_lines=gt_lines,
        hyp_lines=None,
        expected_track=expected_track,
        expected_eval=exact_box_counts(gt, boxes_by_frame(expected_track)),
        frames_with_dets=n_frames,
        eval_frames=n_frames,
        dropped=dropped,
    )
