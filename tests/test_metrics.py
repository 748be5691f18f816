import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gt_sequence, slot_box
from paretotrack.geometry import Box2D
from paretotrack.metrics import (
    check_report_identity,
    clear_mot,
    format_report_kv,
    format_report_table,
    match_frame,
)


def _box(left, top=0.0, w=10.0, h=10.0):
    return Box2D(left, top, left + w, top + h)


def _shifted(box, dx):
    return Box2D(box.left + dx, box.top, box.right + dx, box.bottom)


def test_match_above_threshold():
    gt = [(1, _box(0))]
    hyp = [(7, _shifted(_box(0), 2.5))]  # IoU = 7.5/12.5 = 0.6
    assert match_frame(gt, hyp, {}, 0.5) == {1: 7}


def test_no_match_below_threshold():
    gt = [(1, _box(0))]
    hyp = [(7, _shifted(_box(0), 4.5))]  # IoU ~ 0.38
    assert match_frame(gt, hyp, {}, 0.5) == {}


def test_previous_correspondence_persists():
    # (g1, h1) holds at IoU 0.55 even though h2 overlaps g1 at 0.9
    g1 = _box(0)
    h1 = _shifted(g1, 2.9)  # IoU ~ 0.55
    h2 = _shifted(g1, 0.5)  # IoU ~ 0.9
    matches = match_frame([(1, g1)], [(10, h1), (20, h2)], {1: 10}, 0.5)
    assert matches[1] == 10


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        match_frame([(1, _box(0)), (1, _box(30))], [], {}, 0.5)
    with pytest.raises(ValueError):
        match_frame([], [(2, _box(0)), (2, _box(30))], {}, 0.5)


def test_threshold_validation():
    with pytest.raises(ValueError):
        match_frame([], [], {}, 0.0)


def test_match_is_max_weight():
    # greedy by first index would pick the worse pairing
    g1, g2 = _box(0), _box(8)
    h1 = _shifted(_box(0), 3)
    matches = match_frame([(1, g1), (2, g2)], [(9, h1)], {}, 0.3)
    assert matches == {1: 9}


def test_clear_mot_identical_sequences():
    gt = {0: [(1, _box(0)), (2, _box(30))], 1: [(1, _box(1)), (2, _box(31))]}
    report = clear_mot(gt, gt, 0.5)
    assert report.mota == 1.0
    assert (report.fp, report.fn, report.idsw) == (0, 0, 0)
    assert check_report_identity(report)


def test_clear_mot_one_missed_of_ten():
    gt = {0: [(i, _box(20.0 * i)) for i in range(10)]}
    hyp = {0: [(i, _box(20.0 * i)) for i in range(9)]}
    report = clear_mot(gt, hyp, 0.5)
    assert report.fn == 1 and report.fp == 0 and report.idsw == 0
    assert report.mota == 0.9


def test_clear_mot_id_switch():
    gt = {0: [(1, _box(0))], 1: [(1, _box(0))]}
    hyp = {0: [(5, _box(0))], 1: [(6, _box(0))]}
    report = clear_mot(gt, hyp, 0.5)
    assert report.idsw == 1
    assert report.gt_count == 2
    assert report.mota == 0.5


def test_clear_mot_empty_gt_flagged():
    report = clear_mot({}, {0: [(1, _box(0))]}, 0.5)
    assert report.mota is None
    assert report.fp == 1
    assert "undefined" in format_report_kv(report)


def test_clear_mot_identity_random(rng):
    for _ in range(20):
        _, gt = random_gt_sequence(rng, max_objects=6, max_frames=10)
        report = clear_mot(gt, gt, 0.5)
        assert report.mota == 1.0
        assert check_report_identity(report)


def test_fp_fn_invariant_under_hyp_relabeling(rng):
    _, gt = random_gt_sequence(rng, max_objects=5, max_frames=8)
    hyp = {f: [(tid, box) for tid, box in objs] for f, objs in gt.items()}
    base = clear_mot(gt, hyp, 0.5)
    relabeled = {
        f: [(tid + 100, box) for tid, box in objs] for f, objs in hyp.items()
    }
    shifted = clear_mot(gt, relabeled, 0.5)
    assert (base.fp, base.fn, base.idsw) == (shifted.fp, shifted.fn, shifted.idsw)


def test_idsw_detected_across_gap():
    # object matched to hyp 5, unseen for a frame, then matched to hyp 6
    gt = {0: [(1, _box(0))], 1: [], 2: [(1, _box(0))]}
    hyp = {0: [(5, _box(0))], 1: [], 2: [(6, _box(0))]}
    report = clear_mot(gt, hyp, 0.5)
    assert report.idsw == 1


def test_report_formats():
    gt = {0: [(1, _box(0))]}
    report = clear_mot(gt, gt, 0.5)
    table = format_report_table(report)
    assert "total" in table and table.count("\n") == 3
    kv = format_report_kv(report)
    assert "MOTA=1.0000" in kv
    assert "FP=0" in kv and "FN=0" in kv and "IDSW=0" in kv and "GT=1" in kv


def test_per_frame_counts_sum(rng):
    _, gt = random_gt_sequence(rng, max_objects=4, max_frames=8)
    hyp = {f: objs[:-1] for f, objs in gt.items()}  # drop one object per frame
    report = clear_mot(gt, hyp, 0.5)
    assert check_report_identity(report)
    assert report.fn == sum(fn for _, fn, _ in report.per_frame)


@st.composite
def _frame_map(draw):
    """frame -> [(id, box)]: up to 4 of 6 box slots, ids unique within a frame.

    Drawn ids are independent of slots, so maps share ids across slots (swaps);
    a frame key may hold no object, and a slot's box may be shifted sideways
    by 0, 15 or 30 pixels (IoU 1, 0.6 or 1/3 with the unshifted box).
    """
    frames = {}
    for f in draw(st.sets(st.integers(0, 9), max_size=8)):
        slots = draw(st.lists(st.integers(0, 5), unique=True, max_size=4))
        ids = draw(st.lists(st.integers(0, 5), unique=True,
                            min_size=len(slots), max_size=len(slots)))
        shifts = draw(st.lists(st.sampled_from([0.0, 15.0, 30.0]),
                               min_size=len(slots), max_size=len(slots)))
        frames[f] = [(i, _shifted(slot_box(s, f), dx))
                     for i, s, dx in zip(ids, slots, shifts)]
    return frames


@settings(max_examples=300, deadline=None)
@given(gt=_frame_map(), hyp=_frame_map(), thresh=st.sampled_from([0.3, 0.5, 0.7, 1.0]))
def test_clear_mot_counts_hold_on_independent_frame_maps(gt, hyp, thresh):
    report = clear_mot(gt, hyp, thresh)
    assert check_report_identity(report)
    hyp_total = sum(len(objs) for objs in hyp.values())
    matches = report.gt_count - report.fn
    assert matches == hyp_total - report.fp
    assert 0 <= report.idsw <= matches
