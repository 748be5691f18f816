import io
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_label, slot_box
from paretotrack.geometry import Box2D
from paretotrack.kitti_io import (
    N_DETECTION_FIELDS,
    N_LABEL_FIELDS,
    KittiFormatError,
    LabeledObject,
    format_label_line,
    parse_label_line,
    parse_objects,
    parse_sequence,
    write_objects,
    write_tracking_results,
)
from paretotrack.tracker import Tracklet, TrackState

DEVKIT_LINE = "0 2 Car 0 0 -1.57 100.0 150.0 200.0 250.0 1.5 1.6 3.9 2.0 1.5 30.0 -1.5"


def test_parse_label_line_devkit_fields():
    obj = parse_label_line(DEVKIT_LINE)
    assert obj.frame == 0
    assert obj.track_id == 2
    assert obj.class_name == "Car"
    assert obj.truncated == 0.0
    assert obj.occluded == 0
    assert obj.alpha == -1.57
    assert obj.bbox == Box2D(100.0, 150.0, 200.0, 250.0)
    assert obj.dimensions == (1.5, 1.6, 3.9)
    assert obj.location == (2.0, 1.5, 30.0)
    assert obj.rotation_y == -1.5
    assert obj.score is None


def test_parse_label_line_with_score():
    obj = parse_label_line(DEVKIT_LINE + " 0.97")
    assert obj.score == 0.97
    assert obj.to_detection().confidence == 0.97


def test_missing_score_means_full_confidence():
    assert parse_label_line(DEVKIT_LINE).to_detection().confidence == 1.0


def test_parse_label_line_wrong_field_count():
    with pytest.raises(KittiFormatError, match="16"):
        parse_label_line(" ".join(DEVKIT_LINE.split()[:16]), lineno=5)


def test_parse_label_line_names_bad_field():
    bad = DEVKIT_LINE.split()
    bad[3] = "oops"
    with pytest.raises(KittiFormatError, match="truncated"):
        parse_label_line(" ".join(bad))


def test_unknown_class_carried_verbatim():
    line = DEVKIT_LINE.replace("Car", "HoverBike")
    assert parse_label_line(line).class_name == "HoverBike"


def test_parse_sequence_empty_stream():
    seq = parse_sequence(io.StringIO(""))
    assert seq.frames == {}


def test_parse_sequence_grouping():
    lines = [
        format_label_line(make_label(0, 1, slot_box(0, 0))),
        format_label_line(make_label(0, 2, slot_box(1, 0))),
        format_label_line(make_label(3, 1, slot_box(0, 3))),
    ]
    seq = parse_sequence(iter(lines))
    assert sorted(seq.frames) == [0, 3]
    assert len(seq.frames[0]) == 2
    assert len(seq.frames[3]) == 1
    # per-frame order preserved
    assert [d.source.track_id for d in seq.frames[0]] == [1, 2]


def test_parse_sequence_error_cites_line():
    lines = [DEVKIT_LINE] * 4 + ["junk line"]
    with pytest.raises(KittiFormatError, match="line 5"):
        parse_sequence(iter(lines))


def test_roundtrip_field_identical(rng):
    objs = []
    for i in range(50):
        frame = int(rng.integers(0, 20))
        box = Box2D(
            float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
            float(rng.uniform(300, 600)), float(rng.uniform(100, 400)),
        )
        objs.append(make_label(frame, i % 7, box, score=float(rng.uniform(0, 1))))
    text = "".join(format_label_line(o) + "\n" for o in objs)
    parsed = parse_objects(io.StringIO(text))
    assert parsed == objs
    again = "".join(format_label_line(o) + "\n" for o in parsed)
    assert again == text


def test_write_tracking_results_empty():
    sink = io.StringIO()
    write_tracking_results([], sink)
    assert sink.getvalue() == ""


def test_write_tracking_results_two_frames_same_id():
    det0 = make_label(0, -1, slot_box(0, 0)).to_detection()
    det1 = make_label(1, -1, slot_box(0, 1)).to_detection()
    track = Tracklet(id=4, detections=[(0, det0), (1, det1)],
                     state=TrackState.CONFIRMED)
    sink = io.StringIO()
    write_tracking_results([track], sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    assert [l.split()[1] for l in lines] == ["4", "4"]
    assert [l.split()[0] for l in lines] == ["0", "1"]


def test_write_tracking_results_requires_ids():
    det = make_label(0, -1, slot_box(0, 0)).to_detection()
    with pytest.raises(ValueError):
        write_tracking_results([Tracklet(id=None, detections=[(0, det)])], io.StringIO())


def test_write_tracking_results_sorted_by_frame_then_id():
    tracks = []
    for tid in (3, 1):
        dets = [(f, make_label(f, -1, slot_box(tid, f)).to_detection()) for f in (0, 1)]
        tracks.append(Tracklet(id=tid, detections=dets, state=TrackState.CONFIRMED))
    sink = io.StringIO()
    write_tracking_results(tracks, sink)
    keys = [(int(l.split()[0]), int(l.split()[1])) for l in sink.getvalue().splitlines()]
    assert keys == sorted(keys)


def test_blank_interior_line_rejected():
    text = DEVKIT_LINE + "\n\n" + DEVKIT_LINE + "\n"
    with pytest.raises(KittiFormatError, match="line 2"):
        parse_objects(io.StringIO(text))


def test_write_objects_roundtrip_through_file(tmp_path):
    objs = [make_label(f, f % 3, slot_box(f % 3, f), score=0.5) for f in range(10)]
    path = tmp_path / "labels.txt"
    with open(path, "w") as sink:
        write_objects(objs, sink)
    with open(path) as source:
        assert parse_objects(source) == objs


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _labeled_objects(draw):
    left, right = sorted((draw(_finite), draw(_finite)))
    top, bottom = sorted((draw(_finite), draw(_finite)))
    return LabeledObject(
        frame=draw(st.integers(0, 2 ** 40)),
        track_id=draw(st.integers(-1, 2 ** 40)),
        class_name=draw(st.text(string.ascii_letters + "_-", min_size=1, max_size=12)),
        truncated=draw(_finite),
        occluded=draw(st.integers(-1, 3)),
        alpha=draw(_finite),
        bbox=Box2D(left, top, right, bottom),
        dimensions=(draw(_finite), draw(_finite), draw(_finite)),
        location=(draw(_finite), draw(_finite), draw(_finite)),
        rotation_y=draw(_finite),
        score=draw(st.none() | _finite),  # None: 17 fields, else 18
    )


@settings(max_examples=300, deadline=None)
@given(_labeled_objects())
def test_parse_inverts_format(obj):
    line = format_label_line(obj)
    assert len(line.split()) == (N_LABEL_FIELDS if obj.score is None else N_DETECTION_FIELDS)
    assert parse_label_line(line) == obj


_FIELD_NAMES = ("frame", "track_id", "type", "truncated", "occluded", "alpha",
                "bbox_left", "bbox_top", "bbox_right", "bbox_bottom",
                "height", "width", "length", "x", "y", "z", "rotation_y", "score")


@pytest.mark.parametrize("n_fields,idx,name", [
    (n_fields, idx, name)
    for n_fields in (N_LABEL_FIELDS, N_DETECTION_FIELDS)
    for idx, name in enumerate(_FIELD_NAMES[:n_fields]) if name != "type"
])
def test_bad_number_names_the_first_bad_field(n_fields, idx, name):
    fields = (DEVKIT_LINE + " 0.97").split()[:n_fields]
    fields[idx] = "oops"
    if idx < n_fields - 1:
        fields[-1] = "later"  # a second bad field; the first one is named
    with pytest.raises(KittiFormatError) as info:
        parse_label_line(" ".join(fields), lineno=7)
    assert str(info.value) == f"line 7: field '{name}' is not numeric: 'oops'"
    assert info.value.lineno == 7


def test_integer_field_rejects_a_float():
    fields = DEVKIT_LINE.split()
    fields[4] = "1.5"
    with pytest.raises(KittiFormatError,
                       match=r"^line 3: field 'occluded' is not numeric: '1.5'$"):
        parse_label_line(" ".join(fields), lineno=3)


@pytest.mark.parametrize("edit,reason", [
    ((6, "300.0"), "invalid box extents"),  # left > right
    ((7, "260.0"), "invalid box extents"),  # top > bottom
    ((0, "-1"), "frame must be non-negative"),
])
def test_bad_record_names_its_line(edit, reason):
    fields = DEVKIT_LINE.split()
    fields[edit[0]] = edit[1]
    with pytest.raises(KittiFormatError, match=f"^line 4: {reason}") as info:
        parse_objects(io.StringIO((DEVKIT_LINE + "\n") * 3 + " ".join(fields) + "\n"))
    assert info.value.lineno == 4
