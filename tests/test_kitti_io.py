import io
import math
import re
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


def test_integer_valued_fields_are_written_as_their_types():
    obj = LabeledObject(frame=3.0, track_id=True, class_name="Car", truncated=0, occluded=1.0,
                        alpha=-1, bbox=Box2D(1, 2, 3, 4), dimensions=(1, 2, 3),
                        location=(4, 5, 6), rotation_y=0, score=1)
    expected = "3 1 Car 0.0 1 -1.0 1.0 2.0 3.0 4.0 1.0 2.0 3.0 4.0 5.0 6.0 0.0 1.0"
    assert format_label_line(obj) == expected
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=2, detections=[(3, obj.to_detection())])], sink)
    assert sink.getvalue() == expected.replace("3 1 Car", "3 2 Car", 1) + "\n"


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


@pytest.mark.parametrize("box,score,name,value", [
    (Box2D(0.0, 0.0, 60.0, 30.0), math.nan, "score", "nan"),
    (Box2D(0.0, 0.0, math.inf, 30.0), 0.5, "bbox_right", "inf"),
    (Box2D(-math.inf, 0.0, 60.0, 30.0), math.nan, "bbox_left", "-inf"),
])
def test_writers_refuse_a_non_finite_box_or_score(box, score, name, value):
    good = make_label(0, 1, slot_box(0, 0))
    bad = make_label(4, 9, box, score=score)

    def names(track_id):
        return re.escape(f"frame 4, track_id {track_id}: field '{name}' is not finite: {value}")

    with pytest.raises(ValueError, match=names(9)):
        format_label_line(bad)
    sink = io.StringIO()
    with pytest.raises(ValueError, match=names(9)):
        write_objects([good, bad], sink)
    tracks = [Tracklet(id=1, detections=[(0, good.to_detection())]),
              Tracklet(id=2, detections=[(4, bad.to_detection())])]
    with pytest.raises(ValueError, match=names(2)):
        write_tracking_results(tracks, sink)
    assert sink.getvalue() == ""


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


# ---------------------------------------------------------------- columnar reader

def _record_fields(src, box=None) -> tuple:
    """A record's 17 or 18 field values in line order, read by field name."""
    box = src.bbox if box is None else box
    values = (src.frame, src.track_id, src.class_name, src.truncated, src.occluded,
              src.alpha, box.left, box.top, box.right, box.bottom,
              *src.dimensions, *src.location, src.rotation_y)
    return values if src.score is None else values + (src.score,)


def _same_bits(a: tuple, b: tuple) -> bool:
    """Equal field by field: ints by value and type, floats by their bits."""
    def key(v):
        return (type(v), float.hex(v) if type(v) is float else v)
    return len(a) == len(b) and all(key(x) == key(y) for x, y in zip(a, b))


def _oracle(lines):
    """parse_sequence's answer from the one-line grammar: per frame, in file order."""
    frames = {}
    for obj in parse_objects(lines):
        frames.setdefault(obj.frame, []).append(obj.to_detection())
    return frames


def _assert_matches_oracle(lines):
    seq = parse_sequence(lines)
    expected = _oracle(lines)
    assert list(seq.frames) == list(expected)
    for frame, dets in expected.items():
        got = seq.frames[frame]
        assert len(got) == len(dets)
        for d, e in zip(got, dets):
            assert type(d.frame) is int and d.frame == e.frame == frame
            assert _same_bits((d.box.left, d.box.top, d.box.right, d.box.bottom),
                              (e.box.left, e.box.top, e.box.right, e.box.bottom))
            assert _same_bits((d.confidence,), (e.confidence,))
            assert _same_bits(_record_fields(d.source), _record_fields(e.source))
            assert d.source.score is None or _same_bits((d.source.score,), (d.confidence,))
    return seq


# a line whose box (-20, -20, 20, 20) holds every finite token below
_PIN_BASE = "3 4 Car 0.5 1 -1.25 -20 -20 20 20 1.5 1.6 3.9 2.0 1.5 30.0 -1.5 0.75".split()
_INT_FIELDS = (0, 1, 4)
_FINITE_FIELDS = (6, 7, 8, 9, 17)
_INT_PINS = {"1e400": None, "-1e400": None, "nan": None, "inf": None, "-0.0": None,
             "1_0": 10, "+1.5": None, "4.9e-324": None, "٣": 3}
_FLOAT_PINS = {"1e400": "inf", "-1e400": "-inf", "nan": "nan", "inf": "inf",
               "-0.0": "-0x0.0p+0", "1_0": "0x1.4000000000000p+3",
               "+1.5": "0x1.8000000000000p+0", "4.9e-324": "0x0.0000000000001p-1022",
               "٣": "0x1.8000000000000p+1"}


@pytest.mark.parametrize("token", list(_FLOAT_PINS))
@pytest.mark.parametrize("idx", [k for k in range(N_DETECTION_FIELDS) if k != 2],
                         ids=[n for n in _FIELD_NAMES if n != "type"])
def test_token_handling_is_pinned_per_field(idx, token):
    fields = list(_PIN_BASE)
    fields[idx] = token
    line = " ".join(fields)
    name = _FIELD_NAMES[idx]
    if idx in _INT_FIELDS:
        expected = _INT_PINS[token]
        message = None if expected is not None else f"field '{name}' is not numeric: {token!r}"
    else:
        expected = _FLOAT_PINS[token]
        message = (f"field '{name}' is not finite: {token!r}"
                   if idx in _FINITE_FIELDS and expected in ("inf", "-inf", "nan") else None)
    if message is not None:
        for parse in (lambda: parse_label_line(line, 1), lambda: parse_sequence([line])):
            with pytest.raises(KittiFormatError) as info:
                parse()
            assert str(info.value) == f"line 1: {message}"
        return
    (det,) = [d for dets in _assert_matches_oracle([line]).frames.values() for d in dets]
    value = _record_fields(det.source, det.box)[idx]
    if idx in _INT_FIELDS:
        assert type(value) is int and value == expected
    else:
        assert type(value) is float and float.hex(value) == expected


def test_frames_and_ids_beyond_int64_stay_python_ints():
    big = 2 ** 63 + 1
    line = DEVKIT_LINE.replace("0 2 Car", f"{big} {-big} Car", 1)
    seq = _assert_matches_oracle([line, DEVKIT_LINE])
    assert list(seq.frames) == [big, 0]
    (det,) = seq.frames[big]
    for value in (det.frame, det.source.frame, det.source.track_id, det.source.occluded):
        assert type(value) is int
    assert (det.frame, det.source.track_id) == (big, -big)
    assert format_label_line(parse_label_line(line)).startswith(f"{big} {-big} Car ")


def test_non_finite_echo_fields_are_kept_and_written_back():
    fields = DEVKIT_LINE.split()
    fields[5], fields[10], fields[14], fields[16] = "nan", "inf", "-inf", "1e400"
    line = " ".join(fields) + " 0.5"
    (det,) = _assert_matches_oracle([line]).frames[0]
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=7, detections=[(0, det)])], sink)
    out = sink.getvalue().split()
    assert (out[5], out[10], out[14], out[16]) == ("nan", "inf", "-inf", "inf")


_FLOAT_SPELLINGS = (repr, "{:.17g}".format, "{:e}".format, "{:+.3f}".format)


@st.composite
def _kitti_lines(draw, min_size=1, max_size=12):
    """Valid tracking lines: 17 and 18 fields mixed, frames out of order, and
    numbers in several spellings, with inf and nan outside the box and score."""
    any_float = st.floats(allow_nan=True, allow_infinity=True)
    finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
    spell = st.sampled_from(_FLOAT_SPELLINGS)

    def num(x):
        return draw(spell)(x)

    lines = []
    for _ in range(draw(st.integers(min_size, max_size))):
        left, right = sorted((draw(finite), draw(finite)))
        top, bottom = sorted((draw(finite), draw(finite)))
        fields = [str(draw(st.integers(0, 12))), str(draw(st.integers(-1, 9))),
                  draw(st.sampled_from(["Car", "Van", "Pedestrian", "DontCare"])),
                  num(draw(any_float)), str(draw(st.integers(-1, 3))), num(draw(any_float)),
                  repr(left), repr(top), repr(right), repr(bottom),
                  *(num(draw(any_float)) for _ in range(7))]
        if draw(st.booleans()):
            fields.append(num(draw(finite)))
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(sep.join(fields) + draw(st.sampled_from(["\n", " \n", ""])))
    return lines


@settings(max_examples=100, deadline=None)
@given(_kitti_lines())
def test_parse_sequence_equals_the_line_grammar(lines):
    _assert_matches_oracle(lines)


_FAULTS = ("fields", "number", "blank", "box", "frame", "non-finite")


def _inject(fields: list[str], fault: str, k: int) -> str:
    fields = list(fields)
    if len(fields) < N_LABEL_FIELDS:  # a fault is already there
        return " ".join(fields)
    if fault == "fields":
        fields = fields[:k % 17] if k % 2 else fields + ["1.0"] * (19 - len(fields) + k % 3)
        return " ".join(fields)
    if fault == "blank":
        return " " * (k % 3)
    if fault == "number":
        fields[[i for i in range(len(fields)) if i != 2][k % (len(fields) - 1)]] = "1.0x"
    elif fault == "box":
        axis = k % 2
        fields[6 + axis], fields[8 + axis] = "1e300", "-1e300"
    elif fault == "frame":
        fields[0] = str(-1 - k)
    else:
        choices = [6, 7, 8, 9] + ([17] if len(fields) == N_DETECTION_FIELDS else [])
        fields[choices[k % len(choices)]] = ("nan", "inf", "-inf", "-1e999")[k % 4]
    return " ".join(fields)


@settings(max_examples=150, deadline=None)
@given(_kitti_lines(), st.data())
def test_a_bad_line_raises_what_the_line_grammar_raises(lines, data):
    n_faults = data.draw(st.integers(1, 2))
    for _ in range(n_faults):
        at = data.draw(st.integers(0, len(lines) - 1))
        fault = data.draw(st.sampled_from(_FAULTS))
        lines[at] = _inject(lines[at].split(), fault, data.draw(st.integers(0, 50)))
    with pytest.raises(KittiFormatError) as expected:
        parse_objects(lines)
    with pytest.raises(KittiFormatError) as got:
        parse_sequence(lines)
    assert str(got.value) == str(expected.value)
    assert got.value.lineno == expected.value.lineno


def test_long_files_are_read_in_pieces_with_the_right_line_numbers():
    line18, line17 = DEVKIT_LINE + " 0.5", DEVKIT_LINE
    lines = [line18 if i % 3 else line17 for i in range(5000)]
    seq = _assert_matches_oracle(lines)
    assert sum(d.source.lineno == i + 1 for i, d in enumerate(seq.frames[0])) == 5000
    for bad in (2048, 2049, 4500):
        broken = list(lines)
        broken[bad - 1] = DEVKIT_LINE.replace("100.0", "nan")
        with pytest.raises(KittiFormatError,
                           match=f"^line {bad}: field 'bbox_left' is not finite: 'nan'$"):
            parse_sequence(broken)


def test_reading_and_writing_build_no_labeled_object_per_line(monkeypatch):
    import paretotrack.kitti_io as kitti_io

    lines = [f"{f} -1 Car 0.0 0 -1.2 {10.0 * f} 5.0 {10.0 * f + 4.0} 9.0 "
             f"1.5 1.6 3.9 2.0 1.5 30.0 -1.5 0.9" for f in range(6)]
    expected = io.StringIO()
    dets = [d for ds in _oracle(lines).values() for d in ds]
    write_tracking_results([Tracklet(id=2, detections=[(d.frame, d) for d in dets])], expected)

    def no_objects(*_args, **_kwargs):
        raise AssertionError("a LabeledObject was built")

    monkeypatch.setattr(kitti_io, "LabeledObject", no_objects)
    seq = parse_sequence(lines)
    dets = [d for ds in seq.frames.values() for d in ds]
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=2, detections=[(d.frame, d) for d in dets])], sink)
    assert sink.getvalue() == expected.getvalue()


@settings(max_examples=50, deadline=None)
@given(_kitti_lines())
def test_results_write_the_same_from_either_kind_of_source(lines):
    columnar = [d for ds in parse_sequence(lines).frames.values() for d in ds]
    objects = [d for ds in _oracle(lines).values() for d in ds]
    texts = []
    for dets in (columnar, objects):
        tracks = [Tracklet(id=i % 5, detections=[(d.frame, d)]) for i, d in enumerate(dets)]
        sink = io.StringIO()
        write_tracking_results(tracks, sink)
        texts.append(sink.getvalue())
    assert texts[0] == texts[1]
