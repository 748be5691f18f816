import gc
import io
import math
import operator
import re
import string
import warnings
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, label_line, make_detection, slot_box
from paretotrack.cli import _frames_of
from paretotrack.geometry import iou_matrix
from paretotrack.kitti_io import (
    N_DETECTION_FIELDS,
    N_LABEL_FIELDS,
    KittiRecord,
    number_rows,
    parse_label_line,
    parse_sequence,
    write_tracking_results,
)
from paretotrack.settings import FormatError
from paretotrack.tracker import Tracklet

DEVKIT_LINE = "0 2 Car 0 0 -1.57 100.0 150.0 200.0 250.0 1.5 1.6 3.9 2.0 1.5 30.0 -1.5"


def test_parse_label_line_devkit_fields():
    values = parse_label_line(DEVKIT_LINE)
    assert values == [0, 2, "Car", 0.0, 0, -1.57, 100.0, 150.0, 200.0, 250.0,
                      1.5, 1.6, 3.9, 2.0, 1.5, 30.0, -1.5]
    assert [type(v) for v in values[:6]] == [int, int, str, float, int, float]
    (record,) = parse_sequence([DEVKIT_LINE]).frames[0]
    assert (record.frame, record.track_id) == (0, 2)
    assert record.box == (100.0, 150.0, 200.0, 250.0)
    assert record.confidence == 1.0
    assert _written_tail(record) == DEVKIT_LINE.split()[2:] + ["1.0"]


def test_parse_label_line_with_score():
    assert parse_label_line(DEVKIT_LINE + " 0.97")[-1] == 0.97
    (det,) = parse_sequence([DEVKIT_LINE + " 0.97"]).frames[0]
    assert det.confidence == 0.97
    assert _written_tail(det)[-1] == "0.97"


def test_missing_score_means_full_confidence():
    (det,) = parse_sequence([DEVKIT_LINE]).frames[0]
    assert det.confidence == 1.0


def test_parse_label_line_wrong_field_count():
    with pytest.raises(FormatError, match="16"):
        parse_label_line(" ".join(DEVKIT_LINE.split()[:16]), lineno=5)


def test_parse_label_line_names_bad_field():
    bad = DEVKIT_LINE.split()
    bad[3] = "oops"
    with pytest.raises(FormatError, match="truncated"):
        parse_label_line(" ".join(bad))


def test_unknown_class_carried_verbatim():
    line = DEVKIT_LINE.replace("Car", "HoverBike")
    assert parse_label_line(line)[2] == "HoverBike"
    (det,) = parse_sequence([line]).frames[0]
    assert _written_tail(det)[0] == "HoverBike"


def test_parse_sequence_empty_stream():
    seq = parse_sequence(io.StringIO(""))
    assert seq.frames == {}


def test_parse_sequence_grouping():
    lines = [
        label_line(0, 1, slot_box(0, 0)),
        label_line(0, 2, slot_box(1, 0)),
        label_line(3, 1, slot_box(0, 3)),
    ]
    seq = parse_sequence(iter(lines))
    assert sorted(seq.frames) == [0, 3]
    assert len(seq.frames[0]) == 2
    assert len(seq.frames[3]) == 1
    # per-frame order preserved
    assert [d.track_id for d in seq.frames[0]] == [1, 2]


def test_parse_sequence_error_cites_line():
    lines = [DEVKIT_LINE] * 4 + ["junk line"]
    with pytest.raises(FormatError, match="line 5"):
        parse_sequence(iter(lines))


def test_roundtrip_field_identical(rng):
    objs = []
    for i in range(50):
        frame = int(rng.integers(0, 20))
        box = (
            float(rng.uniform(0, 300)), float(rng.uniform(0, 100)),
            float(rng.uniform(300, 600)), float(rng.uniform(100, 400)),
        )
        objs.append((frame, i % 7, box, float(rng.uniform(0, 1))))
    seq = parse_sequence(io.StringIO("".join(label_line(*o) + "\n" for o in objs)))
    by_line = {d.lineno: (f, d.track_id, d.box, d.confidence)
               for f, dets in seq.frames.items() for d in dets}
    assert [by_line[lineno] for lineno in range(1, len(objs) + 1)] == objs


def test_write_tracking_results_empty():
    sink = io.StringIO()
    write_tracking_results([], sink)
    assert sink.getvalue() == ""


def test_write_tracking_results_two_frames_same_id():
    det0 = make_detection(0, -1, slot_box(0, 0))
    det1 = make_detection(1, -1, slot_box(0, 1))
    track = Tracklet(id=4, detections=[(0, det0), (1, det1)])
    sink = io.StringIO()
    write_tracking_results([track], sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    assert [l.split()[1] for l in lines] == ["4", "4"]
    assert [l.split()[0] for l in lines] == ["0", "1"]


def test_integer_valued_fields_are_written_as_their_types():
    # the frame and the ID as integers; a box and a score spelled as integers
    # are read as floats and written back as they were spelled
    (det,) = parse_sequence([DEVKIT_LINE.replace("100.0 150.0 200.0 250.0", "1 2 3 4")
                             + " 1"]).frames[0]
    assert det.box == (1.0, 2.0, 3.0, 4.0) and type(det.confidence) is float
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=True, detections=[(3.0, det)])], sink)
    expected = "3 1 Car 0 0 -1.57 1 2 3 4 1.5 1.6 3.9 2.0 1.5 30.0 -1.5 1\n"
    assert sink.getvalue() == expected


def test_write_tracking_results_requires_ids():
    det = make_detection(0, -1, slot_box(0, 0))
    with pytest.raises(ValueError):
        write_tracking_results([Tracklet(id=None, detections=[(0, det)])], io.StringIO())


def test_write_tracking_results_sorted_by_frame_then_id():
    tracks = []
    for tid in (3, 1):
        dets = [(f, make_detection(f, -1, slot_box(tid, f))) for f in (0, 1)]
        tracks.append(Tracklet(id=tid, detections=dets))
    sink = io.StringIO()
    write_tracking_results(tracks, sink)
    keys = [(int(l.split()[0]), int(l.split()[1])) for l in sink.getvalue().splitlines()]
    assert keys == sorted(keys)


@pytest.mark.parametrize("box,score,name,value", [
    ((0.0, 0.0, 60.0, 30.0), math.nan, "score", "nan"),
    ((0.0, 0.0, math.inf, 30.0), 0.5, "bbox_right", "inf"),
    ((-math.inf, 0.0, 60.0, 30.0), math.nan, "bbox_left", "-inf"),
])
def test_the_reader_refuses_a_box_or_score_it_could_not_write(box, score, name, value):
    # every record comes from the reader, so a non-finite box or score never
    # reaches the writer: the reader names it
    lines = [label_line(0, 1, slot_box(0, 0)), label_line(4, 9, box, score)]
    with pytest.raises(FormatError, match=re.escape(
            f"line 2: field '{name}' is not finite: '{value}'")):
        parse_sequence(lines)


def test_blank_interior_line_rejected():
    text = DEVKIT_LINE + "\n\n" + DEVKIT_LINE + "\n"
    with pytest.raises(FormatError, match="line 2"):
        parse_sequence(io.StringIO(text))


def test_write_objects_roundtrip_through_file(tmp_path):
    dets = [make_detection(f, f % 3, slot_box(f % 3, f), score=0.5) for f in range(10)]
    tracks = [Tracklet(id=d.track_id, detections=[(d.frame, d)]) for d in dets]
    path = tmp_path / "results.txt"
    with open(path, "w") as sink:
        write_tracking_results(tracks, sink)
    with open(path) as source:
        seq = parse_sequence(source)
    assert sorted(seq.frames) == list(range(10))
    for det in dets:
        (back,) = seq.frames[det.frame]
        assert back.track_id == det.track_id
        assert (back.box, back.confidence) == (det.box, det.confidence)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_coord = st.floats(-2.0 ** 510, 2.0 ** 510)  # the reader's box bound
_any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _canonical_lines(draw):
    """18-field lines spelled as results are written, sorted by frame then by ID >= 0."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        left, right = sorted((draw(_coord), draw(_coord)))
        top, bottom = sorted((draw(_coord), draw(_coord)))
        rows.append((draw(st.integers(0, 2 ** 40)), draw(st.integers(0, 2 ** 40)),
                     draw(st.text(string.ascii_letters + "_-", min_size=1, max_size=12)),
                     draw(_any_float), draw(st.integers(-1, 3)), draw(_any_float),
                     left, top, right, bottom,
                     *(draw(_any_float) for _ in range(7)), draw(_finite)))
    rows.sort(key=lambda row: row[:2])
    return ["%d %d %s %r %r %r %r %r %r %r %r %r %r %r %r %r %r %r" % row for row in rows]


@settings(max_examples=300, deadline=None)
@given(_canonical_lines())
def test_write_tracking_results_inverts_parse_sequence(lines):
    text = "".join(line + "\n" for line in lines)
    seq = parse_sequence(io.StringIO(text))
    tracks = [Tracklet(id=d.track_id, detections=[(f, d)])
              for f, dets in seq.frames.items() for d in dets]
    sink = io.StringIO()
    write_tracking_results(tracks, sink)
    assert sink.getvalue() == text


@st.composite
def _field_values(draw):
    """The typed values of one 18-field result line; the score is None for a label line."""
    left, right = sorted((draw(_coord), draw(_coord)))
    top, bottom = sorted((draw(_coord), draw(_coord)))
    return [draw(st.integers(0, 2 ** 40)), draw(st.integers(0, 2 ** 40)),
            draw(st.text(string.ascii_letters + "_-", min_size=1, max_size=12)),
            draw(_finite), draw(st.integers(-1, 3)), draw(_finite),
            left, top, right, bottom, *(draw(_finite) for _ in range(7)),
            draw(st.none() | _finite)]


@settings(max_examples=300, deadline=None)
@given(_field_values())
def test_parse_inverts_format(values):
    confidence = 1.0 if values[-1] is None else values[-1]
    line = "%d %d %s %r %d %r %r %r %r %r %r %r %r %r %r %r %r" % tuple(values[:-1])
    (det,) = parse_sequence([line if values[-1] is None else f"{line} {values[-1]!r}"]).frames[
        values[0]]
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=values[1], detections=[(values[0], det)])], sink)
    (line,) = sink.getvalue().splitlines()
    assert len(line.split()) == N_DETECTION_FIELDS
    assert parse_label_line(line) == values[:-1] + [confidence]


# every blank that str.split splits on but a canonical line never holds
_BLANKS = ("\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
           "\u2003")


@st.composite
def _result_files(draw):
    """Result files whose lines are canonical or respelled with double spaces,
    leading or trailing blanks, \\r\\n endings or any blank in _BLANKS, with
    17- and 18-field lines, a last line with no newline, or, as library callers
    pass them, no newlines at all."""
    # half the blanks are spaces, so that a line respelled with spaces alone,
    # which only the space count tells from a canonical line, is common
    blank = st.sampled_from([" ", "  "]) | st.sampled_from(_BLANKS)
    lines = []
    for k in range(draw(st.integers(1, 10))):
        frame = draw(st.integers(0, 4))
        line = label_line(frame, k, slot_box(k, frame), draw(st.sampled_from([0.1, 0.5, 0.9])))
        tokens = line.split(" ")[:draw(st.sampled_from([N_DETECTION_FIELDS, N_LABEL_FIELDS]))]
        gaps = [" "] * (len(tokens) - 1) + ["\n"]
        for respelling in draw(st.sets(st.sampled_from(["gap", "lead", "trail", "crlf"]))):
            if respelling == "gap":
                gaps[draw(st.integers(0, len(tokens) - 2))] = draw(blank).replace(" ", "  ")
            elif respelling == "lead":
                tokens[0] = draw(blank) + tokens[0]
            elif respelling == "trail":
                tokens[-1] += draw(blank)
            else:
                gaps[-1] = "\r\n"
        lines.append("".join(t + g for t, g in zip(tokens, gaps)))
    ending = draw(st.sampled_from(["every", "all but the last", "none"]))
    if ending == "all but the last":
        lines[-1] = lines[-1].rstrip("\r\n")
    elif ending == "none":
        lines = [line.rstrip("\r\n") for line in lines]
    return lines


def _split_and_join(lines: list[str], tracks) -> str:
    """The result file of `tracks` written from their records' lines: each line
    split at blanks and its tokens after the track ID joined by single spaces."""
    rows = sorted((frame, track.id, det.lineno) for track in tracks
                  for frame, det in track.detections)
    out = []
    for frame, track_id, lineno in rows:
        tail = lines[lineno - 1].split()[2:]
        tail += ["1.0"] * (N_DETECTION_FIELDS - 2 - len(tail))  # a 17-field line's score
        out.append(" ".join([str(frame), str(track_id), *tail]) + "\n")
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(_result_files(), st.sampled_from([1, 2, 3, 2048]))
def test_the_writer_gives_the_bytes_of_split_and_join(lines, chunk):
    # short chunks put canonical chunks, whose tails are sliced, next to
    # respelled ones, whose tokens are joined
    import paretotrack.kitti_io as kitti_io

    with mock.patch.object(kitti_io, "_CHUNK", chunk):
        seq = parse_sequence(lines)
        tracks = [Tracklet(id=d.lineno, detections=[(f, d)])
                  for f, dets in seq.frames.items() for d in dets]
        sink = io.StringIO()
        write_tracking_results(tracks, sink)
        assert sink.getvalue() == _split_and_join(lines, tracks)
        # a chunk is sliced exactly when each of its lines is canonical
        canonical = [len(line.split()) == N_DETECTION_FIELDS
                     and line == " ".join(line.split()) + "\n" for line in lines]
        assert seq.table.canonical() == [all(canonical[start:start + chunk])
                                         for start in range(0, len(lines), chunk)]


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
    with pytest.raises(FormatError) as info:
        parse_label_line(" ".join(fields), lineno=7)
    assert str(info.value) == f"line 7: field '{name}' is not numeric: 'oops'"
    assert info.value.lineno == 7


def test_integer_field_rejects_a_float():
    fields = DEVKIT_LINE.split()
    fields[4] = "1.5"
    with pytest.raises(FormatError,
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
    with pytest.raises(FormatError, match=f"^line 4: {reason}") as info:
        parse_sequence(io.StringIO((DEVKIT_LINE + "\n") * 3 + " ".join(fields) + "\n"))
    assert info.value.lineno == 4
    with pytest.raises(FormatError, match=f"^line 4: {reason}"):
        parse_label_line(" ".join(fields), lineno=4)


# ---------------------------------------------------------------- columnar reader

# the line positions of the fields a record holds: frame, track ID, box and score
_READ_FIELDS = (0, 1, 6, 7, 8, 9, 17)


def _record_fields(det) -> tuple:
    """A record's frame, track ID, box and confidence."""
    return (det.frame, det.track_id, *det.box, det.confidence)


def _read_fields(values: list) -> tuple:
    """The grammar's values of the fields a record holds; a 17-field line's score is 1.0."""
    values = values + [1.0] * (N_DETECTION_FIELDS - len(values))
    return tuple(values[k] for k in _READ_FIELDS)


def _written_tail(det) -> list[str]:
    """The tokens that the writer puts after a record's track ID."""
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=0, detections=[(det.frame, det)])], sink)
    return sink.getvalue().split()[2:]


def _echoed_tail(line: str) -> list[str]:
    """A line's tokens after its track ID, with the score 1.0 that a 17-field line is read with."""
    tokens = line.split()
    return tokens[2:] + ["1.0"] * (N_DETECTION_FIELDS - len(tokens))


def _same_bits(a: tuple, b: tuple) -> bool:
    """Equal field by field: ints by value and type, floats by their bits."""
    def key(v):
        return (type(v), float.hex(v) if type(v) is float else v)
    return len(a) == len(b) and all(key(x) == key(y) for x, y in zip(a, b))


def _grammar_walk(lines) -> list[list]:
    """Every line's field values by the one-line grammar; the first bad line raises."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise FormatError("blank line", lineno)
        out.append(parse_label_line(line, lineno))
    return out


def _oracle(lines):
    """parse_sequence's answer from the one-line grammar: per frame, in file order,
    each line's number, its field values and the tail it is written with."""
    frames = {}
    for lineno, (line, values) in enumerate(zip(lines, _grammar_walk(lines)), start=1):
        frames.setdefault(values[0], []).append((lineno, values, _echoed_tail(line)))
    return frames


def _assert_matches_oracle(lines):
    """Each record holds the grammar's values of its line bit for bit, in its box
    tuple and in its number row, and is written with the tokens that were read."""
    seq = parse_sequence(lines)
    expected = _oracle(lines)
    assert list(seq.frames) == list(expected)
    for frame, rows in expected.items():
        got = seq.frames[frame]
        assert len(got) == len(rows)
        for d, (lineno, values, tail) in zip(got, rows):
            assert type(d.frame) is int and d.frame == frame and d.lineno == lineno
            assert _same_bits(_record_fields(d), _read_fields(values))
            assert _written_tail(d) == tail
        assert _same_bits(tuple(number_rows(got).ravel().tolist()),
                          tuple(x for d in got for x in (*d.box, d.confidence)))
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
            with pytest.raises(FormatError) as info:
                parse()
            assert str(info.value) == f"line 1: {message}"
        return
    value = parse_label_line(line)[idx]
    if idx in _INT_FIELDS:
        assert type(value) is int and value == expected
    else:
        assert type(value) is float and float.hex(value) == expected
    (det,) = [d for dets in _assert_matches_oracle([line]).frames.values() for d in dets]
    if idx in _READ_FIELDS:
        assert _same_bits((_record_fields(det)[_READ_FIELDS.index(idx)],), (value,))
    if idx >= 2:
        assert _written_tail(det)[idx - 2] == token


def test_frames_and_ids_beyond_int64_stay_python_ints():
    big = 2 ** 63 + 1
    line = DEVKIT_LINE.replace("0 2 Car", f"{big} {-big} Car", 1)
    seq = _assert_matches_oracle([line, DEVKIT_LINE])
    assert list(seq.frames) == [big, 0]
    (det,) = seq.frames[big]
    for value in (det.frame, det.track_id, parse_label_line(line)[4]):
        assert type(value) is int
    assert (det.frame, det.track_id) == (big, -big)
    assert parse_label_line(line)[:2] == [big, -big]
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=big, detections=[(big, det)])], sink)
    assert sink.getvalue().startswith(f"{big} {big} Car ")


def test_non_finite_echo_fields_are_kept_and_written_back():
    fields = DEVKIT_LINE.split()
    fields[5], fields[10], fields[14], fields[16] = "nan", "inf", "-inf", "1e400"
    line = " ".join(fields) + " 0.5"
    (det,) = _assert_matches_oracle([line]).frames[0]
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=7, detections=[(0, det)])], sink)
    out = sink.getvalue().split()
    assert (out[5], out[10], out[14], out[16]) == ("nan", "inf", "-inf", "1e400")


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


# spellings that Python's int or float reads and np.loadtxt refuses: Unicode
# digits and an underscore between two digits
_DIGITS = {"arabic-indic": str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"),
           "fullwidth": str.maketrans("0123456789", "０１２３４５６７８９")}
_ECHO_TOKENS = ("-0.0", "0.0", "-0", "5e-324", "4.9e-324", "2.2250738585072014e-308", "1e-400",
                "1e400", "-1e400", "inf", "-inf", "Infinity", "-Infinity", "nan", "NaN", "-nan")
_BAD_TOKENS = ("#", '"', "1.0x", "0x10", "1e", "nan(1)", "1__0", "3.0")
_GAPS = (" ", "\t", "\x0b", "\x1c", "  ", " \t")


@st.composite
def _spelled_files(draw):
    """Tracking files spelled every way the line grammar reads: numbers in repr,
    %.17g and non-ASCII or underscored digits, frames and IDs beyond int64, signed
    zeros, subnormals and 1e400, inf and nan in the echoed fields, '#' and '"'
    tokens, 17- and 18-field lines, whitespace gaps that str.split splits on,
    and leading and trailing blanks; sometimes with a few bad tokens."""
    # each a file-wide choice, so that np.loadtxt can read some whole files
    spellings = draw(st.sampled_from([("ascii",)] * 2 + [("ascii",) * 3 + (*_DIGITS, "_")]))
    widths = draw(st.sampled_from([(N_LABEL_FIELDS,), (N_DETECTION_FIELDS,),
                                   (N_LABEL_FIELDS, N_DETECTION_FIELDS)]))
    beyond_int64 = draw(st.sampled_from([False, False, True]))

    def spell(token: str) -> str:
        how = draw(st.sampled_from(spellings))
        if how in _DIGITS:
            return token.translate(_DIGITS[how])
        pair = re.search(r"\d\d", token)
        return token if how == "ascii" or pair is None else (
            token[:pair.start() + 1] + "_" + token[pair.start() + 1:])

    def integer(low: int) -> str:
        values = st.integers(low, 12)
        if beyond_int64:
            big = st.integers(2 ** 63 - 2, 2 ** 65)
            values |= big if low == 0 else big | big.map(operator.neg)
        return spell(draw(st.sampled_from(["%d", "%+d", "%03d"])) % draw(values))

    def number(value: float) -> str:
        return spell(draw(st.sampled_from([repr, "%.17g".__mod__]))(value))

    def echo() -> str:
        return (draw(st.sampled_from(_ECHO_TOKENS)) if draw(st.booleans())
                else number(draw(st.floats(allow_nan=False))))

    coord = st.floats(-2.0 ** 510, 2.0 ** 510) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.0 ** 510, -2.0 ** 510])
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        left, right = sorted((draw(coord), draw(coord)))
        top, bottom = sorted((draw(coord), draw(coord)))
        tokens = [integer(0), integer(-1),
                  draw(st.sampled_from(["Car", "#", '"', 'a"b#', "DontCare"])),
                  echo(), integer(-1), echo(),
                  *map(number, (left, top, right, bottom)), *(echo() for _ in range(7)),
                  number(draw(st.floats(0, 1)))][:draw(st.sampled_from(widths))]
        lines.append(draw(st.sampled_from(["", " ", "\t\x1c"])) + draw(st.sampled_from(_GAPS)).join(
            tokens) + draw(st.sampled_from(["\n", " \n", "\x0b\n", "", "\t"])))
    for _ in range(draw(st.integers(0, 2)) * draw(st.booleans())):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        lines[at] = " ".join(tokens)
    return lines


@settings(max_examples=200, deadline=None)
@given(_spelled_files(), st.sampled_from([1, 2, 3, 2048]))
def test_every_spelling_reads_as_the_line_grammar_reads_it(lines, chunk):
    # short chunks put canonical and grammar-only chunks in one file
    import paretotrack.kitti_io as kitti_io

    with mock.patch.object(kitti_io, "_CHUNK", chunk):
        try:
            _grammar_walk(lines)
        except FormatError as expected:
            with pytest.raises(FormatError) as got:
                parse_sequence(lines)
            assert (str(got.value), got.value.lineno) == (str(expected), expected.lineno)
        else:
            _assert_matches_oracle(lines)


def test_a_chunk_that_numpy_refuses_is_read_by_the_line_grammar_alone(monkeypatch):
    import paretotrack.kitti_io as kitti_io

    walked = []

    def counting(line, lineno=None):
        walked.append(lineno)
        return parse_label_line(line, lineno)

    monkeypatch.setattr(kitti_io, "parse_label_line", counting)
    lines = [label_line(i // 50, i % 50, (i, i + 0.5, i + 10.25, i + 20.0)) + "\n"
             for i in range(5000)]
    # the second of three 2048-line chunks: an underscored token, a tab, Unicode
    # digits and a 17-field line
    lines[2100] = lines[2100].replace(" 0.0 0 -1.2 ", " 0.0 0_0 -1.2 ")
    lines[2500] = lines[2500].replace(" ", "\t", 3)
    lines[3000] = lines[3000].replace(" 30.0 ", " ٣0.0 ")
    lines[4000] = lines[4000].rsplit(" ", 1)[0] + "\n"
    seq = _assert_matches_oracle(lines)
    assert walked == list(range(2049, 4097))
    assert [d.lineno for dets in seq.frames.values() for d in dets] == list(range(1, 5001))


_FAULTS = ("fields", "number", "blank", "box", "frame", "non-finite", "huge")


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
        fields[6 + axis], fields[8 + axis] = "1e150", "-1e150"
    elif fault == "huge":
        # finite, but beyond the bound under which IoU cannot overflow
        if k % 3 == 0:
            fields[6:10] = ["-1e308", "-1e308", "1e308", "1e308"]
        else:
            at = 6 + k % 4
            fields[at] = ("-" if at < 8 else "") + ("3.4e153", "1e200")[k % 2]
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
    with pytest.raises(FormatError) as expected:
        _grammar_walk(lines)
    with pytest.raises(FormatError) as got:
        parse_sequence(lines)
    assert str(got.value) == str(expected.value)
    assert got.value.lineno == expected.value.lineno


@settings(max_examples=100, deadline=None)
@given(_kitti_lines())
def test_results_echo_the_tokens_that_were_read(lines):
    def read(lines):
        seq = parse_sequence(lines)
        return sorted((d for dets in seq.frames.values() for d in dets), key=lambda d: d.lineno)

    def write(records):
        sink = io.StringIO()
        write_tracking_results([Tracklet(id=row, detections=[(d.frame, d)])
                                for row, d in enumerate(records)], sink)
        return sink.getvalue()

    records = read(lines)
    text = write(records)
    written = {int(line.split()[1]): line for line in text.splitlines()}
    assert len(written) == len(records)
    for row, d in enumerate(records):
        assert written[row].split()[2:] == _echoed_tail(lines[row])
    back = {d.track_id: d for d in read(list(written.values()))}
    for row, d in enumerate(records):
        assert _same_bits(_record_fields(back[row]), (d.frame, row) + _record_fields(d)[2:])
    # a 17-field line is read and written as its twin with the score 1.0 appended
    twins = read([line.rstrip() + " 1.0" if len(line.split()) == N_LABEL_FIELDS else line
                  for line in lines])
    assert len(twins) == len(records)
    for d, twin in zip(records, twins):
        assert _same_bits(_record_fields(twin), _record_fields(d))
    assert write(twins) == text


def test_devkit_spellings_are_written_as_read():
    line = "0 -1 Car 0.00 0 -10.000000 1e2 +1.5 2.0E2 250 1.5 1.6 3.9 1e400 1.5 30.0 -1.5 0.90"
    (det,) = parse_sequence([line]).frames[0]
    assert det.box == (100.0, 1.5, 200.0, 250.0) and parse_label_line(line)[13] == math.inf
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=5, detections=[(0, det)])], sink)
    assert sink.getvalue() == "0 5 " + line.split(" ", 2)[2] + "\n"


@pytest.mark.parametrize("idx", range(6, 10), ids=_FIELD_NAMES[6:10])
def test_box_coordinates_are_bounded_by_2_to_the_510(idx):
    limit = 2.0 ** 510
    fields = list(_PIN_BASE)
    fields[6:10] = [repr(-limit), repr(-limit), repr(limit), repr(limit)]
    (det,) = _assert_matches_oracle([" ".join(fields)]).frames[3]
    boxes = number_rows([det, det])[:, :4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert iou_matrix(boxes, boxes).tolist() == [[1.0, 1.0], [1.0, 1.0]]
    beyond = math.nextafter(limit, math.inf)
    fields[idx] = repr(-beyond if idx < 8 else beyond)
    message = (f"line 2: field '{_FIELD_NAMES[idx]}' must be at most 2**510 in magnitude: "
               f"{fields[idx]!r}")
    for parse in (lambda: parse_label_line(" ".join(fields), 2),
                  lambda: parse_sequence([DEVKIT_LINE, " ".join(fields)])):
        with pytest.raises(FormatError) as info:
            parse()
        assert str(info.value) == message


def test_long_files_are_read_in_pieces_with_the_right_line_numbers():
    line18, line17 = DEVKIT_LINE + " 0.5", DEVKIT_LINE
    lines = [line18 if i % 3 else line17 for i in range(5000)]
    seq = _assert_matches_oracle(lines)
    assert sum(d.lineno == i + 1 for i, d in enumerate(seq.frames[0])) == 5000
    for bad in (2048, 2049, 4500):
        broken = list(lines)
        broken[bad - 1] = DEVKIT_LINE.replace("100.0", "nan")
        with pytest.raises(FormatError,
                           match=f"^line {bad}: field 'bbox_left' is not finite: 'nan'$"):
            parse_sequence(broken)


def test_every_box_survives_the_chunk_seams():
    # 5000 lines are read in three 2048-line chunks; no two lines share a box
    lines = [label_line(i // 50, i % 50, (i, i + 0.5, i + 10.25, i + 20.0), score=0.5 + i / 20000)
             for i in range(5000)]
    seq = _assert_matches_oracle(lines)
    records = [d for dets in seq.frames.values() for d in dets]
    assert [r.box for r in records] == [(i, i + 0.5, i + 10.25, i + 20.0) for i in range(5000)]
    assert number_rows(records)[:, :4].tolist() == [list(r.box) for r in records]


def test_a_bad_line_walks_only_its_own_chunk(monkeypatch):
    import paretotrack.kitti_io as kitti_io

    walked = []

    def counting(line, lineno=None):
        walked.append(lineno)
        return parse_label_line(line, lineno)

    monkeypatch.setattr(kitti_io, "parse_label_line", counting)
    lines = [DEVKIT_LINE] * 5000
    lines[4500 - 1] = DEVKIT_LINE.replace("100.0", "nan")
    with pytest.raises(FormatError,
                       match="^line 4500: field 'bbox_left' is not finite: 'nan'$"):
        parse_sequence(lines)
    assert walked == list(range(4097, 4501))


@st.composite
def _walked_files(draw):
    """Files of unsorted frames, each (frame, track ID) once, 17- and 18-field
    lines, and one line with a 0_0 token that sends its chunk to the line grammar."""
    objects = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(-1, 9)),
                            min_size=2, max_size=40, unique=True))
    lines = []
    for frame, track_id in objects:
        line = label_line(frame, track_id, draw(boxes()), score=draw(st.floats(0, 1)))
        lines.append(line.rsplit(" ", 1)[0] if draw(st.booleans()) else line)
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = lines[at].replace(" 0.0 0 -1.2 ", " 0.0 0_0 -1.2 ")
    return lines


@settings(max_examples=150, deadline=None)
@given(_walked_files(), st.sampled_from([1, 2, 3, 5]))
def test_frames_built_on_first_read_equal_the_eager_grouping(lines, chunk):
    import paretotrack.kitti_io as kitti_io

    with mock.patch.object(kitti_io, "_CHUNK", chunk):
        seq = parse_sequence(lines)
        frames_of = _frames_of(lines)
    assert 0 in seq.table.chunk_fields
    # the grouping that the reader made while reading, before frames was built on demand
    eager = {}
    for row, frame in enumerate(seq.table.frames):
        eager.setdefault(frame, []).append(KittiRecord(seq.table, row))

    def fields(records):
        return [(r.frame, r.track_id, r.box, r.confidence, r.lineno) for r in records]

    assert list(seq.frames) == list(eager)
    for frame, records in eager.items():
        assert fields(seq.frames[frame]) == fields(records)
    assert list(frames_of) == list(eager)
    assert frames_of == {f: [(r.track_id, list(r.box)) for r in recs]
                         for f, recs in seq.frames.items()}


def test_a_read_sequence_is_freed_by_reference_counting():
    # records kept on the table would make a cycle (table -> records -> table)
    # that keeps a parsed file alive until the cycle collector runs
    lines = [label_line(f, k, slot_box(k, f)) for f in range(5) for k in range(3)]
    gc.disable()
    try:
        seq = parse_sequence(lines)
        assert seq.frames[2][1].box == slot_box(1, 2)
        refs = [weakref.ref(seq), weakref.ref(seq.table.numbers)]
        del seq
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
