"""Readers and writers for KITTI tracking-format label, detection and result files.

One object per line, whitespace separated:
frame track_id type truncated occluded alpha bbox(4) dimensions(3) location(3) rotation_y [score]

17 fields for label files, 18 when a detection score is appended.  The box
and the score must be finite to read or write; the other float fields may
be inf or nan and are echoed as read.  Numbers are serialized with repr-level
precision so parse(write(x)) reproduces every field bit-for-bit.

`parse_sequence` reads a whole file into typed columns: each field column is
converted in one pass, and the checks run over whole columns.  Each
`Detection` it makes carries a `KittiRecord`, the one record type: a view of
its line in those columns.  `write_tracking_results` writes result lines from
the same columns.  `parse_label_line` is the grammar of one line, as a list of
field values.  The reader walks the lines of a chunk that fails the column
checks with it, so the error names the first bad line and field exactly as
that grammar does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter, le
from typing import IO, TYPE_CHECKING, Iterable, Sequence

from .geometry import Box2D

if TYPE_CHECKING:  # pragma: no cover
    from .tracker import Tracklet

N_LABEL_FIELDS = 17
N_DETECTION_FIELDS = 18

# (name, converter) per field, in line order; one table for reading and writing
_FIELDS = (
    ("frame", int), ("track_id", int), ("type", str), ("truncated", float),
    ("occluded", int), ("alpha", float),
    ("bbox_left", float), ("bbox_top", float), ("bbox_right", float), ("bbox_bottom", float),
    ("height", float), ("width", float), ("length", float),
    ("x", float), ("y", float), ("z", float), ("rotation_y", float), ("score", float),
)
_BOX = slice(6, 10)
_SCORE = 17
_FINITE = (6, 7, 8, 9, _SCORE)  # the box and the score
_FORMAT = " ".join({int: "%d", float: "%r", str: "%s"}[conv] for _, conv in _FIELDS)
# lines converted per column pass; bounds the token lists alive at once
_CHUNK = 2048


class KittiFormatError(ValueError):
    """A line that does not follow the tracking-file grammar."""

    def __init__(self, message: str, lineno: int | None = None):
        self.reason = message
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def _field_view(k: int) -> property:
    return property(lambda self: self._columns[k][self._row])


def _fields_view(*ks: int) -> property:
    return property(lambda self: tuple(self._columns[k][self._row] for k in ks))


class KittiRecord:
    """One line of a file read by `parse_sequence`, field by field.

    A view into the file's typed columns, so reading a file builds no object
    per field; `score` is None on a 17-field line, and `lineno` is the 1-based
    line the record came from.  The line's box is its `Detection.box`.
    """

    __slots__ = ("_columns", "_row")

    def __init__(self, columns: tuple[list, ...], row: int):
        self._columns = columns
        self._row = row

    frame = _field_view(0)
    track_id = _field_view(1)
    class_name = _field_view(2)
    truncated = _field_view(3)
    occluded = _field_view(4)
    alpha = _field_view(5)
    dimensions = _fields_view(10, 11, 12)
    location = _fields_view(13, 14, 15)
    rotation_y = _field_view(16)
    score = _field_view(_SCORE)

    @property
    def lineno(self) -> int:
        return self._row + 1


@dataclass(frozen=True)
class Detection:
    """A detected object in one frame, as consumed by the tracker.

    Its frame is the key it is filed under in `SequenceDetections.frames`.
    """

    box: Box2D
    confidence: float
    source: KittiRecord


@dataclass
class SequenceDetections:
    """Per-frame detections of one sequence, keyed by frame index."""

    frames: dict[int, list[Detection]] = field(default_factory=dict)


def parse_label_line(line: str, lineno: int | None = None) -> list:
    """The typed field values of one label (17 fields) or detection (18 fields,
    trailing score) line, in line order; the first fault raises."""
    tokens = line.split()
    if len(tokens) not in (N_LABEL_FIELDS, N_DETECTION_FIELDS):
        raise KittiFormatError(
            f"expected {N_LABEL_FIELDS} or {N_DETECTION_FIELDS} fields, got {len(tokens)}",
            lineno,
        )
    values = []
    for k, ((name, conv), token) in enumerate(zip(_FIELDS, tokens)):
        try:
            value = conv(token)
        except ValueError:
            raise KittiFormatError(f"field '{name}' is not numeric: {token!r}", lineno) from None
        if k in _FINITE and not math.isfinite(value):
            raise KittiFormatError(f"field '{name}' is not finite: {token!r}", lineno)
        values.append(value)
    try:
        Box2D(*values[_BOX])
    except ValueError as exc:
        raise KittiFormatError(str(exc), lineno) from None
    if values[0] < 0:
        raise KittiFormatError(f"frame must be non-negative, got {values[0]}", lineno)
    return values


def _format_lines(rows: Sequence[tuple]) -> list[str]:
    """Result lines for rows of 18 field values.

    Each field goes through its converter (`int` or `float`) before `%d` or
    `%r`, so a line reads `str(int(v))` and `repr(float(v))` field by field.
    The first non-finite box coordinate or score raises `ValueError`.
    """
    if not rows:
        return []
    columns = [list(map(conv, column)) for (_, conv), column in zip(_FIELDS, zip(*rows))]
    if not all(map(math.isfinite, chain.from_iterable(columns[k] for k in _FINITE))):
        row, k = next((row, k) for row in range(len(rows)) for k in _FINITE
                      if not math.isfinite(columns[k][row]))
        raise ValueError(f"cannot write frame {columns[0][row]}, track_id {columns[1][row]}: "
                         f"field '{_FIELDS[k][0]}' is not finite: {columns[k][row]!r}")
    return list(map(_FORMAT.__mod__, zip(*columns)))


def _convert(lines: Sequence[str], columns: tuple[list, ...]) -> bool:
    """Append the typed fields of ``lines`` to ``columns``; False if any line is bad."""
    rows = [line.split() for line in lines]
    widths = set(map(len, rows))
    if not widths <= {N_LABEL_FIELDS, N_DETECTION_FIELDS}:
        return False
    try:
        # zip stops at 17 fields unless every line has 18
        typed = [list(map(conv, tokens)) for (_, conv), tokens in zip(_FIELDS, zip(*rows))]
        if len(typed) == N_LABEL_FIELDS:
            typed.append([float(r[_SCORE]) if len(r) == N_DETECTION_FIELDS else None
                          for r in rows])
    except ValueError:
        return False
    frame, (left, top, right, bottom), score = typed[0], typed[_BOX], typed[_SCORE]
    if widths != {N_DETECTION_FIELDS}:
        score = [s for s in score if s is not None]
    if not (min(frame) >= 0
            and all(map(math.isfinite, chain(left, top, right, bottom, score)))
            and all(map(le, left, right)) and all(map(le, top, bottom))):
        return False
    for column, values in zip(columns, typed):
        column.extend(values)
    return True


def parse_sequence(source: Iterable[str] | IO[str]) -> SequenceDetections:
    """Group a stream of records into per-frame detections, keeping per-frame order."""
    lines = list(source)
    columns = tuple([] for _ in _FIELDS)
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start:start + _CHUNK]
        if not _convert(chunk, columns):
            # earlier chunks passed, so the first bad line is in this one
            for lineno, line in enumerate(chunk, start=start + 1):
                if not line.strip():
                    raise KittiFormatError("blank line", lineno)
                parse_label_line(line, lineno)
            raise AssertionError("the column checks rejected a chunk the line grammar accepts")
    seq = SequenceDetections()
    frames = seq.frames
    for row, (frame, left, top, right, bottom, score) in enumerate(
            zip(columns[0], *columns[_BOX], columns[_SCORE])):
        det = Detection(Box2D(left, top, right, bottom),
                        1.0 if score is None else score, KittiRecord(columns, row))
        frames.setdefault(frame, []).append(det)
    return seq


def _result_row(frame: int, track_id: int, det: Detection) -> tuple:
    """The fields of one result line: box and score from the detection, the rest
    read straight from the columns of its source's file."""
    c, i, box = det.source._columns, det.source._row, det.box
    return (frame, track_id, c[2][i], c[3][i], c[4][i], c[5][i],
            box.left, box.top, box.right, box.bottom,
            c[10][i], c[11][i], c[12][i], c[13][i], c[14][i], c[15][i], c[16][i],
            det.confidence)


def write_tracking_results(tracks: Iterable["Tracklet"], sink: IO[str]) -> None:
    """Write one line per (tracklet, frame) membership, sorted by frame then track id."""
    rows = []
    for track in tracks:
        if track.id is None or track.id < 0:
            raise ValueError("every tracklet must carry an assigned non-negative ID")
        rows += [_result_row(frame, track.id, det) for frame, det in track.detections]
    rows.sort(key=itemgetter(0, 1))
    sink.write("".join(line + "\n" for line in _format_lines(rows)))
