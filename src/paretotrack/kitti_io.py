"""Readers and writers for KITTI tracking-format label, detection and result files.

One object per line, whitespace separated:
frame track_id type truncated occluded alpha bbox(4) dimensions(3) location(3) rotation_y [score]

17 fields for label files, 18 when a detection score is appended.  The box
and the score must be finite to read or write; the other float fields may
be inf or nan and are echoed as read.  Numbers are serialized with repr-level
precision so parse(write(x)) reproduces every field bit-for-bit.

`parse_label_line` is the grammar of one line.  `parse_sequence` reads a
whole file into typed columns instead: each field column is converted in one
pass with the same converter, and the checks run over whole columns.  Only
when a check fails does it walk the lines with the one-line grammar, so the
error names the first bad line and field exactly as that grammar does.
Detections read this way carry a `KittiRecord` view of their line, not a
`LabeledObject`.
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
_FORMAT = {
    n: " ".join({int: "%d", float: "%r", str: "%s"}[conv] for _, conv in _FIELDS[:n])
    for n in (N_LABEL_FIELDS, N_DETECTION_FIELDS)
}
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


@dataclass(frozen=True)
class LabeledObject:
    """One object record from a KITTI tracking file."""

    frame: int
    track_id: int
    class_name: str
    truncated: float
    occluded: int
    alpha: float
    bbox: Box2D
    dimensions: tuple[float, float, float]  # height, width, length (m)
    location: tuple[float, float, float]  # x, y, z in camera frame (m)
    rotation_y: float
    score: float | None = None

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"frame must be non-negative, got {self.frame}")

    def to_detection(self) -> "Detection":
        """View this record as a tracker-facing detection; absent score counts as 1.0."""
        return Detection(
            frame=self.frame,
            box=self.bbox,
            confidence=1.0 if self.score is None else self.score,
            source=self,
        )


def _field_view(k: int) -> property:
    return property(lambda self: self._columns[k][self._row])


def _fields_view(*ks: int) -> property:
    return property(lambda self: tuple(self._columns[k][self._row] for k in ks))


class KittiRecord:
    """One line of a file read by `parse_sequence`, under `LabeledObject`'s field names.

    A view into the file's typed columns, so reading a file builds no object
    per field; `lineno` is the 1-based line the record came from.
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
    def bbox(self) -> Box2D:
        return Box2D(*(column[self._row] for column in self._columns[_BOX]))

    @property
    def lineno(self) -> int:
        return self._row + 1


@dataclass(frozen=True)
class Detection:
    """A detected object in one frame, as consumed by the tracker."""

    frame: int
    box: Box2D
    confidence: float
    source: LabeledObject | KittiRecord | None = None


@dataclass
class SequenceDetections:
    """Per-frame detections of one sequence, keyed by frame index."""

    frames: dict[int, list[Detection]] = field(default_factory=dict)


def _line_values(line: str, lineno: int | None) -> list:
    """The converted fields of one line; the first bad field raises."""
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
    return values


def parse_label_line(line: str, lineno: int | None = None) -> LabeledObject:
    """Decode one label (17 fields) or detection (18 fields, trailing score) line."""
    v = _line_values(line, lineno)
    try:
        return LabeledObject(
            frame=v[0],
            track_id=v[1],
            class_name=v[2],
            truncated=v[3],
            occluded=v[4],
            alpha=v[5],
            bbox=Box2D(*v[_BOX]),
            dimensions=tuple(v[10:13]),
            location=tuple(v[13:16]),
            rotation_y=v[16],
            score=v[_SCORE] if len(v) == N_DETECTION_FIELDS else None,
        )
    except ValueError as exc:
        raise KittiFormatError(str(exc), lineno) from None


def _fields_of(obj: LabeledObject) -> tuple:
    head = (obj.frame, obj.track_id, obj.class_name, obj.truncated, obj.occluded,
            obj.alpha, obj.bbox.left, obj.bbox.top, obj.bbox.right, obj.bbox.bottom,
            *obj.dimensions, *obj.location, obj.rotation_y)
    return head if obj.score is None else head + (obj.score,)


def _format_lines(rows: Sequence[tuple]) -> list[str]:
    """Lines for rows of field values, all 17 or all 18 long.

    Each field goes through its converter (`int` or `float`) before `%d` or
    `%r`, so a line reads `str(int(v))` and `repr(float(v))` field by field.
    The first non-finite box coordinate or score raises `ValueError`.
    """
    if not rows:
        return []
    columns = [list(map(conv, column)) for (_, conv), column in zip(_FIELDS, zip(*rows))]
    finite = [k for k in _FINITE if k < len(columns)]
    if not all(map(math.isfinite, chain.from_iterable(columns[k] for k in finite))):
        row, k = next((row, k) for row in range(len(rows)) for k in finite
                      if not math.isfinite(columns[k][row]))
        raise ValueError(f"cannot write frame {columns[0][row]}, track_id {columns[1][row]}: "
                         f"field '{_FIELDS[k][0]}' is not finite: {columns[k][row]!r}")
    return list(map(_FORMAT[len(columns)].__mod__, zip(*columns)))


def format_label_line(obj: LabeledObject) -> str:
    """Serialize one record; floats use repr so the exact binary value round-trips."""
    return _format_lines([_fields_of(obj)])[0]


def parse_objects(source: Iterable[str] | IO[str]) -> list[LabeledObject]:
    """Parse every line of a stream, propagating errors with their line number."""
    out = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            raise KittiFormatError("blank line", lineno)
        out.append(parse_label_line(line, lineno))
    return out


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
        if not _convert(lines[start:start + _CHUNK], columns):
            parse_objects(lines)  # raises at the first bad line
            raise AssertionError("the column checks rejected a file the line grammar accepts")
    seq = SequenceDetections()
    frames = seq.frames
    for row, (frame, left, top, right, bottom, score) in enumerate(
            zip(columns[0], *columns[_BOX], columns[_SCORE])):
        det = Detection(frame, Box2D(left, top, right, bottom),
                        1.0 if score is None else score, KittiRecord(columns, row))
        frames.setdefault(frame, []).append(det)
    return seq


def write_objects(objs: Iterable[LabeledObject], sink: IO[str]) -> None:
    """Write one line per record; a record that cannot be written writes nothing."""
    sink.write("".join(format_label_line(obj) + "\n" for obj in objs))


# the source of a synthetic detection: devkit-style placeholders
_NO_SOURCE = LabeledObject(
    frame=0, track_id=-1, class_name="Car", truncated=-1.0, occluded=-1, alpha=-10.0,
    bbox=Box2D(0.0, 0.0, 0.0, 0.0), dimensions=(-1.0, -1.0, -1.0),
    location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0,
)


def _result_row(frame: int, track_id: int, det: Detection) -> tuple:
    """The fields of one result line: box and score from the detection, the rest
    from its source (read straight from the columns of a parsed file)."""
    src, box = det.source, det.box
    if type(src) is KittiRecord:
        c, i = src._columns, src._row
        return (frame, track_id, c[2][i], c[3][i], c[4][i], c[5][i],
                box.left, box.top, box.right, box.bottom,
                c[10][i], c[11][i], c[12][i], c[13][i], c[14][i], c[15][i], c[16][i],
                det.confidence)
    if src is None:
        src = _NO_SOURCE
    return (frame, track_id, src.class_name, src.truncated, src.occluded, src.alpha,
            box.left, box.top, box.right, box.bottom,
            *src.dimensions, *src.location, src.rotation_y, det.confidence)


def write_tracking_results(tracks: Iterable["Tracklet"], sink: IO[str]) -> None:
    """Write one line per (tracklet, frame) membership, sorted by frame then track id."""
    rows = []
    for track in tracks:
        if track.id is None or track.id < 0:
            raise ValueError("every tracklet must carry an assigned non-negative ID")
        rows += [_result_row(frame, track.id, det) for frame, det in track.detections]
    rows.sort(key=itemgetter(0, 1))
    sink.write("".join(line + "\n" for line in _format_lines(rows)))
