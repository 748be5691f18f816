"""Readers and writers for KITTI tracking-format label, detection and result files.

One object per line, whitespace separated:
frame track_id type truncated occluded alpha bbox(4) dimensions(3) location(3) rotation_y [score]

17 fields for label files, 18 when a detection score is appended.  The box
and the score must be finite, and each box coordinate at most 2**510 in
magnitude (`settings.BOUNDED`), so that no width, height, area or sum of two
areas overflows; the other float fields may be inf or nan.

`parse_sequence` reads a whole file a chunk of lines at a time, converting
each field column in one pass and checking whole columns, and makes one
`KittiRecord` per line.  A record holds what the program reads of its line:
the frame, the track ID, the box, the confidence (the score, or 1.0 on a
17-field line) and the line number.  The other columns are converted and
checked like these, then dropped.
`write_tracking_results` writes a result line as the frame, the track ID and
the line's tokens after its track ID as they were read, joined by single
spaces; so a number is written as it was spelled, and parse(write(x))
reproduces every field bit for bit.  `parse_label_line` is the grammar of one
line, as a list of all its field values; a bad line raises
`settings.FormatError` with its line number.  The reader walks the lines of a
chunk that fails the column checks with it, so the error names the first bad
line and field exactly as that grammar does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter, le
from typing import IO, TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .settings import BOUNDED, MAGNITUDE_LIMIT, FormatError

if TYPE_CHECKING:  # pragma: no cover
    from .tracker import Tracklet

N_LABEL_FIELDS = 17
N_DETECTION_FIELDS = 18

# (name, converter) per field, in line order
_FIELDS = (
    ("frame", int), ("track_id", int), ("type", str), ("truncated", float),
    ("occluded", int), ("alpha", float),
    ("bbox_left", float), ("bbox_top", float), ("bbox_right", float), ("bbox_bottom", float),
    ("height", float), ("width", float), ("length", float),
    ("x", float), ("y", float), ("z", float), ("rotation_y", float), ("score", float),
)
_BOX = slice(6, 10)
_SCORE = 17
_COORDS = (6, 7, 8, 9)
_FINITE = (*_COORDS, _SCORE)  # the box and the score
# lines converted per column pass; bounds the token lists alive at once
_CHUNK = 2048


class _Table:
    """One file as read: the frame, track ID and confidence of each line, its
    box tuple, its result tail (its tokens after the track ID) and a (rows, 5)
    array of box and confidence."""

    __slots__ = ("frames", "track_ids", "confidences", "boxes", "tails", "numbers")

    def __init__(self):
        self.frames: list[int] = []
        self.track_ids: list[int] = []
        self.confidences: list[float] = []
        self.boxes: list[tuple[float, float, float, float]] = []
        self.tails: list[str] = []


class KittiRecord:
    """One line of a file read by `parse_sequence`, as a view into its table.

    `box` is the (left, top, right, bottom) tuple; `confidence` is the score,
    1.0 on a 17-field line; `lineno` is the 1-based line the record came from.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: _Table, row: int):
        self._table = table
        self._row = row

    frame = property(lambda self: self._table.frames[self._row])
    track_id = property(lambda self: self._table.track_ids[self._row])
    box = property(lambda self: self._table.boxes[self._row])
    confidence = property(lambda self: self._table.confidences[self._row])

    @property
    def lineno(self) -> int:
        return self._row + 1


def number_rows(records: Sequence[KittiRecord]) -> np.ndarray:
    """The records' (left, top, right, bottom, confidence) rows, shape (len, 5)."""
    if records and all(r._table is records[0]._table for r in records):
        return records[0]._table.numbers[[r._row for r in records]]
    return np.array([r._table.numbers[r._row] for r in records]).reshape(-1, 5)


@dataclass
class SequenceDetections:
    """Per-frame records of one sequence, keyed by frame index."""

    frames: dict[int, list[KittiRecord]] = field(default_factory=dict)


def parse_label_line(line: str, lineno: int | None = None) -> list:
    """The typed field values of one label (17 fields) or detection (18 fields,
    trailing score) line, in line order; the first fault raises."""
    tokens = line.split()
    if len(tokens) not in (N_LABEL_FIELDS, N_DETECTION_FIELDS):
        raise FormatError(f"expected {N_LABEL_FIELDS} or {N_DETECTION_FIELDS} fields, "
                          f"got {len(tokens)}", lineno)
    values = []
    for k, ((name, conv), token) in enumerate(zip(_FIELDS, tokens)):
        try:
            value = conv(token)
        except ValueError:
            raise FormatError(f"field '{name}' is not numeric: {token!r}", lineno) from None
        if k in _FINITE and not math.isfinite(value):
            raise FormatError(f"field '{name}' is not finite: {token!r}", lineno)
        if k in _COORDS and not BOUNDED.holds(value):
            raise FormatError(f"field '{name}' must be {BOUNDED.text}: {token!r}", lineno)
        values.append(value)
    left, top, right, bottom = values[_BOX]
    if not (left <= right and top <= bottom):
        raise FormatError(f"invalid box extents: ({left}, {top}, {right}, {bottom})", lineno)
    if values[0] < 0:
        raise FormatError(f"frame must be non-negative, got {values[0]}", lineno)
    return values


def _convert(lines: Sequence[str], table: _Table) -> np.ndarray | None:
    """Append the records of ``lines`` to ``table`` and return their (lines, 5) box
    and confidence rows; None if any line is bad.  Every field column is converted
    and checked, and those that no record reads are dropped."""
    rows = [line.split() for line in lines]
    widths = set(map(len, rows))
    if not widths <= {N_LABEL_FIELDS, N_DETECTION_FIELDS}:
        return None
    try:
        # zip stops at 17 fields unless every line has 18
        typed = [list(map(conv, tokens)) for (_, conv), tokens in zip(_FIELDS, zip(*rows))]
        if len(typed) == N_LABEL_FIELDS:
            typed.append([float(r[_SCORE]) if len(r) == N_DETECTION_FIELDS else 1.0
                          for r in rows])
    except ValueError:
        return None
    frame, track_id, (left, top, right, bottom), score = (
        typed[0], typed[1], typed[_BOX], typed[_SCORE])
    # abs(x) <= limit is False for inf and nan too
    if not (min(frame) >= 0
            and all(map(MAGNITUDE_LIMIT.__ge__, map(abs, chain(left, top, right, bottom))))
            and all(map(math.isfinite, score))
            and all(map(le, left, right)) and all(map(le, top, bottom))):
        return None
    table.frames += frame
    table.track_ids += track_id
    table.confidences += score
    table.boxes += zip(left, top, right, bottom)
    # a 17-field line is written with the score 1.0 it is read with
    table.tails += [" ".join(r[2:] if len(r) == N_DETECTION_FIELDS else r[2:] + ["1.0"])
                    for r in rows]
    return np.array([left, top, right, bottom, score], dtype=np.float64).T


def parse_sequence(source: Iterable[str] | IO[str]) -> SequenceDetections:
    """Group a stream of records into per-frame records, keeping per-frame order."""
    lines = list(source)
    table = _Table()
    numbers = [np.empty((0, 5))]
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start:start + _CHUNK]
        numbers.append(_convert(chunk, table))
        if numbers[-1] is None:
            # earlier chunks passed, so the first bad line is in this one
            for lineno, line in enumerate(chunk, start=start + 1):
                if not line.strip():
                    raise FormatError("blank line", lineno)
                parse_label_line(line, lineno)
            raise AssertionError("the column checks rejected a chunk the line grammar accepts")
    table.numbers = np.concatenate(numbers)
    seq = SequenceDetections()
    frames = seq.frames
    for row, frame in enumerate(table.frames):
        frames.setdefault(frame, []).append(KittiRecord(table, row))
    return seq


def write_tracking_results(tracks: Iterable["Tracklet"], sink: IO[str]) -> None:
    """Write one line per (tracklet, frame) membership, sorted by frame then track id:
    the frame, the track ID and the record's tokens after its track ID."""
    rows = []
    for track in tracks:
        if track.id is None or track.id < 0:
            raise ValueError("every tracklet must carry an assigned non-negative ID")
        rows += [(frame, track.id, det._table.tails[det._row]) for frame, det in track.detections]
    rows.sort(key=itemgetter(0, 1))
    sink.write("".join(map("%d %d %s\n".__mod__, rows)))
