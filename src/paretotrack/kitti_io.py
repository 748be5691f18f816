"""Readers and writers for KITTI tracking-format label, detection and result files.

One object per line, whitespace separated:
frame track_id type truncated occluded alpha bbox(4) dimensions(3) location(3) rotation_y [score]

17 fields for label files, 18 when a detection score is appended.  The box
and the score must be finite, and each box coordinate at most 2**510 in
magnitude (`settings.BOUNDED`), so that no width, height, area or sum of two
areas overflows; the other float fields may be inf or nan.

`parse_sequence` reads a file 2048 lines at a time, each chunk by one
`np.loadtxt` call checked by whole columns.  A chunk that numpy refuses (`1_0`,
Unicode digits, ints beyond int64, 17- and 18-field lines mixed) or that fails
a check is walked with `parse_label_line`, the grammar of one line as a list of
all its field values, which builds its records or raises `settings.FormatError`
for its first bad line; either way every value has the grammar's bits.  A
record holds what the program reads of its line: the frame, the track ID, the
box, the confidence (the score, or 1.0 on a 17-field line) and the line number.
`write_tracking_results` writes a result line as the frame, the track ID and
the line's tokens after its track ID, joined by single spaces only for the
lines it writes; so a number is written as it was spelled, and
parse(write(x)) reproduces every field bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
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
# lines read per np.loadtxt call; bounds the arrays alive at once
_CHUNK = 2048
# the row of a 17- and of an 18-field line for np.loadtxt; no record reads the
# type, so one character of it is kept
_DTYPES = {n: np.dtype([(name, {int: "i8", float: "f8", str: "U1"}[conv])
                        for name, conv in _FIELDS[:n]])
           for n in (N_LABEL_FIELDS, N_DETECTION_FIELDS)}


class _Table:
    """One file as read: the frame, track ID and confidence of each line, its
    box tuple, the line itself and a (rows, 5) array of box and confidence."""

    __slots__ = ("frames", "track_ids", "confidences", "boxes", "lines", "numbers",
                 "_rows_by_frame")

    def rows_by_frame(self) -> tuple[list[int], dict[int, list[int]]]:
        """The file's frames in increasing order, and each frame's rows in line
        order; built on the first call and kept.  Only a scorer asks for them,
        so reading a file does not pay for them."""
        if self._rows_by_frame is None:
            rows = {}
            for row, frame in enumerate(self.frames):
                rows.setdefault(frame, []).append(row)
            self._rows_by_frame = (sorted(rows), rows)
        return self._rows_by_frame


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
    """Per-frame records of one sequence, keyed by frame index, and the table
    of the file they were read from."""

    frames: dict[int, list[KittiRecord]] = field(default_factory=dict)
    table: _Table | None = None


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


def _read_chunk(chunk: list[str], start: int) -> tuple[list[int], list[int], np.ndarray]:
    """The frames, the track IDs and the (lines, 5) box and confidence rows of
    ``chunk``, whose first line is line ``start + 1``: read by one `np.loadtxt` call
    and checked by whole columns, or walked with the line grammar if numpy refuses
    a line or a check fails."""
    try:
        dtype = _DTYPES[len(chunk[0].split())]
        with warnings.catch_warnings():  # older numpy reads '3.0' as an int, with this warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(chunk, dtype=dtype, comments=None, ndmin=1)
    except (KeyError, ValueError, DeprecationWarning):
        return _walk(chunk, start)
    score = rows["score"] if len(dtype) == N_DETECTION_FIELDS else np.ones(len(rows))
    numbers = np.column_stack([rows[name] for name in dtype.names[_BOX]] + [score])
    left, top, right, bottom = numbers.T[:4]
    # numpy skips blank lines; abs(x) <= limit is False for inf and nan too
    if not (len(rows) == len(chunk) and rows["frame"].min() >= 0
            and (np.abs(numbers[:, :4]) <= MAGNITUDE_LIMIT).all() and np.isfinite(score).all()
            and (left <= right).all() and (top <= bottom).all()):
        return _walk(chunk, start)
    return rows["frame"].tolist(), rows["track_id"].tolist(), numbers


def _walk(chunk: list[str], start: int) -> tuple[list[int], list[int], np.ndarray]:
    """`_read_chunk`'s answer from the line grammar's values; the first bad line raises."""
    values = []
    for lineno, line in enumerate(chunk, start=start + 1):
        if not line.strip():
            raise FormatError("blank line", lineno)
        values.append(parse_label_line(line, lineno) + [1.0])  # a 17-field line's score
    return ([v[0] for v in values], [v[1] for v in values],
            np.array([v[_BOX] + [v[_SCORE]] for v in values], dtype=np.float64))


def parse_sequence(source: Iterable[str] | IO[str]) -> SequenceDetections:
    """Group a stream of records into per-frame records, keeping per-frame order."""
    table = _Table()
    table._rows_by_frame = None
    table.lines = lines = list(source)
    table.frames, table.track_ids, table.confidences, table.boxes = [], [], [], []
    numbers = [np.empty((0, 5))]
    # the chunks before a walked chunk passed, so its first bad line is the file's
    for start in range(0, len(lines), _CHUNK):
        frames, track_ids, rows = _read_chunk(lines[start:start + _CHUNK], start)
        table.frames += frames
        table.track_ids += track_ids
        table.confidences += rows[:, 4].tolist()
        table.boxes += map(tuple, rows[:, :4].tolist())
        numbers.append(rows)
    table.numbers = np.concatenate(numbers)
    seq = SequenceDetections(table=table)
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
        rows += [(frame, track.id, det) for frame, det in track.detections]
    rows.sort(key=itemgetter(0, 1))
    written = []
    for frame, track_id, det in rows:
        tokens = det._table.lines[det._row].split()
        # a 17-field line is written with the score 1.0 it is read with
        tail = tokens[2:] if len(tokens) == N_DETECTION_FIELDS else tokens[2:] + ["1.0"]
        written.append("%d %d %s\n" % (frame, track_id, " ".join(tail)))
    sink.write("".join(written))
