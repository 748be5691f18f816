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
all its field values, which reads the chunk or raises `settings.FormatError`
for its first bad line; either way every value has the grammar's bits.  A
record holds what the program reads of its line: the frame, the track ID, the
box, the confidence (the score, or 1.0 on a 17-field line) and the line number.
The records are built, frame by frame, on the first read of
`SequenceDetections.frames`, so `evaluate`, which reads the table's columns,
builds none; a record's box tuple and confidence are read from the table's
number array each time they are asked for, which `track` never does.
`write_tracking_results` writes a result line as the frame, the track ID and
the line's tokens after its track ID, so a number is written as it was
spelled, and parse(write(x)) reproduces every field bit for bit.  A line that
is already canonical (18 fields, one space between fields, no other
whitespace and a closing newline) gives its tail by one slice; any other line
is split and its tokens joined by single spaces.  Whether a chunk's lines are
canonical is decided for the whole chunk the first time the writer asks, so
reading a file does not pay for it.
"""

from __future__ import annotations

import math
import warnings
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
    """One file as read: the frame and track ID of each line, the line itself,
    a (rows, 5) array of box and confidence, and the field count of each
    `chunk`-line chunk as numpy read it (0 for a chunk that the grammar
    walked)."""

    __slots__ = ("frames", "track_ids", "lines", "numbers", "chunk", "chunk_fields",
                 "_canonical", "_rows_by_frame")

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.chunk = _CHUNK
        self.frames, self.track_ids, self.chunk_fields = [], [], []
        self._canonical = self._rows_by_frame = None

    def canonical(self) -> list[bool]:
        """Whether each chunk's lines are all canonical, so that a line's tokens
        after its track ID are the line after its second space; decided on the
        first call and kept.  Only the writer asks."""
        if self._canonical is None:
            self._canonical = [
                n == N_DETECTION_FIELDS and _canonical(self.lines[start:start + self.chunk])
                for start, n in zip(range(0, len(self.lines), self.chunk), self.chunk_fields)]
        return self._canonical

    def rows_by_frame(self) -> tuple[list[int], dict[int, list[int]]]:
        """The file's frames in increasing order, and each frame's rows in line
        order; built on the first call and kept.  A scorer, `evaluate` and the
        first read of `SequenceDetections.frames` ask for them, so reading a
        file does not pay for them."""
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
    box = property(lambda self: tuple(self._table.numbers[self._row, :4].tolist()))
    confidence = property(lambda self: self._table.numbers[self._row, 4].item())

    @property
    def lineno(self) -> int:
        return self._row + 1


def number_rows(records: Sequence[KittiRecord]) -> np.ndarray:
    """The records' (left, top, right, bottom, confidence) rows, shape (len, 5)."""
    if records and all(r._table is records[0]._table for r in records):
        return records[0]._table.numbers[[r._row for r in records]]
    return np.array([r._table.numbers[r._row] for r in records]).reshape(-1, 5)


class SequenceDetections:
    """Per-frame records of one sequence, keyed by frame index, and the table
    of the file they were read from.  A parsed file's records are built from
    the table's rows by frame on the first read of `frames` and kept here,
    never on the table, so that no reference cycle keeps a file alive."""

    def __init__(self, table: _Table | None = None):
        self._frames = None
        self.table = table

    @property
    def frames(self) -> dict[int, list[KittiRecord]]:
        """Each frame's records in line order, frames in the order first seen."""
        if self._frames is None:
            self._frames = {} if self.table is None else {
                frame: [KittiRecord(self.table, row) for row in rows]
                for frame, rows in self.table.rows_by_frame()[1].items()}
        return self._frames


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


def _canonical(chunk: list[str]) -> bool:
    """Whether every line of a chunk that numpy read with 18 fields has one space
    between fields, no other whitespace and a closing newline.  numpy refuses a
    newline inside a line, and each line has at least 17 separators, so the
    counts over the whole chunk decide it for every line."""
    text = "".join(chunk)
    n = len(chunk)
    # str.split() also splits at \x85, \xa0 and other non-ASCII spaces
    return (text.isascii() and not any(c in text for c in "\t\r\x0b\x0c\x1c\x1d\x1e\x1f")
            and text.count(" ") == (N_DETECTION_FIELDS - 1) * n and text.count("\n") == n)


def _read_chunk(chunk: list[str], start: int) -> tuple[list[int], list[int], np.ndarray, int]:
    """The frames, the track IDs, the (lines, 5) box and confidence rows and the
    field count of ``chunk``, whose first line is line ``start + 1``: read by one
    `np.loadtxt` call and checked by whole columns, or walked with the line
    grammar (field count 0) if numpy refuses a line or a check fails."""
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
    return rows["frame"].tolist(), rows["track_id"].tolist(), numbers, len(dtype)


def _walk(chunk: list[str], start: int) -> tuple[list[int], list[int], np.ndarray, int]:
    """`_read_chunk`'s answer from the line grammar's values; the first bad line raises."""
    values = []
    for lineno, line in enumerate(chunk, start=start + 1):
        if not line.strip():
            raise FormatError("blank line", lineno)
        values.append(parse_label_line(line, lineno) + [1.0])  # a 17-field line's score
    return ([v[0] for v in values], [v[1] for v in values],
            np.array([v[_BOX] + [v[_SCORE]] for v in values], dtype=np.float64), 0)


def parse_sequence(source: Iterable[str] | IO[str]) -> SequenceDetections:
    """Read and check a stream of lines into one table; the per-frame records
    are built from it on the first read of `frames`."""
    table = _Table(list(source))
    lines, chunk = table.lines, table.chunk
    numbers = [np.empty((0, 5))]
    # the chunks before a walked chunk passed, so its first bad line is the file's
    for start in range(0, len(lines), chunk):
        frames, track_ids, rows, n_fields = _read_chunk(lines[start:start + chunk], start)
        table.frames += frames
        table.track_ids += track_ids
        table.chunk_fields.append(n_fields)
        numbers.append(rows)
    table.numbers = np.concatenate(numbers)
    return SequenceDetections(table=table)


def write_tracking_results(tracks: Iterable["Tracklet"], sink: IO[str]) -> None:
    """Write one line per (tracklet, frame) membership, sorted by frame then track id:
    the frame, the track ID and the record's tokens after its track ID, joined
    by single spaces."""
    rows = []
    for track in tracks:
        if track.id is None or track.id < 0:
            raise ValueError("every tracklet must carry an assigned non-negative ID")
        rows += [(frame, track.id, det) for frame, det in track.detections]
    rows.sort(key=itemgetter(0, 1))
    written = []
    table = None
    for frame, track_id, det in rows:
        if det._table is not table:  # a run of one table's records asks it once
            table = det._table
            lines, chunk, canonical = table.lines, table.chunk, table.canonical()
        line = lines[det._row]
        if canonical[det._row // chunk]:
            written.append("%d %d %s" % (frame, track_id, line.split(" ", 2)[2]))
            continue
        tokens = line.split()
        # a 17-field line is written with the score 1.0 it is read with
        tail = tokens[2:] if len(tokens) == N_DETECTION_FIELDS else tokens[2:] + ["1.0"]
        written.append("%d %d %s\n" % (frame, track_id, " ".join(tail)))
    sink.write("".join(written))
