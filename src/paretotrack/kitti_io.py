"""Readers and writers for KITTI tracking-format label, detection and result files.

One object per line, whitespace separated:
frame track_id type truncated occluded alpha bbox(4) dimensions(3) location(3) rotation_y [score]

17 fields for label files, 18 when a detection score is appended.  Numbers are
serialized with repr-level precision so parse(write(x)) reproduces every field
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Iterable

from .geometry import Box2D

if TYPE_CHECKING:  # pragma: no cover
    from .tracker import Tracklet

N_LABEL_FIELDS = 17
N_DETECTION_FIELDS = 18

_FIELD_NAMES = (
    "frame", "track_id", "type", "truncated", "occluded", "alpha",
    "bbox_left", "bbox_top", "bbox_right", "bbox_bottom",
    "height", "width", "length", "x", "y", "z", "rotation_y", "score",
)


class KittiFormatError(ValueError):
    """A line that does not follow the tracking-file grammar."""

    def __init__(self, message: str, lineno: int | None = None):
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


@dataclass(frozen=True)
class Detection:
    """A detected object in one frame, as consumed by the tracker."""

    frame: int
    box: Box2D
    confidence: float
    source: LabeledObject | None = None


@dataclass
class SequenceDetections:
    """Per-frame detections of one sequence, keyed by frame index."""

    sequence_id: str = ""
    frames: dict[int, list[Detection]] = field(default_factory=dict)

    def n_objects(self) -> int:
        return sum(len(v) for v in self.frames.values())


def _num(fields: list[str], idx: int, conv, lineno: int | None):
    try:
        return conv(fields[idx])
    except ValueError:
        raise KittiFormatError(
            f"field '{_FIELD_NAMES[idx]}' is not numeric: {fields[idx]!r}", lineno
        ) from None


def parse_label_line(line: str, lineno: int | None = None) -> LabeledObject:
    """Decode one label (17 fields) or detection (18 fields, trailing score) line."""
    fields = line.split()
    if len(fields) not in (N_LABEL_FIELDS, N_DETECTION_FIELDS):
        raise KittiFormatError(
            f"expected {N_LABEL_FIELDS} or {N_DETECTION_FIELDS} fields, got {len(fields)}",
            lineno,
        )
    try:
        frame, track_id = int(fields[0]), int(fields[1])
        truncated, occluded = float(fields[3]), int(fields[4])
        # alpha, bbox (4), dimensions (3), location (3), rotation_y [, score]
        nums = list(map(float, fields[5:]))
    except ValueError:
        # walk the fields one by one so the error names the first bad one
        for idx in range(len(fields)):
            if idx != 2:  # type is free text
                _num(fields, idx, int if idx in (0, 1, 4) else float, lineno)
        raise
    try:
        return LabeledObject(
            frame=frame,
            track_id=track_id,
            class_name=fields[2],
            truncated=truncated,
            occluded=occluded,
            alpha=nums[0],
            bbox=Box2D(*nums[1:5]),
            dimensions=tuple(nums[5:8]),
            location=tuple(nums[8:11]),
            rotation_y=nums[11],
            score=nums[12] if len(fields) == N_DETECTION_FIELDS else None,
        )
    except ValueError as exc:
        raise KittiFormatError(str(exc), lineno) from None


def format_label_line(obj: LabeledObject) -> str:
    """Serialize one record; floats use repr so the exact binary value round-trips."""
    fields = [
        str(int(obj.frame)),
        str(int(obj.track_id)),
        obj.class_name,
        repr(float(obj.truncated)),
        str(int(obj.occluded)),
        repr(float(obj.alpha)),
        repr(float(obj.bbox.left)),
        repr(float(obj.bbox.top)),
        repr(float(obj.bbox.right)),
        repr(float(obj.bbox.bottom)),
        repr(float(obj.dimensions[0])),
        repr(float(obj.dimensions[1])),
        repr(float(obj.dimensions[2])),
        repr(float(obj.location[0])),
        repr(float(obj.location[1])),
        repr(float(obj.location[2])),
        repr(float(obj.rotation_y)),
    ]
    if obj.score is not None:
        fields.append(repr(float(obj.score)))
    return " ".join(fields)


def parse_objects(source: Iterable[str] | IO[str]) -> list[LabeledObject]:
    """Parse every line of a stream, propagating errors with their line number."""
    out = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            raise KittiFormatError("blank line", lineno)
        out.append(parse_label_line(line, lineno))
    return out


def parse_sequence(source: Iterable[str] | IO[str], sequence_id: str = "") -> SequenceDetections:
    """Group a stream of records into per-frame detections, keeping per-frame order."""
    seq = SequenceDetections(sequence_id=sequence_id)
    for obj in parse_objects(source):
        seq.frames.setdefault(obj.frame, []).append(obj.to_detection())
    return seq


def write_objects(objs: Iterable[LabeledObject], sink: IO[str]) -> None:
    for obj in objs:
        sink.write(format_label_line(obj) + "\n")


def _result_record(track_id: int, frame: int, det: Detection) -> LabeledObject:
    if det.source is not None:
        src = det.source
        return LabeledObject(
            frame=frame,
            track_id=track_id,
            class_name=src.class_name,
            truncated=src.truncated,
            occluded=src.occluded,
            alpha=src.alpha,
            bbox=det.box,
            dimensions=src.dimensions,
            location=src.location,
            rotation_y=src.rotation_y,
            score=det.confidence,
        )
    # Synthetic detection: fill the non-box fields with devkit-style placeholders.
    return LabeledObject(
        frame=frame,
        track_id=track_id,
        class_name="Car",
        truncated=-1.0,
        occluded=-1,
        alpha=-10.0,
        bbox=det.box,
        dimensions=(-1.0, -1.0, -1.0),
        location=(-1000.0, -1000.0, -1000.0),
        rotation_y=-10.0,
        score=det.confidence,
    )


def write_tracking_results(tracks: Iterable["Tracklet"], sink: IO[str]) -> None:
    """Write one line per (tracklet, frame) membership, sorted by frame then track id."""
    records = []
    for track in tracks:
        if track.id is None or track.id < 0:
            raise ValueError("every tracklet must carry an assigned non-negative ID")
        for frame, det in track.detections:
            records.append(_result_record(track.id, frame, det))
    records.sort(key=lambda r: (r.frame, r.track_id))
    write_objects(records, sink)
