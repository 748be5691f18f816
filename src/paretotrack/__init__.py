"""Latency-aware multi-object tracking with exact flow-flag association
and a two-stage Pareto architecture search over a symbolic cell space."""

from .assoc import (
    AssociationProblem,
    AssociationSolution,
    check_feasible,
    make_solution,
    objective_value,
    solve_bruteforce,
    solve_exact,
)
from .geometry import (
    BevImage,
    Box2D,
    Box3D,
    PointCloud,
    bev_to_pgm,
    box_array,
    crop_points,
    iou_2d,
    iou_matrix,
    rasterize_bev,
)
from .kitti_io import (
    Detection,
    KittiFormatError,
    LabeledObject,
    SequenceDetections,
    format_label_line,
    parse_label_line,
    parse_sequence,
    write_tracking_results,
)
from .latency import (
    CANDIDATE_OPS,
    LatencyEntry,
    LatencyLookupError,
    LatencyTable,
    OpConfig,
    OpTemplate,
    TableFormatError,
    profile_op,
    softmax_weights,
)
from .metrics import MotReport, clear_mot, match_frame
from .scoring import (
    BaselineScorer,
    ScorerConfig,
    ScoreSet,
    baseline_scores,
)
from .tracker import (
    TrackerConfig,
    TrackerState,
    Tracklet,
    TrackState,
    apply_birth_death,
    run_sequence,
    step,
)

__version__ = "0.1.0"
