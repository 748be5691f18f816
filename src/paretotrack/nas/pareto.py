"""Pareto-front bookkeeping and the lambda sweep tying both stages together."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from ..latency import LatencyTable
from .search import (
    Stage1Budget,
    Stage2Budget,
    stage1_search,
    stage2_train,
)
from .space import DiscreteArch, SearchSpace, discrete_latency, discretize
from .surrogate import SurrogateEvaluator

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParetoPoint:
    latency_ms: float
    track_loss: float
    arch: DiscreteArch
    lambda_used: float

    def __post_init__(self):
        if not (math.isfinite(self.latency_ms) and math.isfinite(self.track_loss)):
            raise ValueError("Pareto point coordinates must be finite")


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """a is nowhere worse and strictly better in latency or loss."""
    if a.latency_ms > b.latency_ms or a.track_loss > b.track_loss:
        return False
    return a.latency_ms < b.latency_ms or a.track_loss < b.track_loss


def pareto_front(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """The non-dominated subset, latency ascending, (latency, loss) deduplicated."""
    ordered = sorted(points, key=lambda p: (p.latency_ms, p.track_loss, p.lambda_used))
    front: list[ParetoPoint] = []
    best_loss = math.inf
    for p in ordered:
        if p.track_loss < best_loss:
            front.append(p)
            best_loss = p.track_loss
    return front


def hypervolume_2d(points: Sequence[ParetoPoint],
                   ref: tuple[float, float]) -> float:
    """Area dominated by the points inside the reference corner (both minimized)."""
    ref_lat, ref_loss = ref
    front = pareto_front(points)
    usable = [p for p in front if p.latency_ms <= ref_lat and p.track_loss <= ref_loss]
    area = 0.0
    for i, p in enumerate(usable):
        right = usable[i + 1].latency_ms if i + 1 < len(usable) else ref_lat
        area += (right - p.latency_ms) * (ref_loss - p.track_loss)
    return area


def sweep_point(
    space: SearchSpace,
    evaluator: SurrogateEvaluator,
    table: LatencyTable,
    lam: float,
    stage1_budget: Stage1Budget,
    stage2_budget: Stage2Budget,
    seed: int,
) -> ParetoPoint:
    """One full stage1 -> discretize -> stage2 pass for a single lambda."""
    result = stage1_search(space, evaluator, table, lam, stage1_budget, seed)
    arch = discretize(result.arch, space)
    trained = stage2_train(space, arch, evaluator, stage2_budget, seed)
    return ParetoPoint(
        latency_ms=discrete_latency(arch, space, table),
        track_loss=trained.best_val_loss,
        arch=arch,
        lambda_used=lam,
    )


def pareto_sweep(
    space: SearchSpace,
    evaluator: SurrogateEvaluator,
    table: LatencyTable,
    lambdas: Sequence[float],
    stage1_budget: Stage1Budget = Stage1Budget(),
    stage2_budget: Stage2Budget = Stage2Budget(),
    seed: int = 0,
) -> list[ParetoPoint]:
    """Run the two-stage search once per lambda and keep the non-dominated results.

    A failing lambda is skipped with a logged warning rather than aborting the
    sweep.
    """
    if not lambdas:
        raise ValueError("need at least one lambda")
    points = []
    for lam in lambdas:
        try:
            points.append(sweep_point(space, evaluator, table, lam,
                                      stage1_budget, stage2_budget, seed))
        except Exception:
            log.warning("lambda=%s failed, skipping", lam, exc_info=True)
    return pareto_front(points)
