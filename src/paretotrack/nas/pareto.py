"""Pareto-front bookkeeping and the lambda sweep tying both stages together."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ..latency import LatencyTable
from ..settings import RATE, SettingError
from .search import (Stage1Budget, Stage1Result, Stage2Budget, Stage2Result, stage1_search,
                     stage2_train)
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


def sweep_point(space: SearchSpace, evaluator: SurrogateEvaluator, table: LatencyTable,
                lam: float, arch: DiscreteArch,
                scored: dict[DiscreteArch, tuple[float, Stage2Result | Exception]]) -> ParetoPoint:
    """One lambda's point from its discretized architecture, or that
    architecture's stage-2 failure raised.

    `scored` holds each distinct architecture's latency and stage-2 outcome,
    which is all a point depends on within a sweep of `space`, `evaluator`
    and `table`; this per-lambda step is where a raise skips one lambda.
    """
    latency, trained = scored[arch]
    if isinstance(trained, Exception):
        raise trained
    return ParetoPoint(latency, trained.best_val_loss, arch=arch, lambda_used=lam)


def _per_row(stage: Callable[[list], list], rows: list) -> list:
    """What `stage` returns for `rows`, or the exception it raises once per row."""
    if not rows:
        return []
    try:
        return stage(rows)
    except Exception as exc:
        return [exc] * len(rows)


def pareto_sweep(
    space: SearchSpace,
    evaluator: SurrogateEvaluator,
    table: LatencyTable,
    lambdas: Sequence[float],
    stage1_budget: Stage1Budget = Stage1Budget(),
    stage2_budget: Stage2Budget = Stage2Budget(),
    seed: int = 0,
) -> list[ParetoPoint]:
    """Run the two-stage search for every lambda and keep the non-dominated results.

    Stage 1 runs once for all valid lambdas, and stage 2 once for all
    distinct architectures they discretize to.  A failing lambda is skipped
    with one logged warning line that gives its reason, rather than aborting
    the sweep.
    """
    if not lambdas:
        raise ValueError("need at least one lambda")
    # per lambda: the lambda while it is valid, then its discretized
    # architecture, or the exception that failed it
    outcomes = [lam if RATE.holds(lam) else SettingError("lambda", lam, RATE.text)
                for lam in lambdas]
    valid = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    searched = _per_row(lambda lams: stage1_search(space, evaluator, table, lams,
                                                   stage1_budget, seed),
                        [lambdas[i] for i in valid])
    for i, result in zip(valid, searched):
        outcomes[i] = (discretize(result.logits, space) if isinstance(result, Stage1Result)
                       else result)
    distinct = list(dict.fromkeys(o for o in outcomes if isinstance(o, DiscreteArch)))
    trained = _per_row(lambda archs: stage2_train(space, archs, evaluator, stage2_budget,
                                                  seed), distinct)
    scored = {arch: (discrete_latency(arch, space, table), outcome)
              for arch, outcome in zip(distinct, trained)}
    points = []
    for lam, outcome in zip(lambdas, outcomes):
        if isinstance(outcome, DiscreteArch):
            try:
                points.append(sweep_point(space, evaluator, table, lam, outcome, scored))
                continue
            except Exception as exc:
                outcome = exc
        log.warning("lambda=%s failed, skipping: %s", lam, outcome)
    return pareto_front(points)
