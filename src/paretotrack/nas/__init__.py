"""Symbolic cell search space, two-stage Pareto search and front bookkeeping."""

from .pareto import ParetoPoint, hypervolume_2d, pareto_front, pareto_sweep
from .search import (
    SearchDivergedError,
    Stage1Budget,
    Stage1Result,
    Stage2Budget,
    Stage2Result,
    stage1_search,
    stage2_train,
    total_loss,
)
from .space import (
    DiscreteArch,
    SearchSpace,
    SpaceConfig,
    discrete_latency,
    discretize,
    format_discrete_arch,
    init_search_space,
    nominal_table,
    one_hot_weights,
)
from .surrogate import OpCostSurrogate, QuadraticSurrogate, SurrogateEvaluator
