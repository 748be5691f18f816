"""Every rule-carrying setting raises SettingError naming itself, its value and its rule."""

import math

import pytest

from conftest import kind_logits
from paretotrack import nas
from paretotrack.latency import LatencyEntry, OpConfig, profile_op
from paretotrack.metrics import clear_mot, match_frame
from paretotrack.scoring import ScorerConfig
from paretotrack.settings import SettingError
from paretotrack.tracker import TrackerConfig

_SPACE = nas.init_search_space(nas.SpaceConfig(normal_cells=1, reduction_cells=0, nodes=3))

# (build, field name, bad value, rule): build(value) sets only that field
_CASES = [
    (lambda v: ScorerConfig(w_iou=v), "w_iou", math.inf, "at most 2**510 in magnitude"),
    (lambda v: ScorerConfig(w_det=v), "w_det", math.nan, "at most 2**510 in magnitude"),
    (lambda v: ScorerConfig(terminal_score=v), "terminal_score", -math.inf,
     "at most 2**510 in magnitude"),
    (lambda v: TrackerConfig(t_birth=v), "t_birth", 0, ">= 1"),
    (lambda v: TrackerConfig(t_death=v), "t_death", 0, ">= 1"),
    (lambda v: nas.SpaceConfig(nodes=v), "nodes", 1, ">= 2"),
    (lambda v: nas.SpaceConfig(normal_cells=v), "normal_cells", -1, ">= 0"),
    (lambda v: nas.SpaceConfig(reduction_cells=v), "reduction_cells", -1, ">= 0"),
    # a test id carries its row's index: a new row fills a freed index, so that
    # the ids of the rows after it stay as they are
    (lambda v: nas.total_loss(_SPACE, kind_logits(_SPACE), [0.0] * 4,
                              nas.OpCostSurrogate(_SPACE), None, v),
     "lambda", -math.inf, "finite and >= 0"),
    (lambda v: nas.SpaceConfig(channels=v), "channels", 0, ">= 1"),
    (lambda v: nas.SpaceConfig(resolution=v), "resolution", 0, ">= 1"),
    (lambda v: nas.Stage1Budget(epochs=v), "epochs", 0, ">= 1"),
    (lambda v: nas.Stage1Budget(theta_iters=v), "theta_iters", -1, ">= 0"),
    (lambda v: nas.Stage1Budget(alpha_lr=v), "alpha_lr", math.nan, "finite and >= 0"),
    (lambda v: nas.Stage1Budget(theta_lr=v), "theta_lr", -1.0, "finite and >= 0"),
    (lambda v: nas.Stage2Budget(iters=v), "iters", -1, ">= 0"),
    (lambda v: nas.Stage2Budget(eval_interval=v), "eval_interval", 0, ">= 1"),
    (lambda v: nas.Stage2Budget(theta_lr=v), "theta_lr", math.inf, "finite and >= 0"),
    (lambda v: nas.OpCostSurrogate(_SPACE, theta_dim=v), "theta_dim", -1, ">= 0"),
    (lambda v: nas.QuadraticSurrogate(_SPACE, theta_dim=v), "theta_dim", -1, ">= 0"),
    (lambda v: profile_op(lambda: None, reps=v), "reps", 0, ">= 1"),
    (lambda v: profile_op(lambda: None, warmup=v), "warmup", -1, ">= 0"),
    (lambda v: nas.stage1_search(_SPACE, nas.OpCostSurrogate(_SPACE), None, [v]),
     "lambda", -1.0, "finite and >= 0"),
    (lambda v: match_frame([], [], {}, v), "thresh", 0.0, "in (0, 1]"),
    (lambda v: clear_mot({}, {}, v), "thresh", math.nan, "in (0, 1]"),
    (lambda v: nas.SpaceConfig(channels=v), "channels", 4097, "<= 4096"),
    (lambda v: nas.SpaceConfig(resolution=v), "resolution", 4097, "<= 4096"),
    (lambda v: OpConfig("identity", v, 16, 32, 1), "in_channels", 0, ">= 1"),
    (lambda v: OpConfig("identity", 16, v, 32, 1), "out_channels", 0, ">= 1"),
    (lambda v: OpConfig("identity", 16, 16, v, 1), "resolution", 0, ">= 1"),
    (lambda v: OpConfig("identity", 16, 16, 32, v), "stride", 0, ">= 1"),
    (lambda v: LatencyEntry(v, 0.0, 1), "mean_ms", -1.0, ">= 0"),
    (lambda v: LatencyEntry(1.0, v, 1), "std_ms", -0.5, ">= 0"),
    (lambda v: LatencyEntry(1.0, 0.0, v), "reps", 0, ">= 1"),
]


@pytest.mark.parametrize("build, name, value, rule", _CASES,
                         ids=[f"{i}-{case[1]}" for i, case in enumerate(_CASES)])
def test_a_bad_setting_raises_a_setting_error(build, name, value, rule):
    with pytest.raises(SettingError) as info:
        build(value)
    err = info.value
    assert isinstance(err, ValueError)
    assert (err.name, repr(err.value), err.rule) == (name, repr(value), rule)
    assert str(err) == f"{name} must be {rule}, got {value!r}"
