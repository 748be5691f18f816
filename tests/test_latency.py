import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from paretotrack.latency import (
    CANDIDATE_OPS,
    ClockError,
    LatencyEntry,
    LatencyLookupError,
    LatencyTable,
    OpConfig,
    OpTemplate,
    ScriptedClock,
    nominal_cost_ms,
    profile_op,
    softmax_weights,
)
from paretotrack.nas import ArchLogits, SpaceConfig, init_search_space
from paretotrack.nas.search import arch_weights
from paretotrack.nas.space import edge_latencies, weighted_latency

TPL = OpTemplate(in_channels=16, out_channels=16, resolution=32, stride=1)


def test_op_config_validation():
    with pytest.raises(ValueError):
        OpConfig("conv_11", 16, 16, 32, 1)
    with pytest.raises(ValueError):
        OpConfig("identity", 0, 16, 32, 1)


def test_profile_constant_clock():
    entry = profile_op(lambda: None, clock=ScriptedClock([1.0]), warmup=10, reps=100)
    assert entry.mean_ms == 1.0
    assert entry.std_ms == 0.0
    assert entry.reps == 100


def test_profile_alternating_clock():
    entry = profile_op(lambda: None, clock=ScriptedClock([1.0, 0.0, 3.0, 0.0]),
                       warmup=0, reps=10)
    assert entry.mean_ms == 2.0
    assert entry.std_ms == 1.0


def test_profile_rejects_zero_reps():
    with pytest.raises(ValueError):
        profile_op(lambda: None, reps=0)


def test_profile_detects_backwards_clock():
    class Backwards:
        def __init__(self):
            self.t = 10.0

        def __call__(self):
            self.t -= 1.0
            return self.t

    with pytest.raises(ClockError):
        profile_op(lambda: None, clock=Backwards(), reps=3)


def test_profile_runs_warmup_before_timing():
    calls = []
    clock = ScriptedClock([1.0])
    profile_op(lambda: calls.append(1), clock=clock, warmup=7, reps=5)
    assert len(calls) == 12


def test_profile_reproducible_with_scripted_clock():
    a = profile_op(lambda: None, clock=ScriptedClock([0.25, 0.5]), warmup=2, reps=40)
    b = profile_op(lambda: None, clock=ScriptedClock([0.25, 0.5]), warmup=2, reps=40)
    assert a == b


def test_softmax_single_logit():
    assert softmax_weights([3.7]).tolist() == [1.0]


def test_softmax_equal_logits():
    w = softmax_weights([0.5] * 4)
    assert w.tolist() == [0.25] * 4


def test_softmax_ln2():
    w = softmax_weights([math.log(2), 0.0])
    assert abs(w[0] - 2 / 3) < 1e-15
    assert abs(w[1] - 1 / 3) < 1e-15


def test_softmax_sums_to_one(rng):
    for _ in range(100):
        w = softmax_weights(rng.uniform(-30, 30, int(rng.integers(1, 12))))
        assert abs(w.sum() - 1.0) <= 1e-12
        assert (w > 0).all()


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        softmax_weights([])
    with pytest.raises(ValueError):
        softmax_weights([np.inf, 0.0])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
                  elements=st.floats(-1e3, 1e3)))
def test_softmax_of_rows_equals_each_row_alone(logits):
    weights = softmax_weights(logits)
    assert weights.shape == logits.shape
    for index in np.ndindex(logits.shape[:-1]):
        assert weights[index].tobytes() == softmax_weights(logits[index]).tobytes()


# One edge of one cell on one branch, priced at TPL: the relaxed latency of the
# search's model is then the softmax-weighted mean of the table row.
EDGE = init_search_space(SpaceConfig(normal_cells=1, reduction_cells=0, nodes=2,
                                     branches=1, channels=16, resolution=32))


def _table(values):
    return LatencyTable({TPL.with_op(op): LatencyEntry(ms, 0.0, 1)
                         for op, ms in values.items()})


def _relaxed_latency(logits, table):
    arch = ArchLogits({"normal": np.asarray(logits, dtype=np.float64)[None, :]})
    return weighted_latency(arch_weights(EDGE, arch), edge_latencies(EDGE, table))


def test_expected_latency_single_op():
    table = _table({op: 9.0 for op in CANDIDATE_OPS} | {"identity": 5.0})
    logits = np.zeros(len(CANDIDATE_OPS))
    logits[CANDIDATE_OPS.index("identity")] = 1e3
    assert _relaxed_latency(logits, table) == 5.0


def test_expected_latency_equal_weights():
    table = _table({op: 10.0 * (i + 1) for i, op in enumerate(CANDIDATE_OPS)})
    lat = _relaxed_latency(np.zeros(len(CANDIDATE_OPS)), table)
    assert abs(lat - 5.0 * (len(CANDIDATE_OPS) + 1)) < 1e-12 * lat


def test_expected_latency_ln2_weights():
    n = len(CANDIDATE_OPS)
    table = _table({op: 20.0 for op in CANDIDATE_OPS} | {"identity": 10.0})
    logits = np.zeros(n)
    logits[CANDIDATE_OPS.index("identity")] = math.log(2)
    # identity weighs 2 / (n + 1), every other op 1 / (n + 1)
    assert abs(_relaxed_latency(logits, table) - 20.0 * n / (n + 1)) < 1e-12


def test_expected_latency_missing_entry_names_config():
    table = _table({op: 10.0 for op in CANDIDATE_OPS if op != "sep_conv_3"})
    with pytest.raises(LatencyLookupError, match="sep_conv_3"):
        _relaxed_latency(np.zeros(len(CANDIDATE_OPS)), table)


def test_expected_latency_linear_in_table(rng):
    base = {op: float(rng.uniform(1, 5)) for op in CANDIDATE_OPS}
    for _ in range(20):
        logits = rng.normal(size=len(CANDIDATE_OPS))
        lat1 = _relaxed_latency(logits, _table(base))
        lat3 = _relaxed_latency(logits, _table({k: 3 * v for k, v in base.items()}))
        assert abs(lat3 - 3 * lat1) < 1e-9 * abs(lat3)


def test_expected_latency_bounds(rng):
    vals = {op: float(rng.uniform(1, 9)) for op in CANDIDATE_OPS}
    table = _table(vals)
    for _ in range(50):
        lat = _relaxed_latency(rng.normal(size=len(CANDIDATE_OPS)), table)
        assert min(vals.values()) <= lat <= max(vals.values())


def test_expected_latency_one_hot_limit():
    vals = {op: 2.0 + i for i, op in enumerate(CANDIDATE_OPS)}
    table = _table(vals)
    rng_range = max(vals.values()) - min(vals.values())
    for idx, op in enumerate(CANDIDATE_OPS):
        logits = np.zeros(len(CANDIDATE_OPS))
        logits[idx] += 50.0
        assert abs(_relaxed_latency(logits, table) - vals[op]) <= 1e-6 * rng_range


def test_table_exact_match_only():
    table = LatencyTable({TPL.with_op("identity"): LatencyEntry(1.0, 0.0, 1)})
    other = OpTemplate(in_channels=32, out_channels=16, resolution=32, stride=1)
    with pytest.raises(LatencyLookupError):
        table.get(other.with_op("identity"))


def test_table_io_roundtrip(rng):
    table = LatencyTable()
    for op in CANDIDATE_OPS:
        cfg = TPL.with_op(op)
        table.add(cfg, LatencyEntry(float(rng.uniform(0, 5)),
                                    float(rng.uniform(0, 0.5)),
                                    int(rng.integers(1, 200))))
    buf = io.StringIO()
    table.write(buf)
    text = buf.getvalue()
    assert text.startswith("latency-table v1\n")
    back = LatencyTable.read(io.StringIO(text))
    assert len(back) == len(table)
    for cfg, entry in table.items():
        assert back.get(cfg) == entry


def test_table_read_rejects_bad_header():
    with pytest.raises(ValueError):
        LatencyTable.read(io.StringIO("latency-table v2\n"))


@pytest.mark.parametrize("mean, std", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)])
def test_entry_rejects_non_finite_statistics(mean, std):
    with pytest.raises(ValueError, match="finite"):
        LatencyEntry(mean, std, 1)


def test_nominal_cost_scales():
    small = nominal_cost_ms(OpConfig("sep_conv_3", 16, 16, 32, 1))
    big = nominal_cost_ms(OpConfig("sep_conv_3", 16, 32, 32, 1))
    assert big == 2 * small
    assert nominal_cost_ms(OpConfig("none", 16, 16, 32, 1)) == 0.0
