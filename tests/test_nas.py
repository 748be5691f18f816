import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import kind_logits, nominal_table
from paretotrack import nas
from paretotrack.latency import CANDIDATE_OPS, LatencyEntry, LatencyTable, OpConfig
from paretotrack.nas.search import arch_weights, max_latency_ms
from paretotrack.nas.space import (
    DiscreteArch,
    edge_latencies,
    one_hot_weights,
    weighted_latency,
)


def small_space(**overrides):
    cfg = dict(normal_cells=1, reduction_cells=1, nodes=3)
    cfg.update(overrides)
    return nas.init_search_space(nas.SpaceConfig(**cfg))


# ------------------------------------------------------------- search space

def test_space_three_nodes_three_edges():
    space = small_space(reduction_cells=0)
    assert space.positions == ((0, 1), (0, 2), (1, 2))


def test_space_shared_logits_per_kind():
    space = small_space(nodes=4)
    # two cells, 4 nodes each: 6 positions per cell, logits shared per
    # (position, kind)
    assert space.n_positions == 6
    table = nominal_table(space)
    ev = nas.QuadraticSurrogate(space, seed=0)
    (res,) = nas.stage1_search(space, ev, table, [0.5], nas.Stage1Budget(epochs=1))
    assert set(res.logits) == {"normal", "reduction"}
    assert all(v.shape == (6, len(CANDIDATE_OPS)) for v in res.logits.values())


def test_space_single_node_rejected():
    with pytest.raises(ValueError):
        nas.SpaceConfig(nodes=1)


def test_space_needs_a_cell():
    with pytest.raises(ValueError):
        nas.SpaceConfig(normal_cells=0, reduction_cells=0)


def test_candidate_ops_fixed():
    assert CANDIDATE_OPS == (
        "none", "identity", "sep_conv_3", "sep_conv_5", "sep_conv_7",
        "dil_conv_3", "dil_conv_5", "max_pool_3", "avg_pool_3",
    )


def test_op_configs_pin_each_kind_and_the_op_order():
    space = small_space(channels=5, resolution=7)
    assert space.op_configs("normal") == [OpConfig(op, 5, 5, 7, 1) for op in CANDIDATE_OPS]
    assert space.op_configs("reduction") == [OpConfig(op, 5, 10, 7, 2) for op in CANDIDATE_OPS]


# ------------------------------------------------------------- discretize

def _logits_for(space, mapping):
    """Logits peaked on the named op per position; everything else at 0."""
    logits = kind_logits(space)
    for kind, rows in mapping.items():
        for pos, (op, height) in rows.items():
            logits[kind][pos, space.ops.index(op)] = height
    return logits


def test_discretize_argmax_retained():
    space = small_space(reduction_cells=0, nodes=2)
    arch = _logits_for(space, {"normal": {0: ("identity", 5.0)}})
    da = nas.discretize(arch, space)
    assert da.edges == (("normal", (0, 1), "identity"),)


def test_discretize_drops_none_edges():
    space = small_space(reduction_cells=0, nodes=2)
    arch = _logits_for(space, {"normal": {0: ("none", 5.0)}})
    assert nas.discretize(arch, space).edges == ()


def test_discretize_top2_per_node():
    space = small_space(reduction_cells=0, nodes=4)
    # node 3 has incoming edges (0,3), (1,3), (2,3); give them ordered weights
    logits = kind_logits(space)
    weights = {(0, 3): 2.0, (1, 3): 3.0, (2, 3): 1.0}
    for pos, edge in enumerate(space.positions):
        if edge in weights:
            logits["normal"][pos, space.ops.index("sep_conv_3")] = weights[edge]
        else:
            logits["normal"][pos, space.ops.index("identity")] = 4.0
    da = nas.discretize(logits, space)
    into_3 = [e for k, e, op in da.edges if e[1] == 3]
    assert sorted(into_3) == [(0, 3), (1, 3)]  # (2,3) pruned as weakest


def test_discretize_tie_prefers_lowest_op_index():
    space = small_space(reduction_cells=0, nodes=2)
    logits = kind_logits(space)  # all logits equal: argmax is index 0, 'none'
    assert nas.discretize(logits, space).edges == ()


def test_discretize_idempotent_on_one_hot():
    space = small_space(nodes=3)
    rng = np.random.default_rng(3)
    da = nas.discretize(kind_logits(space, rng, scale=2.0), space)
    weights = one_hot_weights(da, space)
    hot = {k: 50.0 * v for k, v in weights.items()}
    assert nas.discretize(hot, space) == da


def test_discretize_rejects_a_kind_of_the_wrong_shape():
    space = small_space(nodes=3)
    logits = kind_logits(space)
    logits["reduction"] = np.zeros((2, len(space.ops)))
    with pytest.raises(ValueError, match=r"^logits for 'reduction' shaped \(2, 9\), "
                                         r"expected \(3, 9\)$"):
        nas.discretize(logits, space)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_discretize_rejects_non_finite_logits(bad):
    space = small_space(nodes=3)
    logits = kind_logits(space)
    logits["normal"][1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        nas.discretize(logits, space)


# ------------------------------------------------------------- total loss

def test_total_loss_lambda_zero_equals_evaluator():
    space = small_space()
    table = nominal_table(space)
    ev = nas.QuadraticSurrogate(space, seed=0)
    rng = np.random.default_rng(0)
    logits = kind_logits(space, rng)
    theta = rng.normal(size=ev.theta_dim)
    assert nas.total_loss(space, logits, theta, ev, table, 0.0) == ev.loss(
        arch_weights(space, logits), theta, "train"
    )


def test_total_loss_latency_term_linear_in_lambda():
    space = small_space()
    table = nominal_table(space)
    ev = nas.QuadraticSurrogate(space, seed=0)
    rng = np.random.default_rng(1)
    logits = kind_logits(space, rng)
    theta = rng.normal(size=ev.theta_dim)
    base = nas.total_loss(space, logits, theta, ev, table, 0.0)
    one = nas.total_loss(space, logits, theta, ev, table, 1.0)
    two = nas.total_loss(space, logits, theta, ev, table, 2.0)
    assert abs((two - base) - 2 * (one - base)) < 1e-12


@pytest.mark.parametrize("lam", [-1.0, -math.inf, math.inf, math.nan])
def test_search_rejects_negative_or_non_finite_lambda(lam):
    space = small_space(reduction_cells=0)
    table = nominal_table(space)
    ev = nas.QuadraticSurrogate(space, seed=0)
    logits = kind_logits(space, np.random.default_rng(0))
    with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
        nas.total_loss(space, logits, np.zeros(ev.theta_dim), ev, table, lam)
    with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
        nas.stage1_search(space, ev, table, [lam], nas.Stage1Budget(epochs=1))


@pytest.mark.parametrize("rate", [-1.0, -math.inf, math.inf, math.nan])
@pytest.mark.parametrize("budget,field", [
    (nas.Stage1Budget, "alpha_lr"),
    (nas.Stage1Budget, "theta_lr"),
    (nas.Stage2Budget, "theta_lr"),
])
def test_budgets_reject_negative_or_non_finite_learning_rate(budget, field, rate):
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got"):
        budget(**{field: rate})


def test_total_loss_normalized_latency_in_unit_interval(rng):
    space = small_space()
    table = nominal_table(space)
    for _ in range(20):
        logits = kind_logits(space, rng, scale=3.0)
        ratio = (weighted_latency(arch_weights(space, logits), edge_latencies(space, table))
                 / max_latency_ms(space, table))
        assert 0.0 < ratio <= 1.0


def test_total_loss_minimal_at_cheapest_arch():
    # exhaustive check on a two-edge space: with loss == 0 and lambda=1, the
    # cheapest op pair gives the smallest total loss among one-hot archs
    space = small_space(nodes=2)  # one normal + one reduction position
    table = nominal_table(space)

    class ZeroLoss:
        theta_dim = 1

        def loss(self, weights, theta, split="train"):
            return 0.0

        def grad(self, weights, theta, split="train"):
            return {k: np.zeros_like(v) for k, v in weights.items()}, np.zeros(1)

    best_combo, best_val = None, math.inf
    for i, j in itertools.product(range(len(space.ops)), repeat=2):
        logits = kind_logits(space)
        logits["normal"][0, i] = 60.0
        logits["reduction"][0, j] = 60.0
        val = nas.total_loss(space, logits, np.zeros(1), ZeroLoss(), table, 1.0)
        if val < best_val:
            best_combo, best_val = (space.ops[i], space.ops[j]), val
    assert best_combo == ("none", "none")


@st.composite
def _discrete_problems(draw):
    """A two-kind space, a random table with a free `none` and a random arch."""
    space = small_space(normal_cells=draw(st.integers(1, 3)),
                        reduction_cells=draw(st.integers(1, 3)),
                        nodes=draw(st.integers(2, 4)))
    ms = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
    table = LatencyTable()
    for kind in space.kinds():
        for cfg in space.op_configs(kind):
            cost = 0.0 if cfg.op_name == "none" else draw(ms)
            table.add(cfg, LatencyEntry(cost, 0.0, 1))
    edges = tuple(
        (kind, edge, op)
        for kind in space.kinds() for edge in space.positions
        for op in [draw(st.sampled_from(space.ops))] if op != "none"
    )
    return space, table, DiscreteArch(edges=edges)


@settings(max_examples=200, deadline=None)
@given(_discrete_problems())
def test_latency_model_agrees_with_table_sums(problem):
    space, table, arch = problem
    lat = nas.discrete_latency(arch, space, table)
    lats = edge_latencies(space, table)
    assert lat == weighted_latency(one_hot_weights(arch, space), lats)
    assert lat == math.fsum(
        space.instance_count(kind)
        * table.get(space.op_configs(kind)[space.ops.index(op)]).mean_ms
        for kind, _edge, op in arch.edges
    )
    # a dropped edge costs nothing, even when the table prices `none`
    priced = LatencyTable(dict(table.items()))
    for kind in space.kinds():
        priced.add(space.op_configs(kind)[space.ops.index("none")], LatencyEntry(7.0, 0.0, 1))
    assert nas.discrete_latency(arch, space, priced) == lat

    slowest = DiscreteArch(edges=tuple(
        (kind, edge, space.ops[int(np.argmax(lats[kind]))])
        for kind in space.kinds() for edge in space.positions
    ))
    slowest_ms = nas.discrete_latency(slowest, space, table)
    if slowest_ms == 0.0:  # every op costs 0 ms: the latency term has no scale
        with pytest.raises(ValueError, match="the latency term has no scale"):
            max_latency_ms(space, table)
    else:
        assert max_latency_ms(space, table) == slowest_ms


# ------------------------------------------------------------- stage 1

def test_stage1_quadratic_reaches_known_minimizer():
    space = small_space()
    table = nominal_table(space)
    ev = nas.QuadraticSurrogate(space, theta_dim=4, seed=5)
    (res,) = nas.stage1_search(
        space, ev, table, [0.0],
        budget=nas.Stage1Budget(epochs=3000, theta_iters=2, alpha_lr=2.0, theta_lr=0.2),
        seed=2,
    )
    weights = arch_weights(space, res.logits)
    err = max(np.abs(weights[k] - ev.weight_targets[k]).max() for k in weights)
    assert err < 1e-3


def test_stage1_huge_lambda_selects_cheapest_ops():
    space = small_space()
    table = nominal_table(space)
    ev = nas.OpCostSurrogate(space, seed=1)
    (res,) = nas.stage1_search(
        space, ev, table, [1e6],
        budget=nas.Stage1Budget(epochs=150, theta_iters=1, alpha_lr=0.5, theta_lr=0.1),
        seed=0,
    )
    # 'none' has zero latency: everything is pruned away
    assert nas.discretize(res.logits, space).edges == ()


def test_stage1_single_step_budget():
    space = small_space()
    table = nominal_table(space)
    ev = nas.QuadraticSurrogate(space, seed=2)
    budget = nas.Stage1Budget(epochs=1, theta_iters=0, alpha_lr=0.05, theta_lr=0.01)
    (res,) = nas.stage1_search(space, ev, table, [0.5], budget=budget, seed=7)

    # recompute the single expected gradient step by hand
    from paretotrack.nas.search import _alpha_gradient

    rng = np.random.default_rng(7)
    logits0 = kind_logits(space, rng)
    theta0 = rng.normal(0.0, 0.5, size=ev.theta_dim)
    grads = _alpha_gradient(arch_weights(space, logits0), theta0, ev,
                            edge_latencies(space, table),
                            max_latency_ms(space, table), 0.5)
    for kind in space.kinds():
        expected = logits0[kind] - 0.05 * grads[kind]
        assert np.allclose(res.logits[kind], expected, rtol=0, atol=0)


def test_stage1_divergence_reports_epoch():
    space = small_space()
    table = nominal_table(space)
    ev = nas.QuadraticSurrogate(space, seed=0)
    (res,) = nas.stage1_search(space, ev, table, [0.0],
                               budget=nas.Stage1Budget(epochs=200, theta_iters=5,
                                                       alpha_lr=0.05, theta_lr=1e6),
                               seed=0)
    assert isinstance(res, nas.SearchDivergedError)
    assert res.step >= 0


def test_stage1_deterministic():
    space = small_space()
    table = nominal_table(space)
    ev = nas.OpCostSurrogate(space, seed=4)
    budget = nas.Stage1Budget(epochs=40, theta_iters=2, alpha_lr=0.3, theta_lr=0.1)
    (a,) = nas.stage1_search(space, ev, table, [0.5], budget, seed=9)
    (b,) = nas.stage1_search(space, ev, table, [0.5], budget, seed=9)
    for kind in space.kinds():
        assert np.array_equal(a.logits[kind], b.logits[kind])
    assert a.best_val_loss == b.best_val_loss


def _stage1_alone(space, ev, table, lam, budget, seed):
    """Reference: stage 1 for one lambda on single (positions, ops) matrices."""
    from paretotrack.nas.search import _alpha_gradient

    rng = np.random.default_rng(seed)
    logits = {kind: rng.normal(0.0, 1e-2, size=(space.n_positions, len(space.ops)))
              for kind in space.kinds()}
    theta = rng.normal(0.0, 0.5, size=ev.theta_dim)
    lats, norm = edge_latencies(space, table), max_latency_ms(space, table)
    best, history = None, []
    weights = arch_weights(space, logits)
    for epoch in range(budget.epochs):
        grads = _alpha_gradient(weights, theta, ev, lats, norm, lam)
        logits = {k: logits[k] - budget.alpha_lr * grads[k] for k in space.kinds()}
        if not all(np.isfinite(v).all() for v in logits.values()):
            return nas.SearchDivergedError(epoch, "non-finite logits")
        weights = arch_weights(space, logits)
        for _ in range(budget.theta_iters):
            theta = theta - budget.theta_lr * ev.grad(weights, theta, "train")[1]
        val = ev.loss(weights, theta, "val")
        if lam > 0.0:
            val += lam * (weighted_latency(weights, lats) / norm)
        if not math.isfinite(val):
            return nas.SearchDivergedError(epoch)
        history.append(val)
        if best is None or val < best[0]:
            best = (val, logits)
    return nas.Stage1Result(best[1], best[0], history)


def _same_bits(a, b):
    if isinstance(a, nas.SearchDivergedError):
        return isinstance(b, nas.SearchDivergedError) and str(a) == str(b)
    return (not isinstance(b, nas.SearchDivergedError)
            and a.logits.keys() == b.logits.keys()
            and all(a.logits[k].tobytes() == b.logits[k].tobytes() for k in a.logits)
            and type(a.best_val_loss) is type(b.best_val_loss) is float
            and a.best_val_loss.hex() == b.best_val_loss.hex()
            and [v.hex() for v in a.val_history] == [v.hex() for v in b.val_history])


@st.composite
def _batch_problems(draw):
    """A small space, either surrogate, a budget and lambdas with 0 and repeats.

    Lambdas near the float maximum overflow the logits, a theta rate of 1e6
    overflows the loss, and alpha rates up to 50 move the logits far: rows
    then diverge for either reason at different epochs."""
    normal = draw(st.integers(0, 2))
    space = small_space(normal_cells=normal,
                        reduction_cells=draw(st.integers(0 if normal else 1, 1)),
                        nodes=draw(st.integers(2, 4)))
    surrogate = draw(st.sampled_from([nas.OpCostSurrogate, nas.QuadraticSurrogate]))
    ev = surrogate(space, theta_dim=draw(st.integers(0, 4)), seed=draw(st.integers(0, 99)))
    lams = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3),
                                   st.sampled_from([1e300, 1e308, sys.float_info.max]),
                                   st.floats(1e300, sys.float_info.max)),
                         min_size=1, max_size=5))
    lams += draw(st.lists(st.sampled_from(lams), max_size=3))
    budget = nas.Stage1Budget(epochs=draw(st.integers(1, 12)),
                              theta_iters=draw(st.integers(0, 10)),
                              alpha_lr=draw(st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 50.0))),
                              theta_lr=draw(st.one_of(st.floats(0.0, 0.4), st.just(1e6))))
    return space, ev, draw(st.permutations(lams)), budget, draw(st.integers(0, 99))


def _both_reasons():
    """A batch whose rows diverge for both reasons: two lambdas' logits at epoch 0,
    and the other rows' loss, once theta's steps overflow, at epoch 2."""
    space = small_space()
    return (space, nas.OpCostSurrogate(space, seed=0), [0.1, 1e308, 1.0, sys.float_info.max, 0.1],
            nas.Stage1Budget(epochs=6, theta_iters=10, alpha_lr=0.5, theta_lr=1e6), 0)


@settings(max_examples=80, deadline=None)
@given(_batch_problems())
@example(_both_reasons())
def test_stage1_batch_rows_equal_each_lambda_alone(problem):
    space, ev, lams, budget, seed = problem
    table = nominal_table(space)
    batch = nas.stage1_search(space, ev, table, lams, budget, seed)
    assert len(batch) == len(lams)
    for lam, row in zip(lams, batch):
        (alone,) = nas.stage1_search(space, ev, table, [lam], budget, seed)
        assert _same_bits(row, alone)
        with np.errstate(all="ignore"):
            assert _same_bits(row, _stage1_alone(space, ev, table, lam, budget, seed))


def test_stage1_diverging_row_leaves_the_others_alone():
    # under the suite's error::RuntimeWarning filter: no warning may escape either
    space = small_space()
    table = nominal_table(space)
    ev = nas.OpCostSurrogate(space, seed=0)
    budget = nas.Stage1Budget(epochs=20, theta_iters=1, alpha_lr=0.5, theta_lr=0.2)
    lams = [0.1, 1e308, 1.0]
    batch = nas.stage1_search(space, ev, table, lams, budget, seed=0)
    assert isinstance(batch[1], nas.SearchDivergedError) and batch[1].step == 0
    for lam, row in zip(lams, batch):
        assert _same_bits(row, nas.stage1_search(space, ev, table, [lam], budget, seed=0)[0])


_NO_SCALE = "every op of the search space costs 0 ms, so the latency term has no scale"


def _zero_table(space):
    """Every op configuration of `space` priced at 0 ms."""
    return LatencyTable({cfg: LatencyEntry(0.0, 0.0, 1) for cfg, _ in nominal_table(space).items()})


def test_stage1_refuses_a_table_with_no_latency_scale():
    space = small_space()
    table = _zero_table(space)
    ev = nas.OpCostSurrogate(space, seed=0)
    for lams in ([0.0], [1.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match=f"^{_NO_SCALE}$"):
            nas.stage1_search(space, ev, table, lams, nas.Stage1Budget(epochs=1))
    with pytest.raises(ValueError, match=f"^{_NO_SCALE}$"):
        nas.total_loss(space, kind_logits(space), np.zeros(ev.theta_dim), ev, table, 0.0)


# ------------------------------------------------------------- stage 2

def test_stage2_converges_to_analytic_minimizer():
    space = small_space()
    ev = nas.QuadraticSurrogate(space, theta_dim=4, seed=5)
    arch = nas.discretize(kind_logits(space), space)
    (res,) = nas.stage2_train(space, [arch], ev,
                              nas.Stage2Budget(iters=2000, eval_interval=50, theta_lr=0.2),
                              seed=3)
    assert np.abs(res.params - ev.theta_target).max() < 1e-6


def test_stage2_zero_budget_returns_initial_theta():
    space = small_space()
    ev = nas.QuadraticSurrogate(space, seed=1)
    arch = nas.discretize(kind_logits(space), space)
    (res,) = nas.stage2_train(space, [arch], ev, nas.Stage2Budget(iters=0), seed=11)
    rng = np.random.default_rng(11)
    theta0 = rng.normal(0.0, 0.5, size=ev.theta_dim)
    assert np.array_equal(res.params, theta0)


def test_stage2_best_checkpoints_non_increasing():
    space = small_space()
    ev = nas.QuadraticSurrogate(space, seed=6)
    arch = nas.discretize(kind_logits(space), space)
    (res,) = nas.stage2_train(space, [arch], ev,
                              nas.Stage2Budget(iters=300, eval_interval=10, theta_lr=0.15),
                              seed=1)
    assert res.best_val_loss == min(res.val_history)


def _stage2_alone(space, arch, ev, budget, seed):
    """Reference: stage 2 for one architecture on single (positions, ops) matrices."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 0.5, size=ev.theta_dim)
    weights = one_hot_weights(arch, space)
    best_val = ev.loss(weights, theta, "val")
    best_theta = theta.copy()
    history = [best_val]
    for t in range(1, budget.iters + 1):
        theta = theta - budget.theta_lr * ev.grad(weights, theta, "train")[1]
        if t % budget.eval_interval == 0 or t == budget.iters:
            val = ev.loss(weights, theta, "val")
            if not math.isfinite(val):
                return nas.SearchDivergedError(t, unit="iteration")
            history.append(val)
            if val < best_val:
                best_val, best_theta = val, theta.copy()
    return nas.Stage2Result(best_theta, best_val, history)


def _same_stage2_bits(a, b):
    if isinstance(a, nas.SearchDivergedError):
        return isinstance(b, nas.SearchDivergedError) and str(a) == str(b)
    return (not isinstance(b, nas.SearchDivergedError)
            and a.params.shape == b.params.shape
            and a.params.tobytes() == b.params.tobytes()
            and type(a.best_val_loss) is type(b.best_val_loss) is float
            and a.best_val_loss.hex() == b.best_val_loss.hex()
            and [v.hex() for v in a.val_history] == [v.hex() for v in b.val_history])


@st.composite
def _stage2_problems(draw):
    """A small space, either surrogate, a budget and architectures with repeats."""
    normal = draw(st.integers(0, 2))
    space = small_space(normal_cells=normal,
                        reduction_cells=draw(st.integers(0 if normal else 1, 1)),
                        nodes=draw(st.integers(2, 4)))
    surrogate = draw(st.sampled_from([nas.OpCostSurrogate, nas.QuadraticSurrogate]))
    ev = surrogate(space, theta_dim=draw(st.integers(0, 4)), seed=draw(st.integers(0, 99)))
    arch = st.builds(lambda ops: DiscreteArch(edges=tuple(
        (kind, edge, op) for (kind, edge), op in ops if op != "none")),
        st.tuples(*[st.tuples(st.just((kind, edge)), st.sampled_from(space.ops))
                    for kind in space.kinds() for edge in space.positions]))
    archs = draw(st.lists(arch, max_size=4))
    if archs:
        archs += draw(st.lists(st.sampled_from(archs), max_size=3))
    # a huge rate makes theta overflow, and every row diverge at one checkpoint
    budget = nas.Stage2Budget(iters=draw(st.integers(0, 60)),
                              eval_interval=draw(st.sampled_from([1, 3, 10, 25, 100])),
                              theta_lr=draw(st.one_of(st.floats(0.0, 0.4), st.just(1e6))))
    return space, ev, draw(st.permutations(archs)), budget, draw(st.integers(0, 99))


@settings(max_examples=80, deadline=None)
@given(_stage2_problems())
def test_stage2_batch_rows_equal_each_architecture_alone(problem):
    space, ev, archs, budget, seed = problem
    batch = nas.stage2_train(space, archs, ev, budget, seed)
    assert len(batch) == len(archs)
    for arch, row in zip(archs, batch):
        (alone,) = nas.stage2_train(space, [arch], ev, budget, seed)
        assert _same_stage2_bits(row, alone)
        with np.errstate(all="ignore"):
            assert _same_stage2_bits(row, _stage2_alone(space, arch, ev, budget, seed))


class _OpOnEveryEdgeOverflowsTheta(nas.OpCostSurrogate):
    """The cost surrogate, but theta's gradient is 1000 times larger where the
    weight on `op` sums to the number of edges: only an architecture with
    `op` on every edge takes such steps, and at a rate of 0.2 they overflow."""

    def __init__(self, space, op, **kwargs):
        super().__init__(space, **kwargs)
        self.op_index = space.ops.index(op)
        self.edges = sum(space.cell_count(k) * space.n_positions for k in space.kinds())

    def grad(self, weights, theta, split="train"):
        g_w, g_theta = super().grad(weights, theta, split)
        total = sum(w[..., self.op_index].sum(axis=-1) for w in weights.values())
        return g_w, g_theta * np.where(total >= self.edges, 1e3, 1.0)[..., None]


def test_stage2_diverging_row_leaves_the_others_alone(caplog):
    # under the suite's error::RuntimeWarning filter: no warning may escape either
    space = small_space(reduction_cells=0)
    table = nominal_table(space)
    ev = _OpOnEveryEdgeOverflowsTheta(space, "sep_conv_7", seed=0)
    stage1 = nas.Stage1Budget(epochs=30, theta_iters=2, alpha_lr=0.5, theta_lr=0.2)
    stage2 = nas.Stage2Budget(iters=200, eval_interval=20, theta_lr=0.2)
    lambdas = np.logspace(-3, 2.5, 8).tolist()
    archs = [nas.discretize(r.logits, space)
             for r in nas.stage1_search(space, ev, table, lambdas, stage1, seed=0)]
    slowest = DiscreteArch(edges=tuple(("normal", e, "sep_conv_7") for e in space.positions))
    failing = [lam for lam, arch in zip(lambdas, archs) if arch == slowest]
    assert 1 < len(failing) < len(lambdas) - 1

    distinct = list(dict.fromkeys(archs))
    batch = nas.stage2_train(space, distinct, ev, stage2, seed=0)
    for arch, row in zip(distinct, batch):
        assert isinstance(row, nas.SearchDivergedError) == (arch == slowest)
        assert _same_stage2_bits(row, nas.stage2_train(space, [arch], ev, stage2, seed=0)[0])

    with caplog.at_level("WARNING"):
        front = nas.pareto_sweep(space, ev, table, lambdas, stage1, stage2, seed=0)
    diverged = str(batch[distinct.index(slowest)])
    assert diverged.startswith("non-finite loss at iteration ")
    assert [(r.getMessage(), r.exc_info) for r in caplog.records] == [
        (f"lambda={lam} failed, skipping: {diverged}", None) for lam in failing]
    kept = [lam for lam in lambdas if lam not in failing]
    assert front == nas.pareto_sweep(space, ev, table, kept, stage1, stage2, seed=0)
    assert slowest not in {p.arch for p in front}


class _CountsLoss:
    """Mixed into an evaluator: counts the calls of its loss, and fails a search
    that runs on for 100 of them, long after its rows have diverged."""

    loss_calls = 0

    def loss(self, weights, theta, split="train"):
        self.loss_calls += 1
        assert self.loss_calls < 100, "the search ran on after every row diverged"
        return super().loss(weights, theta, split)


class _CountingCost(_CountsLoss, nas.OpCostSurrogate):
    pass


class _CountingOverflow(_CountsLoss, _OpOnEveryEdgeOverflowsTheta):
    pass


def test_stage1_stops_once_every_row_has_diverged():
    # theta's rate of 1e6 overflows the loss at epoch 2, and lambda = 1e308 the logits
    # at epoch 0: a million epochs end after the third validation
    space = small_space()
    table = nominal_table(space)
    budget = nas.Stage1Budget(epochs=10**6, theta_iters=10, alpha_lr=0.5, theta_lr=1e6)
    for lams, errors, calls in (
            ([0.1, 1e308, 1.0], ["loss at epoch 2", "logits at epoch 0", "loss at epoch 2"], 3),
            ([1e308, 1e308], ["logits at epoch 0"] * 2, 0)):
        ev = _CountingCost(space, seed=0)
        batch = nas.stage1_search(space, ev, table, lams, budget, seed=0)
        assert [str(row) for row in batch] == [f"non-finite {e}" for e in errors]
        assert ev.loss_calls == calls


def test_stage2_stops_at_the_checkpoint_where_every_row_has_diverged():
    # at a rate of 1e6 theta overflows on every architecture, and sooner on the one
    # whose theta gradient is 1000 times larger: a million iterations end at the
    # checkpoint where the other one's loss turns non-finite
    space = small_space(reduction_cells=0)
    ev = _CountingOverflow(space, "sep_conv_7", seed=0)
    slowest = DiscreteArch(edges=tuple(("normal", e, "sep_conv_7") for e in space.positions))
    budget = nas.Stage2Budget(iters=10**6, eval_interval=1, theta_lr=1e6)
    first, last = nas.stage2_train(space, [slowest, DiscreteArch(edges=())], ev, budget, seed=0)
    assert isinstance(first, nas.SearchDivergedError)
    assert isinstance(last, nas.SearchDivergedError)
    assert 0 < first.step < last.step < 100
    assert ev.loss_calls == 1 + last.step  # the initial validation, then one per iteration


# ------------------------------------------------------------- pareto

def _pt(lat, loss, lam=0.0):
    return nas.ParetoPoint(lat, loss, DiscreteArch(edges=()), lam)


def _dominates(a, b):
    """a is nowhere worse and strictly better in latency or loss: the oracle
    that `pareto_front`'s own comparison is checked against."""
    if a.latency_ms > b.latency_ms or a.track_loss > b.track_loss:
        return False
    return a.latency_ms < b.latency_ms or a.track_loss < b.track_loss


def test_dominates_cases():
    assert _dominates(_pt(5, 0.2), _pt(6, 0.3))
    assert not _dominates(_pt(5, 0.2), _pt(5, 0.2))
    assert not _dominates(_pt(5, 0.3), _pt(6, 0.2))
    assert not _dominates(_pt(6, 0.2), _pt(5, 0.3))


def test_pareto_front_example():
    pts = [_pt(5, 0.3), _pt(6, 0.2), _pt(7, 0.25)]
    front = nas.pareto_front(pts)
    assert [(p.latency_ms, p.track_loss) for p in front] == [(5, 0.3), (6, 0.2)]


def test_pareto_front_singleton_and_duplicates():
    assert nas.pareto_front([_pt(3, 1.0)]) == [_pt(3, 1.0)]
    front = nas.pareto_front([_pt(3, 1.0, lam) for lam in (0.1, 0.2, 0.3)])
    assert len(front) == 1


def test_pareto_front_no_dominated_pairs(rng):
    pts = [_pt(float(rng.uniform(0, 10)), float(rng.uniform(0, 1))) for _ in range(60)]
    front = nas.pareto_front(pts)
    for a in front:
        for b in front:
            assert not _dominates(a, b)
    for p in pts:
        if p not in front:
            assert any(
                _dominates(f, p) or (f.latency_ms, f.track_loss) ==
                (p.latency_ms, p.track_loss)
                for f in front
            )


def test_hypervolume_rectangle():
    front = [_pt(1.0, 0.5)]
    assert nas.hypervolume_2d(front, (3.0, 1.0)) == pytest.approx(1.0)
    two = [_pt(1.0, 0.5), _pt(2.0, 0.25)]
    assert nas.hypervolume_2d(two, (3.0, 1.0)) == pytest.approx(0.5 + 0.75)


def test_pareto_sweep_single_lambda():
    space = small_space(reduction_cells=0)
    table = nominal_table(space)
    ev = nas.OpCostSurrogate(space, seed=0)
    pts = nas.pareto_sweep(space, ev, table, [1.0],
                           nas.Stage1Budget(epochs=30, theta_iters=2,
                                            alpha_lr=0.5, theta_lr=0.2),
                           nas.Stage2Budget(iters=50, eval_interval=10,
                                            theta_lr=0.2),
                           seed=0)
    assert len(pts) == 1
    assert pts[0].lambda_used == 1.0


def test_pareto_sweep_empty_lambda_list():
    space = small_space()
    with pytest.raises(ValueError):
        nas.pareto_sweep(space, nas.OpCostSurrogate(space), nominal_table(space), [])


def test_pareto_sweep_skips_failing_lambda(caplog):
    space = small_space(reduction_cells=0)
    table = nominal_table(space)
    ev = nas.OpCostSurrogate(space, seed=0)
    # a negative lambda raises inside stage1; the sweep logs and keeps going
    with caplog.at_level("WARNING"):
        pts = nas.pareto_sweep(space, ev, table, [-1.0, 1.0],
                               nas.Stage1Budget(epochs=20, theta_iters=1,
                                                alpha_lr=0.5, theta_lr=0.2),
                               nas.Stage2Budget(iters=20, eval_interval=5,
                                                theta_lr=0.2),
                               seed=0)
    assert len(pts) == 1
    assert "skipping" in caplog.text


def test_pareto_sweep_logs_each_failing_lambda_in_order(caplog):
    space = small_space(reduction_cells=0)
    table = nominal_table(space)
    ev = nas.OpCostSurrogate(space, seed=0)
    with caplog.at_level("WARNING"):
        pts = nas.pareto_sweep(space, ev, table, [math.nan, 1.0, 1e308, -1.0],
                               nas.Stage1Budget(epochs=20, theta_iters=1,
                                                alpha_lr=0.5, theta_lr=0.2),
                               nas.Stage2Budget(iters=20, eval_interval=5,
                                                theta_lr=0.2),
                               seed=0)
    assert [p.lambda_used for p in pts] == [1.0]
    # one line per lambda with its reason: a bad lambda's SettingError, or the divergence
    assert [(r.getMessage(), r.exc_info) for r in caplog.records] == [
        (f"lambda={lam} failed, skipping: {reason}", None) for lam, reason in (
            ("nan", "lambda must be finite and >= 0, got nan"),
            ("1e+308", "non-finite logits at epoch 0"),
            ("-1.0", "lambda must be finite and >= 0, got -1.0"))]


def test_pareto_sweep_skips_every_lambda_on_a_table_with_no_latency_scale(caplog):
    space = small_space(reduction_cells=0)
    ev = nas.OpCostSurrogate(space, seed=0)
    lams = [0.0, 1.0, 0.5]
    with caplog.at_level("WARNING"):
        pts = nas.pareto_sweep(space, ev, _zero_table(space), lams,
                               nas.Stage1Budget(epochs=2), nas.Stage2Budget(iters=2), seed=0)
    assert pts == []
    assert [(r.getMessage(), r.exc_info) for r in caplog.records] == [
        (f"lambda={lam} failed, skipping: {_NO_SCALE}", None) for lam in lams]


def test_pareto_sweep_trains_each_distinct_architecture_once(monkeypatch):
    from paretotrack.nas import pareto

    space = small_space(reduction_cells=0)
    table = nominal_table(space)
    ev = nas.OpCostSurrogate(space, seed=0)
    trained = []

    def stage2_train(space, archs, *args):
        trained.append(archs)
        return nas.stage2_train(space, archs, *args)

    monkeypatch.setattr(pareto, "stage2_train", stage2_train)
    budget = nas.Stage1Budget(epochs=60, theta_iters=2, alpha_lr=0.5, theta_lr=0.2)
    lambdas = np.logspace(-3, 2.5, 12).tolist()
    front = nas.pareto_sweep(space, ev, table, lambdas, budget,
                             nas.Stage2Budget(iters=40, eval_interval=10, theta_lr=0.2),
                             seed=0)
    archs = [nas.discretize(r.logits, space)
             for r in nas.stage1_search(space, ev, table, lambdas, budget, seed=0)]
    distinct = list(dict.fromkeys(archs))  # in first-seen order
    assert trained == [distinct] and len(distinct) < len(lambdas)
    assert {p.arch for p in front} <= set(distinct)


# ------------------------------------------------------------- surrogates

def test_surrogate_rejects_unknown_split():
    space = small_space()
    ev = nas.QuadraticSurrogate(space)
    with pytest.raises(ValueError):
        ev.loss({k: np.zeros((space.n_positions, len(space.ops)))
                 for k in space.kinds()}, np.zeros(ev.theta_dim), "test")


def test_op_cost_surrogate_monotone_in_quality():
    # heavier op anywhere strictly lowers the loss
    space = small_space(reduction_cells=0, nodes=2)
    ev = nas.OpCostSurrogate(space, seed=0)
    theta = ev.theta_target

    def loss_of(op):
        arch = DiscreteArch(edges=(("normal", (0, 1), op),) if op else ())
        return ev.loss(one_hot_weights(arch, space), theta, "val")

    ordered = [None, "identity", "max_pool_3", "sep_conv_3", "sep_conv_7"]
    values = [loss_of(op) for op in ordered]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_surrogates_deterministic_given_seed():
    space = small_space()
    a = nas.OpCostSurrogate(space, seed=8)
    b = nas.OpCostSurrogate(space, seed=8)
    W = {k: np.full((space.n_positions, len(space.ops)), 1.0 / len(space.ops))
         for k in space.kinds()}
    th = np.zeros(a.theta_dim)
    assert a.loss(W, th) == b.loss(W, th)


def test_op_cost_grad_is_read_only_and_shared_across_calls():
    space = small_space()
    ev = nas.OpCostSurrogate(space, seed=2)
    W = {k: np.full((space.n_positions, len(space.ops)), 1.0 / len(space.ops))
         for k in space.kinds()}
    th = np.zeros(ev.theta_dim)
    before = ev.loss(W, th)
    g_w, _ = ev.grad(W, th)
    kind = space.kinds()[0]
    saved = g_w[kind].copy()
    with pytest.raises(ValueError, match="read-only"):
        g_w[kind][0, 0] = 1e9
    with pytest.raises(ValueError, match="read-only"):
        g_w[kind] *= 2.0
    g_w[kind] = np.zeros_like(saved)  # replacing a dict entry leaves the surrogate alone
    assert ev.loss(W, th) == before
    again, _ = ev.grad(W, th)
    assert again[kind] is ev.edge_cost[kind]
    assert again[kind].tobytes() == saved.tobytes()


def _loss_alone(ev, weights, theta):
    """Reference: one matrix per kind, reduced as whole-matrix sums and `dt @ dt`."""
    total, dt = 0.0, theta - ev.theta_target
    if isinstance(ev, nas.OpCostSurrogate):
        for kind, cost in ev.edge_cost.items():
            total += float((weights[kind] * cost).sum())
        return total + float(dt @ dt)
    for kind, target in ev.weight_targets.items():
        diff = weights[kind] - target
        total += float((ev.curvature[kind] * diff * diff).sum())
    return total + float((ev.theta_curvature * dt * dt).sum())


@pytest.mark.parametrize("surrogate", [nas.OpCostSurrogate, nas.QuadraticSurrogate])
@pytest.mark.parametrize("theta_dim", [0, 1, 4, 9, 33])
def test_surrogate_stack_gives_each_rows_own_loss_bit_for_bit(surrogate, theta_dim, rng):
    space = small_space(nodes=4)
    ev = surrogate(space, theta_dim=theta_dim, seed=3)
    rows = 7
    weights = {k: rng.dirichlet(np.ones(len(space.ops)), size=(rows, space.n_positions))
               for k in space.kinds()}
    theta = rng.normal(size=(rows, theta_dim))
    losses = ev.loss(weights, theta, "val")
    g_w, g_theta = ev.grad(weights, theta)
    assert len(losses) == rows
    for r in range(rows):
        one = {k: w[r] for k, w in weights.items()}
        alone = ev.loss(one, theta[r], "val")
        assert type(alone) is type(losses[r]) is float
        assert losses[r].hex() == alone.hex() == _loss_alone(ev, one, theta[r]).hex()
        g_w1, g_theta1 = ev.grad(one, theta[r])
        for k in space.kinds():
            batched = np.broadcast_to(g_w[k], weights[k].shape)[r]
            assert batched.tobytes() == np.asarray(g_w1[k], dtype=np.float64).tobytes()
        assert g_theta[r].tobytes() == g_theta1.tobytes()


@pytest.mark.parametrize("surrogate", [nas.OpCostSurrogate, nas.QuadraticSurrogate])
def test_surrogates_reject_a_negative_theta_dim(surrogate):
    space = small_space()
    with pytest.raises(ValueError, match=r"^theta_dim must be >= 0, got -1$"):
        surrogate(space, theta_dim=-1)
    uniform = {k: np.full((space.n_positions, len(space.ops)), 1.0 / len(space.ops))
               for k in space.kinds()}
    assert type(surrogate(space, theta_dim=0).loss(uniform, np.zeros(0))) is float
