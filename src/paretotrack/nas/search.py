"""Two-stage architecture optimization.

Stage 1 alternates a gradient step on the architecture logits with inner
gradient steps on the model parameters, both against the combined objective
loss + lambda * normalized expected latency, evaluating on the validation
split each epoch and keeping the best logits.  Stage 2 freezes a pruned
architecture and trains the parameters on the plain loss, checkpointing the
best validation value at a fixed interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..latency import LatencyTable, softmax_weights
from .space import (ArchLogits, DiscreteArch, SearchSpace, edge_latencies,
                    one_hot_weights, weighted_latency)
from .surrogate import SurrogateEvaluator


class SearchDivergedError(RuntimeError):
    """The search produced a non-finite loss."""

    def __init__(self, epoch: int, message: str = "non-finite loss"):
        super().__init__(f"{message} at epoch {epoch}")
        self.epoch = epoch


def _check_learning_rate(name: str, rate: float) -> None:
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {rate!r}")


@dataclass(frozen=True)
class Stage1Budget:
    epochs: int = 50
    theta_iters: int = 10
    alpha_lr: float = 0.05
    theta_lr: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.theta_iters < 0:
            raise ValueError("theta_iters must be >= 0")
        _check_learning_rate("alpha_lr", self.alpha_lr)
        _check_learning_rate("theta_lr", self.theta_lr)


@dataclass(frozen=True)
class Stage2Budget:
    iters: int = 200
    eval_interval: int = 10
    theta_lr: float = 0.01

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        _check_learning_rate("theta_lr", self.theta_lr)


@dataclass
class Stage1Result:
    arch: ArchLogits
    theta: np.ndarray
    best_val_loss: float
    val_history: list[float] = field(default_factory=list)


@dataclass
class Stage2Result:
    params: np.ndarray
    best_val_loss: float
    val_history: list[float] = field(default_factory=list)
    best_history: list[float] = field(default_factory=list)


def max_latency_ms(space: SearchSpace, table: LatencyTable) -> float:
    """Latency of the architecture putting all weight on the slowest op per edge."""
    lats = edge_latencies(space, table)
    one_hot = {kind: np.eye(len(v))[[np.argmax(v)] * space.n_positions]
               for kind, v in lats.items()}
    return weighted_latency(one_hot, lats)


def arch_weights(space: SearchSpace, arch: ArchLogits) -> dict[str, np.ndarray]:
    """Per-kind softmax weights, row per edge position."""
    return {kind: softmax_weights(arch.by_kind[kind]) for kind in space.kinds()}


def _objective(evaluator: SurrogateEvaluator, weights: dict[str, np.ndarray],
               theta: np.ndarray, split: str, lam: float,
               lat_vectors: dict[str, np.ndarray], norm: float) -> float:
    """Surrogate loss plus lambda times the relaxed latency over `norm`."""
    value = evaluator.loss(weights, theta, split)
    if lam > 0.0:
        value += lam * (weighted_latency(weights, lat_vectors) / norm)
    return value


def total_loss(
    space: SearchSpace,
    arch: ArchLogits,
    theta: np.ndarray,
    evaluator: SurrogateEvaluator,
    table: LatencyTable,
    lam: float,
    split: str = "train",
) -> float:
    """Tracking loss plus lambda times the normalized latency term.

    The latency term is expected latency divided by the max-latency
    architecture's value, so it lies in (0, 1] and lambda values stay
    comparable across tables.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
    return _objective(evaluator, arch_weights(space, arch), np.asarray(theta), split,
                      lam, edge_latencies(space, table), max_latency_ms(space, table))


def _alpha_gradient(
    space: SearchSpace,
    weights: dict[str, np.ndarray],
    theta: np.ndarray,
    evaluator: SurrogateEvaluator,
    lat_vectors: dict[str, np.ndarray],
    norm: float,
    lam: float,
) -> dict[str, np.ndarray]:
    """Exact gradient of total_loss w.r.t. the logits whose softmax is `weights`."""
    g_w, _ = evaluator.grad(weights, theta, "train")
    grads = {}
    for kind in space.kinds():
        w = weights[kind]
        g = np.asarray(g_w[kind], dtype=np.float64).copy()
        if lam > 0.0:
            g = g + lam * lat_vectors[kind][None, :] / norm
        # d loss / d logits = W * (g - (W . g)) per row
        dot = (w * g).sum(axis=1, keepdims=True)
        grads[kind] = w * (g - dot)
    return grads


def stage1_search(
    space: SearchSpace,
    evaluator: SurrogateEvaluator,
    table: LatencyTable,
    lam: float,
    budget: Stage1Budget = Stage1Budget(),
    seed: int = 0,
) -> Stage1Result:
    """Search the relaxed architecture under a latency-weighted objective.

    Per epoch: one gradient step on the logits, `theta_iters` gradient steps
    on the parameters (both on the train split), then a validation
    evaluation; the logits with the best validation total loss are returned.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
    rng = np.random.default_rng(seed)
    arch = ArchLogits.random(space, rng)
    theta = rng.normal(0.0, 0.5, size=evaluator.theta_dim)
    lat_vectors = edge_latencies(space, table)
    norm = max_latency_ms(space, table)

    best_val = math.inf
    best_arch = arch.copy()
    best_theta = theta.copy()
    history = []
    weights = arch_weights(space, arch)
    for epoch in range(budget.epochs):
        grads = _alpha_gradient(space, weights, theta, evaluator, lat_vectors, norm, lam)
        for kind in space.kinds():
            arch.by_kind[kind] -= budget.alpha_lr * grads[kind]
        if not arch.is_finite():
            raise SearchDivergedError(epoch, "non-finite logits")
        # these weights serve the theta steps, the validation and the next alpha step
        weights = arch_weights(space, arch)
        for _ in range(budget.theta_iters):
            _, g_theta = evaluator.grad(weights, theta, "train")
            theta = theta - budget.theta_lr * g_theta
        val = _objective(evaluator, weights, theta, "val", lam, lat_vectors, norm)
        if not math.isfinite(val):
            raise SearchDivergedError(epoch)
        history.append(val)
        if val < best_val:
            best_val = val
            best_arch = arch.copy()
            best_theta = theta.copy()
    return Stage1Result(
        arch=best_arch, theta=best_theta, best_val_loss=best_val, val_history=history
    )


def stage2_train(
    space: SearchSpace,
    arch: DiscreteArch,
    evaluator: SurrogateEvaluator,
    budget: Stage2Budget = Stage2Budget(),
    seed: int = 0,
) -> Stage2Result:
    """Train parameters for a frozen pruned architecture on the plain loss.

    No latency term: the architecture no longer changes.  The parameters at
    the best periodic validation evaluation are returned; with a zero budget
    the initial parameters come back untouched.
    """
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 0.5, size=evaluator.theta_dim)
    weights = one_hot_weights(arch, space)

    best_val = evaluator.loss(weights, theta, "val")
    best_theta = theta.copy()
    history = [best_val]
    best_history = [best_val]
    for t in range(1, budget.iters + 1):
        _, g_theta = evaluator.grad(weights, theta, "train")
        theta = theta - budget.theta_lr * g_theta
        if t % budget.eval_interval == 0 or t == budget.iters:
            val = evaluator.loss(weights, theta, "val")
            if not math.isfinite(val):
                raise SearchDivergedError(t)
            history.append(val)
            if val < best_val:
                best_val = val
                best_theta = theta.copy()
            best_history.append(best_val)
    return Stage2Result(
        params=best_theta,
        best_val_loss=best_val,
        val_history=history,
        best_history=best_history,
    )
