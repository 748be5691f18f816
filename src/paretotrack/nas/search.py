"""Two-stage architecture optimization.

Stage 1 alternates a gradient step on the architecture logits with inner
gradient steps on the model parameters, both against the combined objective
loss + lambda * normalized expected latency, evaluating on the validation
split each epoch and keeping the best logits.  It runs a list of lambdas as
one batch, a (lambdas, positions, ops) logits tensor per cell kind, and each
row does bit for bit what a run with its lambda alone would.  Stage 2
freezes pruned architectures and trains their parameters on the plain loss,
checkpointing the best validation value at a fixed interval.  It runs a list
of architectures as one batch, a (architectures, positions, ops) one-hot
stack per cell kind, and each row does bit for bit what a run with its
architecture alone would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..latency import LatencyTable, softmax_weights
from ..settings import AT_LEAST_0, AT_LEAST_1, RATE, check
from .space import (DiscreteArch, SearchSpace, edge_latencies, one_hot_weights,
                    weighted_latency)
from .surrogate import SurrogateEvaluator


class SearchDivergedError(RuntimeError):
    """The search produced a non-finite value at a stage-1 epoch or a stage-2 iteration."""

    def __init__(self, step: int, message: str = "non-finite loss", unit: str = "epoch"):
        super().__init__(f"{message} at {unit} {step}")
        self.step = step


@dataclass(frozen=True)
class Stage1Budget:
    epochs: int = 50
    theta_iters: int = 10
    alpha_lr: float = 0.05
    theta_lr: float = 0.01

    def __post_init__(self):
        check("epochs", self.epochs, AT_LEAST_1)
        check("theta_iters", self.theta_iters, AT_LEAST_0)
        check("alpha_lr", self.alpha_lr, RATE)
        check("theta_lr", self.theta_lr, RATE)


@dataclass(frozen=True)
class Stage2Budget:
    iters: int = 200
    eval_interval: int = 10
    theta_lr: float = 0.01

    def __post_init__(self):
        check("iters", self.iters, AT_LEAST_0)
        check("eval_interval", self.eval_interval, AT_LEAST_1)
        check("theta_lr", self.theta_lr, RATE)


@dataclass
class Stage1Result:
    logits: dict[str, np.ndarray]  # one (positions, ops) array per cell kind
    theta: np.ndarray
    best_val_loss: float
    val_history: list[float] = field(default_factory=list)


@dataclass
class Stage2Result:
    params: np.ndarray
    best_val_loss: float
    val_history: list[float] = field(default_factory=list)


def max_latency_ms(space: SearchSpace, table: LatencyTable) -> float:
    """Latency of the architecture putting all weight on the slowest op per edge: the
    latency term's scale, so a table pricing every op of the space at 0 ms raises ValueError."""
    lats = edge_latencies(space, table)
    one_hot = {kind: np.eye(len(v))[[np.argmax(v)] * space.n_positions]
               for kind, v in lats.items()}
    norm = weighted_latency(one_hot, lats)
    if norm == 0.0:
        raise ValueError("every op of the search space costs 0 ms, "
                         "so the latency term has no scale")
    return norm


def arch_weights(space: SearchSpace, logits: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-kind softmax weights, row per edge position."""
    return {kind: softmax_weights(logits[kind]) for kind in space.kinds()}


def _objective(evaluator: SurrogateEvaluator, weights: dict[str, np.ndarray],
               theta: np.ndarray, split: str, lams: np.ndarray,
               lat_vectors: dict[str, np.ndarray], norm: float) -> np.ndarray:
    """Per row: surrogate loss plus lambda times the relaxed latency over `norm`."""
    losses = np.array(evaluator.loss(weights, theta, split))
    lats = np.array(weighted_latency(weights, lat_vectors))
    return losses + lams * (lats / norm)


def total_loss(
    space: SearchSpace,
    logits: dict[str, np.ndarray],
    theta: np.ndarray,
    evaluator: SurrogateEvaluator,
    table: LatencyTable,
    lam: float,
    split: str = "train",
) -> float:
    """Tracking loss plus lambda times the normalized latency term.

    The latency term is expected latency divided by the max-latency
    architecture's value, so it lies in (0, 1] and lambda values stay
    comparable across tables.  A table whose every op costs 0 ms gives the
    latency term no scale, so it raises ValueError whatever the lambda.
    """
    weights = {kind: w[None] for kind, w in arch_weights(space, logits).items()}
    lams = np.array([check("lambda", lam, RATE)])
    with np.errstate(all="ignore"):
        return float(_objective(evaluator, weights, np.asarray(theta)[None], split, lams,
                                edge_latencies(space, table), max_latency_ms(space, table))[0])


def _latency_terms(lat_vectors: dict[str, np.ndarray], norm: float,
                   lams: np.ndarray | float) -> dict[str, np.ndarray]:
    """Per kind and row: lambda times the edge latencies over `norm`, the latency
    term's gradient in the weights."""
    lams = np.asarray(lams)[..., None, None]
    return {kind: lams * v / norm for kind, v in lat_vectors.items()}


def _logit_gradient(weights: dict[str, np.ndarray], theta: np.ndarray,
                    evaluator: SurrogateEvaluator,
                    terms: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradient w.r.t. the logits whose softmax is `weights`, with each row's
    latency term from `terms` added."""
    g_w, _ = evaluator.grad(weights, theta, "train")
    grads = {}
    for kind, w in weights.items():
        g = g_w[kind] + terms[kind]
        # d loss / d logits = W * (g - (W . g)) per row
        dot = (w * g).sum(axis=-1, keepdims=True)
        grads[kind] = w * (g - dot)
    return grads


def _alpha_gradient(weights: dict[str, np.ndarray], theta: np.ndarray,
                    evaluator: SurrogateEvaluator, lat_vectors: dict[str, np.ndarray],
                    norm: float, lams: np.ndarray | float) -> dict[str, np.ndarray]:
    """Exact gradient of total_loss w.r.t. the logits whose softmax is `weights`, per row."""
    return _logit_gradient(weights, theta, evaluator, _latency_terms(lat_vectors, norm, lams))


def stage1_search(
    space: SearchSpace,
    evaluator: SurrogateEvaluator,
    table: LatencyTable,
    lambdas: Sequence[float],
    budget: Stage1Budget = Stage1Budget(),
    seed: int = 0,
) -> list[Stage1Result | SearchDivergedError]:
    """Search the relaxed architecture under each latency weight of `lambdas`.

    Per epoch: one gradient step on the logits, `theta_iters` gradient steps
    on the parameters (both on the train split), then a validation
    evaluation; each lambda gets the logits of its first best validation
    total loss, or a SearchDivergedError if its logits or loss turn non-finite.
    """
    lams = np.array([check("lambda", lam, RATE) for lam in lambdas], dtype=np.float64)
    rng = np.random.default_rng(seed)
    shape = (space.n_positions, len(space.ops))
    logits = {kind: np.repeat(rng.normal(0.0, 1e-2, size=shape)[None], len(lams), axis=0)
              for kind in space.kinds()}
    theta = np.repeat(rng.normal(0.0, 0.5, size=(1, evaluator.theta_dim)), len(lams), axis=0)
    lat_vectors = edge_latencies(space, table)
    norm = max_latency_ms(space, table)
    live = np.arange(len(lams))  # batch row -> index in `lambdas`
    best_logits = {kind: v.copy() for kind, v in logits.items()}
    best_theta, best_val = theta.copy(), np.full(len(lams), math.inf)
    # validation totals by epoch and lambda; NaN where a row was not validated
    history = np.full((budget.epochs, len(lams)), math.nan)
    diverged: dict[int, SearchDivergedError] = {}

    def keep(ok: np.ndarray, epoch: int, message: str) -> None:
        nonlocal live, lams, theta, logits, weights, terms
        if not ok.all():
            diverged.update((i, SearchDivergedError(epoch, message)) for i in live[~ok].tolist())
            live, lams, theta = live[ok], lams[ok], theta[ok]
            logits, weights, terms = ({kind: v[ok] for kind, v in d.items()}
                                      for d in (logits, weights, terms))

    # the finiteness checks find a diverging row; a warning would fail every row
    with np.errstate(all="ignore"):
        weights = {kind: softmax_weights(v) for kind, v in logits.items()}
        terms = _latency_terms(lat_vectors, norm, lams)
        for epoch in range(budget.epochs):
            grads = _logit_gradient(weights, theta, evaluator, terms)
            for kind in logits:
                logits[kind] -= budget.alpha_lr * grads[kind]
            if not all(np.isfinite(v).all() for v in logits.values()):
                keep(np.logical_and.reduce([np.isfinite(v).all(axis=(1, 2))
                                            for v in logits.values()]), epoch, "non-finite logits")
            if not live.size:
                break
            # these weights serve the theta steps, the validation and the next alpha step
            weights = {kind: softmax_weights(v) for kind, v in logits.items()}
            for _ in range(budget.theta_iters):
                _, g_theta = evaluator.grad(weights, theta, "train")
                theta = theta - budget.theta_lr * g_theta
            vals = _objective(evaluator, weights, theta, "val", lams, lat_vectors, norm)
            history[epoch, live] = vals
            ok = np.isfinite(vals)
            better = ok & (vals < best_val[live])
            if better.any():
                rows = live[better]
                best_val[rows] = vals[better]
                for kind, v in logits.items():
                    best_logits[kind][rows] = v[better]
                best_theta[rows] = theta[better]
            keep(ok, epoch, "non-finite loss")
    return [diverged[i] if i in diverged else Stage1Result(
        logits={kind: v[i] for kind, v in best_logits.items()}, theta=best_theta[i],
        best_val_loss=float(best_val[i]),
        val_history=history[np.isfinite(history[:, i]), i].tolist()) for i in range(len(best_val))]


def stage2_train(
    space: SearchSpace,
    archs: Sequence[DiscreteArch],
    evaluator: SurrogateEvaluator,
    budget: Stage2Budget = Stage2Budget(),
    seed: int = 0,
) -> list[Stage2Result | SearchDivergedError]:
    """Train parameters for each frozen pruned architecture of `archs` on the plain loss.

    No latency term: the architectures no longer change.  Every architecture
    starts from the same seeded parameters; each gets the parameters at its
    best periodic validation evaluation, or a SearchDivergedError at the first
    checkpoint whose loss is non-finite.  With a zero budget the initial
    parameters come back untouched.
    """
    rng = np.random.default_rng(seed)
    theta = np.repeat(rng.normal(0.0, 0.5, size=(1, evaluator.theta_dim)), len(archs), axis=0)
    hot = [one_hot_weights(arch, space) for arch in archs]
    weights = {kind: np.array([h[kind] for h in hot]).reshape(
        len(archs), space.n_positions, len(space.ops)) for kind in space.kinds()}
    live = np.arange(len(archs))  # batch row -> index in `archs`
    diverged: dict[int, SearchDivergedError] = {}

    # a non-finite checkpoint finds a diverging row; a warning would fail every row
    with np.errstate(all="ignore"):
        vals = evaluator.loss(weights, theta, "val")
        best_val, best_theta = np.array(vals, dtype=np.float64), theta.copy()
        history = [[val] for val in vals]
        for t in range(1, budget.iters + 1):
            _, g_theta = evaluator.grad(weights, theta, "train")
            theta = theta - budget.theta_lr * g_theta
            if t % budget.eval_interval == 0 or t == budget.iters:
                vals = np.array(evaluator.loss(weights, theta, "val"), dtype=np.float64)
                ok = np.isfinite(vals)
                if not ok.all():
                    diverged.update((i, SearchDivergedError(t, unit="iteration"))
                                    for i in live[~ok].tolist())
                    live, vals, theta = live[ok], vals[ok], theta[ok]
                    weights = {kind: v[ok] for kind, v in weights.items()}
                    if not live.size:
                        break
                better = vals < best_val[live]
                if better.any():
                    best_val[live[better]] = vals[better]
                    best_theta[live[better]] = theta[better]
                for i, val in zip(live.tolist(), vals.tolist()):
                    history[i].append(val)
    return [diverged[i] if i in diverged else Stage2Result(
        params=best_theta[i], best_val_loss=float(best_val[i]), val_history=history[i])
        for i in range(len(archs))]
