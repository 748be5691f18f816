"""Two-stage architecture optimization.

Stage 1 alternates a gradient step on the architecture logits with inner
gradient steps on the model parameters, both against the combined objective
loss + lambda * normalized expected latency, evaluating on the validation
split each epoch and keeping the best logits.  Stage 2 freezes pruned
architectures and trains their parameters on the plain loss, checkpointing
the best validation value at a fixed interval.

Each stage runs its list of lambdas or architectures as one batch, which the
evaluator sees as a (rows, positions, ops) stack per cell kind, and each row
does bit for bit what a run with its lambda or architecture alone would.
Rows never mix, so a row whose values turn non-finite is masked and stays in
the batch: only its SearchDivergedError is read, and a stage stops once every
row has diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..latency import LatencyTable, _softmax, softmax_weights
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
    losses = evaluator.loss(weights, theta, split)
    return np.add(losses, lams * np.divide(weighted_latency(weights, lat_vectors), norm))


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
    kinds = space.kinds()
    # one (lambdas, kinds, positions, ops) array, so that each epoch checks, softmaxes
    # and keeps the logits of every kind in one pass; the evaluator gets a view per kind
    logits = np.repeat(rng.normal(0.0, 1e-2, size=(len(kinds), space.n_positions,
                                                   len(space.ops)))[None], len(lams), axis=0)
    theta = np.repeat(rng.normal(0.0, 0.5, size=(1, evaluator.theta_dim)), len(lams), axis=0)
    lat_vectors = edge_latencies(space, table)
    norm = max_latency_ms(space, table)
    best_logits, best_val = logits.copy(), np.full(len(lams), math.inf)
    history = np.empty((budget.epochs, len(lams)))  # validation totals by epoch and lambda
    alive, any_alive = np.ones(len(lams), dtype=bool), len(lams) > 0
    diverged: dict[int, SearchDivergedError] = {}  # row -> its first non-finite epoch

    # rows never mix, so a diverged row stays in the batch and only its error is read;
    # the finiteness checks find a diverging row, and a warning would fail every row
    with np.errstate(all="ignore"):
        weights = dict(zip(kinds, softmax_weights(logits).swapaxes(0, 1)))
        terms = _latency_terms(lat_vectors, norm, lams)
        for epoch in range(budget.epochs):
            grads = _logit_gradient(weights, theta, evaluator, terms)
            for k, kind in enumerate(kinds):
                logits[:, k] -= budget.alpha_lr * grads[kind]
            if not np.isfinite(logits).all():
                any_alive = _mark_diverged(alive, np.isfinite(logits).all(axis=(1, 2, 3)),
                                           diverged, epoch, "non-finite logits")
            if not any_alive:
                break
            # these weights serve the theta steps, the validation and the next alpha step
            weights = dict(zip(kinds, _softmax(logits).swapaxes(0, 1)))
            for _ in range(budget.theta_iters):
                _, g_theta = evaluator.grad(weights, theta, "train")
                theta -= budget.theta_lr * g_theta
            vals = history[epoch] = _objective(evaluator, weights, theta, "val", lams,
                                               lat_vectors, norm)
            better = vals < best_val  # a diverging row's best is never read
            np.copyto(best_val, vals, where=better)
            np.copyto(best_logits, logits, where=better[:, None, None, None])
            if not np.isfinite(vals).all():
                any_alive = _mark_diverged(alive, np.isfinite(vals), diverged, epoch)
    return [Stage1Result(
        logits=dict(zip(kinds, best_logits[i])), best_val_loss=float(best_val[i]),
        val_history=history[:, i].tolist())
        if live else diverged[i] for i, live in enumerate(alive.tolist())]


def _mark_diverged(alive: np.ndarray, ok: np.ndarray, diverged: dict[int, SearchDivergedError],
                   step: int, message: str = "non-finite loss", unit: str = "epoch") -> bool:
    """Mark the alive rows that are not `ok` diverged at `step`; whether any row is left."""
    diverged.update((i, SearchDivergedError(step, message, unit))
                    for i in np.flatnonzero(alive & ~ok).tolist())
    alive &= ok
    return bool(alive.any())


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
    alive = np.ones(len(archs), dtype=bool)
    diverged: dict[int, SearchDivergedError] = {}  # row -> its first non-finite checkpoint

    # as in stage 1, a diverged row stays in the batch and only its error is read
    with np.errstate(all="ignore"):
        vals = np.array(evaluator.loss(weights, theta, "val"), dtype=np.float64)
        best_val, best_theta = vals.copy(), theta.copy()
        history = [vals]  # validation losses by checkpoint and architecture
        for t in range(1, budget.iters + 1):
            _, g_theta = evaluator.grad(weights, theta, "train")
            theta = theta - budget.theta_lr * g_theta
            if t % budget.eval_interval == 0 or t == budget.iters:
                vals = np.array(evaluator.loss(weights, theta, "val"), dtype=np.float64)
                ok = np.isfinite(vals)
                if not (ok.all() or _mark_diverged(alive, ok, diverged, t, unit="iteration")):
                    break
                better = vals < best_val
                np.copyto(best_val, vals, where=better)
                np.copyto(best_theta, theta, where=better[:, None])
                history.append(vals)
    history = np.array(history)
    return [Stage2Result(params=best_theta[i], best_val_loss=float(best_val[i]),
                         val_history=history[:, i].tolist())
            if live else diverged[i] for i, live in enumerate(alive.tolist())]
