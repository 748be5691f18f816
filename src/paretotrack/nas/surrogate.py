"""Analytic stand-ins for the tracking loss driving the architecture search.

An evaluator maps (per-edge op weights, model parameters theta) to a scalar
loss and provides exact gradients in both arguments; the search machinery is
agnostic to what is underneath.  Both evaluators here are deterministic given
their seed and treat the train/val split tags as the same objective, which
keeps closed-form optima checkable.

Given weight stacks shaped (rows, positions, ops) and theta shaped (rows,
theta_dim), both return a list with, bit for bit, each row's loss alone.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..settings import AT_LEAST_0, check
from .space import SearchSpace

SPLITS = ("train", "val")

# Per-op usefulness for the cost surrogate, anti-aligned with the nominal
# latency factors so that cheaper architectures track worse: heavier ops buy
# lower loss at higher latency, with diminishing returns (quality roughly
# follows the square root of the op's nominal cost, so the per-edge
# latency/cost options lie on a convex trade-off curve).
_OP_QUALITY = {
    "none": 0.0,
    "identity": 0.124,
    "max_pool_3": 0.304,
    "avg_pool_3": 0.316,
    "dil_conv_3": 0.650,
    "sep_conv_3": 0.679,
    "dil_conv_5": 0.809,
    "sep_conv_5": 0.855,
    "sep_conv_7": 1.0,
}


class SurrogateEvaluator(Protocol):
    """Differentiable loss over (edge-op weights, theta) with a split tag, per row of a stack."""

    theta_dim: int

    def loss(self, weights: dict[str, np.ndarray], theta: np.ndarray,
             split: str = "train") -> float | list[float]: ...

    def grad(self, weights: dict[str, np.ndarray], theta: np.ndarray,
             split: str = "train") -> tuple[dict[str, np.ndarray], np.ndarray]: ...


def _check_split(split: str) -> None:
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")


class QuadraticSurrogate:
    """Separable quadratic bowl with a known minimizer in weight/theta space.

    loss = sum a[e,o] * (W[e,o] - W*[e,o])^2 + sum c[k] * (theta[k] - theta*[k])^2

    The weight targets W* are interior simplex points, so the optimum is
    attainable by softmax-parameterized weights.
    """

    def __init__(self, space: SearchSpace, theta_dim: int = 4, seed: int = 0):
        check("theta_dim", theta_dim, AT_LEAST_0)
        rng = np.random.default_rng(seed)
        self.theta_dim = theta_dim
        self.space = space
        self.weight_targets = {}
        self.curvature = {}
        for kind in space.kinds():
            raw = rng.uniform(0.5, 1.5, size=(space.n_positions, len(space.ops)))
            self.weight_targets[kind] = raw / raw.sum(axis=1, keepdims=True)
            self.curvature[kind] = rng.uniform(0.5, 2.0,
                                               size=(space.n_positions, len(space.ops)))
        self.theta_target = rng.uniform(-1.0, 1.0, size=theta_dim)
        self.theta_curvature = rng.uniform(0.5, 2.0, size=theta_dim)

    def loss(self, weights, theta, split="train"):
        _check_split(split)
        total = 0.0
        for kind, target in self.weight_targets.items():
            diff = np.asarray(weights[kind]) - target
            total = total + (self.curvature[kind] * diff * diff).sum(axis=(-2, -1))
        dt = np.asarray(theta) - self.theta_target
        return (total + (self.theta_curvature * dt * dt).sum(axis=-1)).tolist()

    def grad(self, weights, theta, split="train"):
        _check_split(split)
        g_w = {}
        for kind, target in self.weight_targets.items():
            diff = np.asarray(weights[kind]) - target
            g_w[kind] = 2.0 * self.curvature[kind] * diff
        dt = np.asarray(theta) - self.theta_target
        return g_w, 2.0 * self.theta_curvature * dt


class OpCostSurrogate:
    """Monotone trade-off surrogate: expressive (slow) ops lower the loss.

    loss = weighted mean over edges of sum_o W[e,o] * (1 - quality(o))
         + ||theta - theta*||^2

    Each edge carries its own sensitivity drawn from the seed, so different
    edges trade quality against latency at different rates and mixed-op
    architectures populate the latency/loss frontier.  Linear in the weights,
    so the discrete loss of an architecture equals the relaxed loss at its
    one-hot encoding and enumeration oracles stay exact.
    """

    def __init__(self, space: SearchSpace, theta_dim: int = 4, seed: int = 0):
        check("theta_dim", theta_dim, AT_LEAST_0)
        rng = np.random.default_rng(seed)
        self.theta_dim = theta_dim
        self.space = space
        base = np.array([1.0 - _OP_QUALITY[op] for op in space.ops])
        sensitivity = {
            kind: rng.uniform(0.4, 1.6, size=space.n_positions)
            for kind in space.kinds()
        }
        norm = sum(s.sum() for s in sensitivity.values())
        self.edge_cost = {
            kind: sensitivity[kind][:, None] * base[None, :] / norm
            for kind in space.kinds()
        }
        for cost in self.edge_cost.values():
            cost.flags.writeable = False  # grad hands these out uncopied
        self.theta_target = rng.uniform(-1.0, 1.0, size=theta_dim)

    def loss(self, weights, theta, split="train"):
        _check_split(split)
        total = 0.0
        for kind, cost in self.edge_cost.items():
            total = total + (np.asarray(weights[kind]) * cost).sum(axis=(-2, -1))
        dt = np.asarray(theta) - self.theta_target
        # per row the dot product of dt @ dt (einsum would sum in another order)
        return (total + (dt[..., None, :] @ dt[..., None])[..., 0, 0]).tolist()

    def grad(self, weights, theta, split="train"):
        _check_split(split)
        # constant in the weights, so one read-only matrix serves every row
        # of a stack and every call
        g_w = dict(self.edge_cost)
        dt = np.asarray(theta) - self.theta_target
        return g_w, 2.0 * dt
