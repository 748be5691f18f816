"""DARTS-style cell search space with architecture logits shared across cells.

Cells come in two kinds, normal (channel-preserving) and reduction
(channel-doubling, stride 2).  Each cell is a DAG over `nodes` nodes with one
candidate operation per edge (i, j), i < j.  The per-edge op logits are shared
by every cell of the same kind and by both modality branches, so a search
space carries one logits matrix per kind, of shape (edge positions, ops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..latency import CANDIDATE_OPS, LatencyTable, OpTemplate, op_latencies

KINDS = ("normal", "reduction")


@dataclass(frozen=True)
class SpaceConfig:
    normal_cells: int = 1
    reduction_cells: int = 1
    nodes: int = 4
    branches: int = 2  # image + lidar encoders share the logits
    channels: int = 16
    resolution: int = 32

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("cells need at least 2 nodes")
        if self.normal_cells < 0 or self.reduction_cells < 0:
            raise ValueError("cell counts must be non-negative")
        if self.normal_cells + self.reduction_cells < 1:
            raise ValueError("need at least one cell")
        if self.branches < 1:
            raise ValueError("need at least one branch")
        if self.channels < 1 or self.resolution < 1:
            raise ValueError("channels and resolution must be positive")


@dataclass(frozen=True)
class SearchSpace:
    config: SpaceConfig
    positions: tuple[tuple[int, int], ...]  # edge (from, to) pairs, from < to

    @property
    def ops(self) -> tuple[str, ...]:
        return CANDIDATE_OPS

    @property
    def n_positions(self) -> int:
        return len(self.positions)

    def kinds(self) -> tuple[str, ...]:
        return tuple(k for k in KINDS if self.cell_count(k) > 0)

    def cell_count(self, kind: str) -> int:
        if kind == "normal":
            return self.config.normal_cells
        if kind == "reduction":
            return self.config.reduction_cells
        raise ValueError(f"unknown cell kind {kind!r}")

    def instance_count(self, kind: str) -> int:
        """Edge instances sharing one logit vector: every branch, every cell."""
        return self.config.branches * self.cell_count(kind)

    def total_edges(self) -> int:
        """Edges across all cells (branches share the cells' structure)."""
        return sum(self.cell_count(k) * self.n_positions for k in self.kinds())

    def op_template(self, kind: str) -> OpTemplate:
        c, r = self.config.channels, self.config.resolution
        if kind == "normal":
            return OpTemplate(in_channels=c, out_channels=c, resolution=r, stride=1)
        return OpTemplate(in_channels=c, out_channels=2 * c, resolution=r, stride=2)


def init_search_space(cfg: SpaceConfig) -> SearchSpace:
    positions = tuple(
        (i, j) for j in range(1, cfg.nodes) for i in range(j)
    )
    return SearchSpace(config=cfg, positions=positions)


class ArchLogits:
    """One (positions x ops) logits matrix per cell kind present in the space."""

    def __init__(self, by_kind: dict[str, np.ndarray]):
        self.by_kind = {}
        for kind, arr in by_kind.items():
            mat = np.asarray(arr, dtype=np.float64)
            if mat.ndim != 2:
                raise ValueError(f"logits for {kind!r} must be 2D")
            if not np.isfinite(mat).all():
                raise ValueError(f"logits for {kind!r} must be finite")
            self.by_kind[kind] = mat

    @classmethod
    def zeros(cls, space: SearchSpace) -> "ArchLogits":
        return cls({
            k: np.zeros((space.n_positions, len(space.ops))) for k in space.kinds()
        })

    @classmethod
    def random(cls, space: SearchSpace, rng: np.random.Generator,
               scale: float = 1e-2) -> "ArchLogits":
        return cls({
            k: rng.normal(0.0, scale, size=(space.n_positions, len(space.ops)))
            for k in space.kinds()
        })

    def copy(self) -> "ArchLogits":
        return ArchLogits({k: v.copy() for k, v in self.by_kind.items()})

    def is_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.by_kind.values())


@dataclass(frozen=True)
class DiscreteArch:
    """Retained edges after pruning: per kind, ((from, to), op) in edge order."""

    edges: tuple[tuple[str, tuple[int, int], str], ...]  # (kind, edge, op)

    def by_kind(self, kind: str) -> list[tuple[tuple[int, int], str]]:
        return [(e, op) for k, e, op in self.edges if k == kind]


def discretize(arch: ArchLogits, space: SearchSpace) -> DiscreteArch:
    """Collapse relaxed logits to one op per edge, dropping weak structure.

    Per edge the argmax-weight op is kept (ties to the lowest op index) unless
    it is `none`, which deletes the edge.  Each node then keeps at most its
    two highest-weight incoming edges (ties to the lowest edge index).
    """
    from .search import arch_weights

    ops = space.ops
    none_idx = ops.index("none")
    for kind in space.kinds():
        logits = arch.by_kind[kind]
        if logits.shape != (space.n_positions, len(ops)):
            raise ValueError(
                f"logits for {kind!r} shaped {logits.shape}, expected "
                f"({space.n_positions}, {len(ops)})"
            )
    retained: list[tuple[str, tuple[int, int], str]] = []
    for kind, weights in arch_weights(space, arch).items():
        best = weights.argmax(axis=1)  # argmax takes the lowest index on ties
        chosen = [(pos, edge, int(best[pos]), float(weights[pos, best[pos]]))
                  for pos, edge in enumerate(space.positions) if best[pos] != none_idx]
        by_node: dict[int, list[tuple[int, tuple[int, int], int, float]]] = {}
        for item in chosen:
            by_node.setdefault(item[1][1], []).append(item)
        for node in sorted(by_node):
            incoming = sorted(by_node[node], key=lambda it: (-it[3], it[0]))
            for pos, edge, op_idx, _w in sorted(incoming[:2]):
                retained.append((kind, edge, ops[op_idx]))
    return DiscreteArch(edges=tuple(retained))


def one_hot_weights(arch: DiscreteArch, space: SearchSpace) -> dict[str, np.ndarray]:
    """Simplex weights encoding a discrete arch; dropped edges sit on `none`."""
    ops = space.ops
    none_idx = ops.index("none")
    out = {}
    for kind in space.kinds():
        mat = np.zeros((space.n_positions, len(ops)))
        mat[:, none_idx] = 1.0
        for edge, op in arch.by_kind(kind):
            pos = space.positions.index(edge)
            mat[pos, :] = 0.0
            mat[pos, ops.index(op)] = 1.0
        out[kind] = mat
    return out


def edge_latencies(space: SearchSpace, table: LatencyTable) -> dict[str, np.ndarray]:
    """Per kind: instance-weighted latency of each candidate op on one edge."""
    return {
        kind: op_latencies(table, space.op_template(kind))
        * space.instance_count(kind)
        for kind in space.kinds()
    }


def weighted_latency(weights: dict[str, np.ndarray],
                     lats: dict[str, np.ndarray]) -> float:
    """fsum of weights[kind] * lats[kind] over every kind, edge position and op.

    This is the one latency model of the search: softmax weights give the
    relaxed latency, one-hot weights the latency of a discrete architecture.
    """
    return math.fsum(
        x for kind in weights for x in (weights[kind] * lats[kind]).ravel().tolist()
    )


def discrete_latency(arch: DiscreteArch, space: SearchSpace,
                     table: LatencyTable) -> float:
    """Latency of a pruned architecture: retained ops over all edge instances."""
    weights = one_hot_weights(arch, space)
    for w in weights.values():
        w[:, space.ops.index("none")] = 0.0  # a dropped edge costs nothing
    return weighted_latency(weights, edge_latencies(space, table))


def format_discrete_arch(arch: DiscreteArch) -> str:
    """`kind.from-to:op` per retained edge, comma separated, deterministic order."""
    parts = [f"{kind}.{e[0]}-{e[1]}:{op}" for kind, e, op in arch.edges]
    return ",".join(parts) if parts else "empty"
