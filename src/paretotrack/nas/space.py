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

from ..latency import (CANDIDATE_OPS, LatencyEntry, LatencyTable, OpConfig, nominal_cost_ms,
                       softmax_weights)
from ..settings import AT_LEAST_0, AT_LEAST_1, AT_LEAST_2, AT_MOST_4096, check

KINDS = ("normal", "reduction")
# the image and LiDAR encoders: both share each cell kind's logits and are both priced
BRANCHES = 2


@dataclass(frozen=True)
class SpaceConfig:
    normal_cells: int = 1
    reduction_cells: int = 1
    nodes: int = 3
    channels: int = 16
    resolution: int = 32

    def __post_init__(self):
        check("nodes", self.nodes, AT_LEAST_2)
        check("normal_cells", self.normal_cells, AT_LEAST_0)
        check("reduction_cells", self.reduction_cells, AT_LEAST_0)
        if self.normal_cells + self.reduction_cells < 1:
            raise ValueError("need at least one cell")
        for name in ("channels", "resolution"):
            check(name, getattr(self, name), AT_LEAST_1)
        for name in ("channels", "resolution"):
            check(name, getattr(self, name), AT_MOST_4096)


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
        return BRANCHES * self.cell_count(kind)

    def op_configs(self, kind: str) -> list[OpConfig]:
        """Each op of CANDIDATE_OPS, in order, on one edge of a cell kind."""
        c, r = self.config.channels, self.config.resolution
        cout, stride = (c, 1) if kind == "normal" else (2 * c, 2)
        return [OpConfig(op, c, cout, r, stride) for op in CANDIDATE_OPS]


def init_search_space(cfg: SpaceConfig) -> SearchSpace:
    positions = tuple(
        (i, j) for j in range(1, cfg.nodes) for i in range(j)
    )
    return SearchSpace(config=cfg, positions=positions)


def nominal_table(space: SearchSpace) -> LatencyTable:
    """Every op configuration of the space, priced at its nominal cost."""
    return LatencyTable({cfg: LatencyEntry(nominal_cost_ms(cfg), 0.0, 1)
                         for kind in space.kinds() for cfg in space.op_configs(kind)})


@dataclass(frozen=True)
class DiscreteArch:
    """Retained edges after pruning: per kind, ((from, to), op) in edge order."""

    edges: tuple[tuple[str, tuple[int, int], str], ...]  # (kind, edge, op)

    def by_kind(self, kind: str) -> list[tuple[tuple[int, int], str]]:
        return [(e, op) for k, e, op in self.edges if k == kind]


def discretize(logits: dict[str, np.ndarray], space: SearchSpace) -> DiscreteArch:
    """Collapse relaxed logits, one (positions, ops) array per cell kind, to
    one op per edge, dropping weak structure.

    Per edge the argmax-weight op is kept (ties to the lowest op index) unless
    it is `none`, which deletes the edge.  Each node then keeps at most its
    two highest-weight incoming edges (ties to the lowest edge index).
    """
    ops = space.ops
    none_idx = ops.index("none")
    retained: list[tuple[str, tuple[int, int], str]] = []
    for kind in space.kinds():
        if np.shape(logits[kind]) != (space.n_positions, len(ops)):
            raise ValueError(
                f"logits for {kind!r} shaped {np.shape(logits[kind])}, expected "
                f"({space.n_positions}, {len(ops)})"
            )
        weights = softmax_weights(logits[kind])
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
        kind: np.array([table.get(cfg).mean_ms for cfg in space.op_configs(kind)])
        * space.instance_count(kind)
        for kind in space.kinds()
    }


def weighted_latency(weights: dict[str, np.ndarray],
                     lats: dict[str, np.ndarray]) -> float | list[float]:
    """fsum of weights[kind] * lats[kind] over every kind, edge position and op.

    This is the one latency model of the search: softmax weights give the
    relaxed latency, one-hot weights the latency of a discrete architecture.
    Weight stacks shaped (rows, positions, ops) give a list, one fsum per row.
    """
    terms = [weights[kind] * lats[kind] for kind in weights]
    rows = np.concatenate([t.reshape(*t.shape[:-2], -1) for t in terms], axis=-1)
    if rows.ndim == 1:
        return math.fsum(rows.tolist())
    return [math.fsum(row) for row in rows.tolist()]


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
