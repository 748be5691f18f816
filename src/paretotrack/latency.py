"""Per-operation latency measurement and lookup table.

Latencies are profiled per operation configuration (op kind, channels,
resolution, stride) into an exact-match lookup table.  The expected-latency
model of the search, the softmax-weighted sum of these table entries over
every edge, lives in `nas.space` (`edge_latencies`, `weighted_latency`).

Clocks return monotonically non-decreasing MILLISECONDS; the default wraps
time.perf_counter.  Tests inject scripted clocks, so nothing here depends on
wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np

CANDIDATE_OPS = (
    "none",
    "identity",
    "sep_conv_3",
    "sep_conv_5",
    "sep_conv_7",
    "dil_conv_3",
    "dil_conv_5",
    "max_pool_3",
    "avg_pool_3",
)

TABLE_HEADER = "latency-table v1"

# Nominal per-op cost factors for synthetic workloads and demo tables, scaled
# by channel and resolution terms in nominal_cost_ms.  Roughly ordered by the
# arithmetic the ops would perform.
_OP_COST_FACTOR = {
    "none": 0.0,
    "identity": 0.02,
    "max_pool_3": 0.12,
    "avg_pool_3": 0.13,
    "dil_conv_3": 0.55,
    "sep_conv_3": 0.60,
    "dil_conv_5": 0.85,
    "sep_conv_5": 0.95,
    "sep_conv_7": 1.30,
}


class ClockError(RuntimeError):
    """The injected clock went backwards."""


class TableFormatError(ValueError):
    """A latency-table line that does not parse or holds an invalid entry."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class LatencyLookupError(LookupError):
    """A requested operation configuration is missing from the table."""

    def __init__(self, cfg: "OpConfig"):
        super().__init__(f"no latency entry for {cfg}")
        self.config = cfg


@dataclass(frozen=True)
class OpConfig:
    op_name: str
    in_channels: int
    out_channels: int
    resolution: int
    stride: int

    def __post_init__(self):
        if self.op_name not in CANDIDATE_OPS:
            raise ValueError(f"unknown op {self.op_name!r}; expected one of {CANDIDATE_OPS}")
        for name in ("in_channels", "out_channels", "resolution", "stride"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class OpTemplate:
    """An OpConfig minus the op name; one per search-space edge."""

    in_channels: int
    out_channels: int
    resolution: int
    stride: int

    def with_op(self, op_name: str) -> OpConfig:
        return OpConfig(op_name, self.in_channels, self.out_channels,
                        self.resolution, self.stride)


@dataclass(frozen=True)
class LatencyEntry:
    mean_ms: float
    std_ms: float
    reps: int

    def __post_init__(self):
        if not (math.isfinite(self.mean_ms) and math.isfinite(self.std_ms)):
            raise ValueError("latency statistics must be finite")
        if self.mean_ms < 0 or self.std_ms < 0:
            raise ValueError("latency statistics must be non-negative")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


class LatencyTable:
    """Exact-match dictionary from OpConfig to measured latency statistics."""

    def __init__(self, entries: dict[OpConfig, LatencyEntry] | None = None):
        self._entries: dict[OpConfig, LatencyEntry] = dict(entries or {})

    def add(self, cfg: OpConfig, entry: LatencyEntry) -> None:
        self._entries[cfg] = entry

    def get(self, cfg: OpConfig) -> LatencyEntry:
        try:
            return self._entries[cfg]
        except KeyError:
            raise LatencyLookupError(cfg) from None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cfg: OpConfig) -> bool:
        return cfg in self._entries

    def items(self):
        return self._entries.items()

    def write(self, sink: IO[str]) -> None:
        sink.write(TABLE_HEADER + "\n")
        for cfg in sorted(self._entries, key=lambda c: (
                c.op_name, c.in_channels, c.out_channels, c.resolution, c.stride)):
            e = self._entries[cfg]
            sink.write(
                f"op={cfg.op_name} cin={cfg.in_channels} cout={cfg.out_channels} "
                f"res={cfg.resolution} stride={cfg.stride} "
                f"mean_ms={e.mean_ms!r} std_ms={e.std_ms!r} reps={e.reps}\n"
            )

    @classmethod
    def read(cls, source: Iterable[str] | IO[str]) -> "LatencyTable":
        lines = iter(source)
        header = next(lines, "").strip()
        if header != TABLE_HEADER:
            raise TableFormatError(1, f"expected header {TABLE_HEADER!r}, got {header!r}")
        table = cls()
        first_line: dict[OpConfig, int] = {}
        for lineno, raw in enumerate(lines, start=2):
            line = raw.strip()
            if not line:
                continue
            kv = {}
            for token in line.split():
                key, _, value = token.partition("=")
                if not _:
                    raise TableFormatError(lineno, f"malformed token {token!r}")
                kv[key] = value
            try:
                cfg = OpConfig(kv["op"], int(kv["cin"]), int(kv["cout"]),
                               int(kv["res"]), int(kv["stride"]))
                entry = LatencyEntry(float(kv["mean_ms"]), float(kv["std_ms"]),
                                     int(kv["reps"]))
            except KeyError as exc:
                raise TableFormatError(lineno, f"missing field {exc}") from None
            except ValueError as exc:
                raise TableFormatError(lineno, str(exc)) from None
            first = first_line.setdefault(cfg, lineno)
            if first != lineno:
                raise TableFormatError(
                    lineno, f"duplicate entry for {cfg}, first on line {first}")
            table.add(cfg, entry)
        return table


def default_clock() -> float:
    return time.perf_counter() * 1e3


def profile_op(
    workload: Callable[[], object],
    clock: Callable[[], float] | None = None,
    warmup: int = 10,
    reps: int = 100,
) -> LatencyEntry:
    """Time a workload reps times (after warmup discarded runs) and average.

    The mean is the arithmetic mean of the per-run durations; the population
    standard deviation is recorded alongside for diagnostics.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if clock is None:
        clock = default_clock
    for _i in range(warmup):
        workload()
    durations = []
    for _i in range(reps):
        t0 = clock()
        workload()
        t1 = clock()
        if t1 < t0:
            raise ClockError(f"clock went backwards: {t0} -> {t1}")
        durations.append(t1 - t0)
    mean = math.fsum(durations) / reps
    var = math.fsum((d - mean) ** 2 for d in durations) / reps
    return LatencyEntry(mean_ms=mean, std_ms=math.sqrt(var), reps=reps)


def softmax_weights(logits) -> np.ndarray:
    """Stable (max-subtracted) softmax along the last axis: weights summing to 1.

    Each row of a (rows, ops) matrix gets, bit for bit, the row's own softmax.
    """
    arr = np.atleast_1d(np.asarray(logits, dtype=np.float64))
    if arr.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    if not np.isfinite(arr).all():
        raise ValueError("softmax input must be finite")
    e = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def op_latencies(table: LatencyTable, template: OpTemplate) -> np.ndarray:
    """Table latency of each op of CANDIDATE_OPS, in order, on one edge template."""
    return np.array([table.get(template.with_op(op)).mean_ms for op in CANDIDATE_OPS])


def nominal_cost_ms(cfg: OpConfig) -> float:
    """Deterministic synthetic cost model for demo tables and scripted clocks."""
    scale = (cfg.in_channels * cfg.out_channels) / 256.0
    area = (cfg.resolution / 32.0) ** 2 / cfg.stride
    return _OP_COST_FACTOR[cfg.op_name] * scale * area


class ScriptedClock:
    """A clock advancing by a fixed schedule of steps; cycles when exhausted."""

    def __init__(self, steps_ms: Sequence[float]):
        if not steps_ms:
            raise ValueError("need at least one step")
        self.steps = list(steps_ms)
        self._i = 0
        self._now = 0.0

    def __call__(self) -> float:
        now = self._now
        self._now += self.steps[self._i % len(self.steps)]
        self._i += 1
        return now
