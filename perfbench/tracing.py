"""In-memory spans around each layer's public functions, for the traced run.

Nothing in the program is edited: ``instrument`` swaps each function for a
timing wrapper in the namespace of the module that calls it (for example
``positive_matching`` as ``assoc`` and ``metrics`` see it), and hands the
pluggable seams benchmark-owned subclasses (a counting surrogate evaluator
and a counting latency table).  Every swap is undone on exit.

A span is (name, start, end, parent index).  A layer is the part of a span
name before the first dot, and a layer's self time is its spans' durations
minus the time their child spans (and timed leaf calls) cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)  # by span name
        self.total_s: dict[str, float] = defaultdict(float)  # by span name
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` recording one span per call; ``pre``/``post`` update counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                self.total_s[name] += t1 - t0
                self.self_s[name] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def leaf(self, name, fn, args, kwargs):
        """Time a hot leaf call without keeping a span for it."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.counts[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt
            if self._stack:
                self._stack[-1][1] += dt

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ summaries

    def layer_self_ms(self, layer: str) -> float:
        return 1e3 * sum(v for k, v in self.self_s.items()
                         if k.partition(".")[0] == layer)

    def n_spans(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def child_counts(self, parent_name: str, child_name: str) -> list[int]:
        """For each ``parent_name`` span, how many ``child_name`` spans it holds."""
        kids: Counter = Counter()
        for name, _t0, _t1, parent in self.spans:
            if name == child_name and parent >= 0:
                kids[parent] += 1
        return [kids[i] for i, s in enumerate(self.spans) if s[0] == parent_name]

    def dump(self, path: str) -> None:
        with open(path, "w") as sink:
            for name, t0, t1, parent in self.spans:
                sink.write(json.dumps([name, t0, t1, parent]) + "\n")


@contextlib.contextmanager
def _patched(swaps):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _new in swaps]
    try:
        for obj, attr, new in swaps:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every layer boundary of the package through ``tracer``."""
    from paretotrack import assoc, cli, latency, metrics, nas, scoring, tracker
    from paretotrack.nas import pareto, search

    t = tracer
    c = t.counts

    def on_parse(args):
        c["kitti_io.lines"] += len(args[0])

    def on_score(args):
        c["scoring.pairs"] += len(args[0]) * len(args[1])

    def on_match(args):
        t.maxima["matching.max_k"] = max(t.maxima["matching.max_k"],
                                         max(np.shape(args[0])))

    def on_step(args):
        c["tracker.active_sum"] += len(args[0].active)
        if args[2]:
            c["tracker.frames_with_dets"] += 1

    def after_step(args, _result):
        state, frame = args[0], args[1]
        c["tracker.tentatives"] += sum(
            1 for tr in state.active
            if len(tr.detections) == 1 and tr.detections[0][0] == frame)

    def after_run(_args, result):
        c["tracker.confirmed"] += len(result)

    def on_stage1(args):
        c["nas.stage1_epochs"] += args[4].epochs

    def on_stage2(args):
        c["nas.stage2_iters"] += args[3].iters

    def after_sweep(_args, result):
        c["nas.front_size"] += len(result)

    class CountingSurrogate(nas.OpCostSurrogate):
        def loss(self, *args, **kwargs):
            return t.leaf("nas.surrogate", super().loss, args, kwargs)

        def grad(self, *args, **kwargs):
            return t.leaf("nas.surrogate", super().grad, args, kwargs)

    class CountingTable(latency.LatencyTable):
        def get(self, cfg):
            c["latency.lookups"] += 1
            return super().get(cfg)

    swaps = [
        (cli, "parse_sequence",
         t.wrap("kitti_io.parse_sequence", cli.parse_sequence, pre=on_parse)),
        (cli, "write_tracking_results",
         t.wrap("kitti_io.write_tracking_results", cli.write_tracking_results)),
        (cli, "run_sequence",
         t.wrap("tracker.run_sequence", cli.run_sequence, post=after_run)),
        (tracker, "step",
         t.wrap("tracker.step", tracker.step, pre=on_step, post=after_step)),
        (scoring, "baseline_scores",
         t.wrap("scoring.baseline_scores", scoring.baseline_scores, pre=on_score)),
        (tracker, "solve_exact", t.wrap("assoc.solve_exact", tracker.solve_exact)),
        (assoc, "positive_matching",
         t.wrap("matching.positive_matching", assoc.positive_matching, pre=on_match)),
        (metrics, "positive_matching",
         t.wrap("matching.positive_matching", metrics.positive_matching, pre=on_match)),
        (cli, "clear_mot", t.wrap("metrics.clear_mot", cli.clear_mot)),
        (metrics, "match_frame", t.wrap("metrics.match_frame", metrics.match_frame)),
        (cli, "profile_op", t.wrap("latency.profile_op", cli.profile_op)),
        (cli, "LatencyTable", CountingTable),
        (search, "softmax_weights",
         t.counted("latency.softmax_calls", search.softmax_weights)),
        (latency, "softmax_weights",
         t.counted("latency.softmax_calls", latency.softmax_weights)),
        (nas, "OpCostSurrogate", CountingSurrogate),
        (nas, "pareto_sweep",
         t.wrap("nas.pareto_sweep", nas.pareto_sweep, post=after_sweep)),
        (pareto, "stage1_search",
         t.wrap("nas.stage1_search", pareto.stage1_search, pre=on_stage1)),
        (pareto, "discretize", t.wrap("nas.discretize", pareto.discretize)),
        (pareto, "stage2_train",
         t.wrap("nas.stage2_train", pareto.stage2_train, pre=on_stage2)),
    ]
    with _patched(swaps):
        yield tracer


def per_layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced round, as name -> (value, unit)."""
    c = t.counts
    ms = lambda name: 1e3 * t.total_s[name]  # noqa: E731
    solves = t.n_spans("assoc.solve_exact")
    per_solve = t.child_counts("assoc.solve_exact", "matching.positive_matching")
    per_match_frame = t.child_counts("metrics.match_frame", "matching.positive_matching")
    steps = t.n_spans("tracker.step")
    return {
        "kitti_io.parse_ms": (ms("kitti_io.parse_sequence"), "ms"),
        "kitti_io.lines": (c["kitti_io.lines"], "count"),
        "kitti_io.write_ms": (ms("kitti_io.write_tracking_results"), "ms"),
        "scoring.calls": (t.n_spans("scoring.baseline_scores"), "count"),
        "scoring.pairs": (c["scoring.pairs"], "count"),
        "scoring.self_ms": (t.layer_self_ms("scoring"), "ms"),
        "matching.calls": (t.n_spans("matching.positive_matching"), "count"),
        "matching.max_k": (t.maxima["matching.max_k"], "count"),
        "matching.ms": (ms("matching.positive_matching"), "ms"),
        "assoc.solves": (solves, "count"),
        "assoc.refine_solves": (sum(1 for k in per_solve if k > 1), "count"),
        "assoc.matchings_per_solve": (sum(per_solve) / max(solves, 1), "ratio"),
        "assoc.self_ms": (t.layer_self_ms("assoc"), "ms"),
        "tracker.frames_walked": (steps, "count"),
        "tracker.frames_with_dets": (c["tracker.frames_with_dets"], "count"),
        "tracker.step_self_ms": (1e3 * t.self_s["tracker.step"], "ms"),
        "tracker.tentatives": (c["tracker.tentatives"], "count"),
        "tracker.confirmed": (c["tracker.confirmed"], "count"),
        "tracker.active_mean": (c["tracker.active_sum"] / max(steps, 1), "count"),
        "metrics.frames": (len(per_match_frame), "count"),
        "metrics.rematch_frames": (sum(1 for k in per_match_frame if k), "count"),
        "metrics.self_ms": (t.layer_self_ms("metrics"), "ms"),
        "cli.self_ms": (t.layer_self_ms("cli"), "ms"),
        "latency.lookups": (c["latency.lookups"], "count"),
        "latency.softmax_calls": (c["latency.softmax_calls"], "count"),
        "latency.profile_ms": (ms("latency.profile_op"), "ms"),
        "nas.stage1_ms": (ms("nas.stage1_search"), "ms"),
        "nas.stage1_epoch_us": (1e6 * t.total_s["nas.stage1_search"]
                                / max(c["nas.stage1_epochs"], 1), "us"),
        "nas.stage2_ms": (ms("nas.stage2_train"), "ms"),
        "nas.stage2_iter_us": (1e6 * t.total_s["nas.stage2_train"]
                               / max(c["nas.stage2_iters"], 1), "us"),
        "nas.discretize_ms": (ms("nas.discretize"), "ms"),
        "nas.surrogate_calls": (c["nas.surrogate"], "count"),
        "nas.surrogate_ms": (ms("nas.surrogate"), "ms"),
        "nas.front_size": (c["nas.front_size"], "count"),
    }
