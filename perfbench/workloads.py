"""The workloads: seeded inputs, rounds of CLI commands, timing and accounting.

Both workloads run rounds of the same commands through ``cli.execute`` in
this one process (``--jobs 1``, no worker threads): set-up (a fresh
interpreter running ``profile-latency --clock synthetic``), ``track`` then
``evaluate`` on the workload's tracking input, the benchmark's own timed
pass over the tracker's frame loop, and a 5-lambda ``search`` on the c06
problem with the table set-up wrote.

* track-dense: 100 frames of about 45 detections.
* track-sparse: 800 frames with detections of 0-4 objects, over about 1600
  frame indices with five sensor-dropout gaps.

Operations are the frames tracked, the frames evaluated, the lambdas
searched and the output files written.  A round always attempts the same
operations, so the failed share of a run does not depend on its length.

Set-up, command and frame timings are taken at the host's full speed, as
``hostspeed`` describes.
"""

from __future__ import annotations

import gc
import io
import logging
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
import numpy as np

import checks
import hostspeed
import inputs
from tracing import Tracer

LAMBDAS = np.logspace(-3, 2.5, 129).tolist()
SEARCH_LAMBDAS = LAMBDAS[::32]  # 5 values, from 1e-3 up to 10**2.5
TRACK_FLAGS = ["--t-birth", str(inputs.T_BIRTH), "--t-death", str(inputs.T_DEATH),
               "--jobs", "1"]
SEARCH_FLAGS = ["--normal-cells", "1", "--reduction-cells", "0", "--nodes", "3",
                "--epochs", "200", "--theta-iters", "2", "--alpha-lr", "0.5",
                "--theta-lr", "0.2", "--stage2-iters", "300", "--eval-interval", "20",
                "--seed", "0", "--jobs", "1"]
PLOT_FAULT = "cannot take the reciprocal of a zero latency"


# name -> tracking input from the seed.  Both inputs track and evaluate a
# fixed number of frames on every seed, so a round attempts the same
# operations whatever the seed.
WORKLOADS = {
    "track-dense": lambda seed: inputs.dense_case(seed, 100),
    "track-sparse": lambda seed: inputs.sparse_case(seed, 800),
}

# Set-up in a fresh interpreter, host speed sampled as for the commands
# once the probe has warmed up; the last line out is the probes' total and
# mean time.
_SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[3]]
import hostspeed
warm_up = sum(hostspeed.probe() for _ in range(20))
with hostspeed.sampling() as window:
    from paretotrack import cli
    code = cli.execute(['profile-latency', '--out', sys.argv[2], '--clock', 'synthetic'])
print(warm_up + sum(window.probes), window.probe_s)
sys.exit(code)
"""


class _WarningCount(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _remove(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


class Bench:
    """One workload at one seed, with its inputs written under ``work``."""

    def __init__(self, name: str, seed: int, src: str, work: str, sampled: bool):
        self.src = src
        self.case = WORKLOADS[name](seed)
        self.path = {k: os.path.join(work, f"{k}.txt") for k in (
            "dets", "gt", "hyp", "track", "table", "traced_table", "front", "plot")}
        _write_lines(self.path["dets"], self.case.det_lines)
        _write_lines(self.path["gt"], self.case.gt_lines)
        if self.case.hyp_lines is not None:
            _write_lines(self.path["hyp"], self.case.hyp_lines)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        # Timed windows as (own time, probe time): per command one per round,
        # and per frame-loop pass one per frame with detections.
        self.sampled = sampled
        self.timed: dict[str, list[tuple[float, float]]] = {
            "track": [], "evaluate": [], "search": []}
        self.frame_s: list[list[tuple[float, float]]] = []
        self.setup_s: list[float] = []
        self.table: str | None = None
        self.warnings = _WarningCount()
        logging.getLogger("paretotrack.nas.pareto").addHandler(self.warnings)

    def close(self) -> None:
        logging.getLogger("paretotrack.nas.pareto").removeHandler(self.warnings)

    # ------------------------------------------------------------ set-up

    def setup(self) -> None:
        """A fresh interpreter imports the CLI and profiles the latency table;
        its time, without the probes, is kept at the host's full speed."""
        _remove(self.path["table"])
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, self.src, self.path["table"],
             os.path.dirname(os.path.abspath(__file__))],
            capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        probes_s, probe_s = map(float, proc.stdout.splitlines()[-1].split())
        self.setup_s.append(hostspeed.full_speed_s(wall - probes_s, probe_s))
        table = _read(self.path["table"])
        if self.table is None:
            self.table = table
            self.problem = checks.SweepProblem(table.splitlines())
        elif table != self.table:
            self.problems.append("profile-latency: the table differs between set-ups")

    # ------------------------------------------------------------ commands

    def _execute(self, argv: list[str], tracer: Tracer | None):
        from paretotrack import cli

        run = cli.execute if tracer is None else tracer.wrap("cli.execute", cli.execute)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err), \
                hostspeed.sampling(self.sampled) as window:
            code = run(argv)
        self.window = window
        return code, window.own_s, out.getvalue(), err.getvalue()

    def _record(self, command: str) -> None:
        if self.sampled:
            self.timed[command].append((self.window.own_s, self.window.probe_s))

    def _fail(self, what: str, n_ops: int, code: int, err: str) -> None:
        self.failed += n_ops
        self.problems.append(f"{what}: exit {code}: {err.strip()[-300:]}")

    def track(self, tracer=None) -> float:
        p, case = self.path, self.case
        _remove(p["track"])
        code, dt, _out, err = self._execute(
            ["track", "--dets", p["dets"], "--out", p["track"]] + TRACK_FLAGS, tracer)
        n_ops = case.frames_with_dets + 1
        self.attempted += n_ops
        if code != 0:
            self._fail("track", n_ops, code, err)
            return dt
        self.problems += checks.check_track(_read(p["track"]).splitlines(), case)
        self._record("track")
        return dt

    def evaluate(self, tracer=None) -> tuple[float, str]:
        p, case = self.path, self.case
        hyp = p["track"] if case.hyp_lines is None else p["hyp"]
        code, dt, out, err = self._execute(
            ["evaluate", "--gt", p["gt"], "--hyp", hyp, "--iou", "0.5", "--jobs", "1"],
            tracer)
        self.attempted += case.eval_frames
        if code != 0:
            self._fail("evaluate", case.eval_frames, code, err)
            return dt, out
        self.problems += checks.check_evaluate(out, case.expected_eval)
        self._record("evaluate")
        return dt, out

    def search(self, tracer=None) -> float:
        p = self.path
        _remove(p["front"], p["plot"])
        argv = ["search", "--table", p["table"], "--out", p["front"],
                "--plot-data", p["plot"],
                "--lambdas", ",".join(repr(x) for x in SEARCH_LAMBDAS)] + SEARCH_FLAGS
        code, dt, _out, err = self._execute(argv, tracer)
        self.attempted += len(SEARCH_LAMBDAS) + 2  # the lambdas and two files
        if self.warnings.count:
            self.failed += self.warnings.count
            self.problems.append(f"search: {self.warnings.count} lambdas skipped")
            self.warnings.count = 0
        if not os.path.exists(p["front"]):
            self._fail("search", 2, code, err)
            return dt
        front = _read(p["front"]).splitlines()
        self.problems += checks.check_front(front, self.problem, SEARCH_LAMBDAS)
        if code == 0:
            self.problems += checks.check_plot(_read(p["plot"]).splitlines(), front)
        elif code == 1 and PLOT_FAULT in err and not os.path.exists(p["plot"]):
            self.failed += 1  # the --plot-data fault on a zero-latency point
        else:
            self._fail("search", 1, code, err)
        self._record("search")
        return dt

    def frame_loop(self) -> None:
        """Time each frame of the loop ``run_sequence`` runs, from out here."""
        from paretotrack import kitti_io, scoring, tracker

        seq = kitti_io.parse_sequence(self.case.det_lines)
        scorer = scoring.BaselineScorer(scoring.ScorerConfig())
        state = tracker.TrackerState(
            config=tracker.TrackerConfig(inputs.T_BIRTH, inputs.T_DEATH))
        clock, probe = time.perf_counter, hostspeed.probe
        samples = []
        gc.collect()
        last = probe()  # the host's speed is taken between timed frames
        for frame in range(min(seq.frames), max(seq.frames) + 1):
            dets = seq.frames.get(frame, [])
            t0 = clock()
            scores = scorer(state.active, dets)
            tracker.step(state, frame, dets, scores)
            elapsed = clock() - t0
            if dets:
                now = probe()
                samples.append((elapsed, (last + now) / 2))
                last = now
        self.frame_s.append(samples)
        n_ids = len({line.split(" ", 2)[1] for line in self.case.expected_track})
        if state.next_id != n_ids:
            self.problems.append(f"frame loop: {state.next_id} identities, "
                                 f"expected {n_ids}")

    # ------------------------------------------------------------ rounds

    def round(self) -> None:
        self.setup()
        self.track()
        self.evaluate()
        self.frame_loop()
        self.search()

    def outputs_round(self, tracer: Tracer | None) -> tuple[float, dict[str, str]]:
        """A round's CLI commands, in process; returns their wall time and outputs."""
        code, wall, _out, err = self._execute(
            ["profile-latency", "--out", self.path["traced_table"],
             "--clock", "synthetic"], tracer)
        if code != 0:
            self.problems.append(f"profile-latency: exit {code}: {err.strip()}")
        wall += self.track(tracer)
        t_eval, report = self.evaluate(tracer)
        wall += t_eval + self.search(tracer)
        outputs = {"evaluate": report}
        for key in ("traced_table", "track", "front", "plot"):
            if os.path.exists(self.path[key]):
                outputs[key] = _read(self.path[key])
        return wall, outputs

    # ------------------------------------------------------------ metrics

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Timings at the host's full speed, each a median over the run."""
        import resource

        case, full = self.case, hostspeed.full_speed_s

        def command_s(command: str) -> float:
            return statistics.median(full(*w) for w in self.timed[command])

        # per frame, the median over passes; then percentiles over frames
        frame_ms = 1e3 * np.median([[full(*w) for w in p] for p in self.frame_s], axis=0)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "track_fps": (case.frames_with_dets / command_s("track"), "frames/s"),
            "frame_ms_p50": (float(np.median(frame_ms)), "ms"),
            "frame_ms_p95": (float(np.percentile(frame_ms, 95)), "ms"),
            "evaluate_fps": (case.eval_frames / command_s("evaluate"), "frames/s"),
            "search_lambdas_per_s": (len(SEARCH_LAMBDAS) / command_s("search"), "1/s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
