"""Negative controls: each output check passes on the program's real output
and fails on a planted fault.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
from paretotrack.cli import execute  # noqa: E402
from workloads import (  # noqa: E402
    LAMBDAS, PLOT_FAULT, SEARCH_FLAGS, SEARCH_LAMBDAS, TRACK_FLAGS)


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


@pytest.fixture(scope="module")
def dense():
    return inputs.dense_case(seed=7, n_frames=40)


@pytest.fixture(scope="module")
def problem(tmp_path_factory):
    table = tmp_path_factory.mktemp("table") / "table.txt"
    assert execute(["profile-latency", "--out", str(table), "--clock", "synthetic"]) == 0
    return checks.SweepProblem(table.read_text().splitlines()), str(table)


def _skipped(caplog):
    """The lambdas pareto_sweep skipped, from its warnings."""
    return [r for r in caplog.records
            if r.name == "paretotrack.nas.pareto" and r.levelno >= logging.WARNING]


def test_full_sweep_meets_every_front_check(tmp_path, capsys, caplog, problem):
    """The c06 sweep over all 129 lambdas: exact front, hypervolume floor,
    no lambda skipped, and the --plot-data fault on the zero-latency point."""
    sweep, table = problem
    front, plot = tmp_path / "front.txt", tmp_path / "plot.txt"
    code = execute(["search", "--table", table, "--out", str(front),
                    "--plot-data", str(plot),
                    "--lambdas", ",".join(repr(x) for x in LAMBDAS)] + SEARCH_FLAGS)
    err = capsys.readouterr().err
    assert code == 1 and PLOT_FAULT in err and not plot.exists()
    assert _skipped(caplog) == []
    lines = front.read_text().splitlines()
    assert checks.check_front(lines, sweep, LAMBDAS) == []
    assert checks.check_hypervolume(checks.front_points(lines),
                                    sweep.enumerated_front()) == []


def test_skip_check_catches_one_failing_lambda(tmp_path, caplog, monkeypatch, problem):
    from paretotrack.nas import pareto

    _sweep, table = problem
    real = pareto.sweep_point

    def sweep_point(space, evaluator, table, lam, *args):
        if lam == SEARCH_LAMBDAS[2]:
            raise RuntimeError("planted failure")
        return real(space, evaluator, table, lam, *args)

    monkeypatch.setattr(pareto, "sweep_point", sweep_point)
    assert execute(["search", "--table", table, "--out", str(tmp_path / "front.txt"),
                    "--lambdas", ",".join(repr(x) for x in SEARCH_LAMBDAS)]
                   + SEARCH_FLAGS) == 0
    assert len(_skipped(caplog)) == 1


def _evaluate(tmp_path, capsys, case, hyp_lines):
    capsys.readouterr()
    assert execute(["evaluate", "--gt", _write(tmp_path / "gt.txt", case.gt_lines),
                    "--hyp", _write(tmp_path / "hyp.txt", hyp_lines)]) == 0
    return capsys.readouterr().out


def test_evaluate_check_catches_one_extra_id_swap(tmp_path, capsys, dense):
    out = _evaluate(tmp_path, capsys, dense, dense.hyp_lines)
    assert checks.check_evaluate(out, dense.expected_eval) == []

    frame = 20  # no planted swap on this frame, so this one adds two IDSW
    ids = sorted({int(l.split()[1]) for l in dense.hyp_lines
                  if int(l.split()[0]) == frame and int(l.split()[1]) < 1000})
    a, b = ids[0], ids[1]
    swapped = []
    for line in dense.hyp_lines:
        f, tid, tail = line.split(" ", 2)
        if int(f) >= frame and int(tid) in (a, b):
            tid = str(b if int(tid) == a else a)
        swapped.append(f"{f} {tid} {tail}")
    out = _evaluate(tmp_path, capsys, dense, swapped)
    assert checks.check_evaluate(out, dense.expected_eval)


@pytest.mark.parametrize("make", [lambda: inputs.dense_case(3, 40),
                                  lambda: inputs.sparse_case(3, 400)],
                         ids=["dense", "sparse"])
def test_track_check_catches_one_removed_line(tmp_path, capsys, make):
    case = make()
    out = tmp_path / "out.txt"
    assert execute(["track", "--dets", _write(tmp_path / "dets.txt", case.det_lines),
                    "--out", str(out)] + TRACK_FLAGS) == 0
    lines = out.read_text().splitlines()
    assert checks.check_track(lines, case) == []
    del lines[len(lines) // 2]
    assert checks.check_track(lines, case)


def test_front_check_catches_one_ulp_latency(tmp_path, capsys, problem):
    sweep, table = problem
    front = tmp_path / "front.txt"
    assert execute(["search", "--table", table, "--out", str(front), "--lambdas",
                    ",".join(repr(x) for x in SEARCH_LAMBDAS)] + SEARCH_FLAGS) == 0
    lines = front.read_text().splitlines()
    assert checks.check_front(lines, sweep, SEARCH_LAMBDAS) == []

    moved = []
    for i, line in enumerate(lines):
        if i == len(lines) // 2:
            lat = float(line.split("latency_ms=")[1].split()[0])
            line = line.replace(f"latency_ms={lat!r}",
                                f"latency_ms={math.nextafter(lat, math.inf)!r}")
        moved.append(line)
    assert moved != lines
    assert checks.check_front(moved, sweep, SEARCH_LAMBDAS)


def _enumerated_lines(sweep):
    """Front lines for every non-dominated architecture of the space."""
    best = {}
    for combo in itertools.product(sweep.ops, repeat=len(sweep.positions)):
        edges = [(e, op) for e, op in zip(sweep.positions, combo) if op != "none"]
        key = (sweep.latency(edges), sweep.loss(edges))
        best.setdefault(key, edges)
    lines = []
    for lat, loss in checks.front_of(list(best)):
        arch = ",".join(f"normal.{a}-{b}:{op}" for (a, b), op in best[(lat, loss)])
        lines.append(f"lambda={LAMBDAS[0]!r} latency_ms={lat!r} loss={loss!r} "
                     f"arch={arch or 'empty'}")
    return lines


def test_front_check_catches_missed_hypervolume_floor(problem):
    sweep, _table = problem
    true_front = sweep.enumerated_front()
    lines = _enumerated_lines(sweep)
    assert checks.check_front(lines, sweep, LAMBDAS) == []
    assert checks.check_hypervolume(checks.front_points(lines), true_front) == []

    extremes = [lines[0], lines[-1]]
    assert checks.check_front(extremes, sweep, LAMBDAS) == []
    assert checks.check_hypervolume(checks.front_points(extremes), true_front)


def test_expected_counts_follow_the_injected_faults(dense):
    assert dense.expected_eval == dense.injected
    assert dense.expected_eval["IDSW"] == 2 * len(range(8, 40, 8))


def test_host_speed_probes_are_taken_out_of_the_timed_window():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.sampling() as window:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    inside = window.probes[1:-1]
    assert len(inside) >= 10  # one every 10 ms, besides those before and after
    # the probes inside took at least 2 ms, so they must come out to match
    assert abs(window.own_s + sum(inside) - 0.2) < 0.001
    assert signal.getsignal(signal.SIGALRM) is handler
