"""Output checks, each computed apart from the program.

Every check returns a list of problems; an empty list means the output is
correct.  The Pareto checks read latencies from the table file text and
enumerate every architecture of the space themselves.  They use the
program's search-space and surrogate constructors only to learn which
problem was posed: edge positions and the loss the surrogate defines.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from inputs import TrackingCase, boxes_by_frame, exact_box_counts, mota_text

HV_FLOOR = 0.95
LOSS_TOL = 1e-9


# ---------------------------------------------------------------- tracking

def check_track(out_lines: list[str], case: TrackingCase) -> list[str]:
    problems = []
    inputs = {(int(l.split(" ", 2)[0]), l.split(" ", 2)[2]) for l in case.det_lines}
    foreign = clutter = 0
    for line in out_lines:
        frame, _tid, tail = line.split(" ", 2)
        foreign += (int(frame), tail) not in inputs
        clutter += tail in case.clutter_tails
    if foreign:
        problems.append(f"track: {foreign} output lines are no input detection")
    if clutter:
        problems.append(f"track: {clutter} clutter detections in the output")
    if out_lines != case.expected_track:
        missing = len(set(case.expected_track) - set(out_lines))
        extra = len(set(out_lines) - set(case.expected_track))
        problems.append(f"track: output differs from the gating rules' result "
                        f"({missing} lines missing, {extra} unexpected, "
                        f"{len(out_lines)} vs {len(case.expected_track)} lines)")
    counts = exact_box_counts(boxes_by_frame(case.gt_lines), boxes_by_frame(out_lines))
    if case.hyp_lines is not None:  # dense: only drops may be missed
        if counts["FN"] != case.dropped or counts["IDSW"] or counts["FP"]:
            problems.append(f"track: against ground truth {counts}, expected "
                            f"FN={case.dropped} and no FP or IDSW")
    return problems


def parse_report(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines()
                if "=" in line and line.split("=", 1)[0].isupper())


def check_evaluate(stdout: str, expected: dict[str, int]) -> list[str]:
    got = parse_report(stdout)
    want = {k: str(v) for k, v in expected.items()}
    want["MOTA"] = mota_text(expected)
    if any(got.get(k) != v for k, v in want.items()):
        return [f"evaluate: printed {got}, expected {want}"]
    return []


# ---------------------------------------------------------------- pareto

def read_table(lines: list[str]) -> dict[tuple, float]:
    """(op, cin, cout, res, stride) -> mean_ms, straight from the table text."""
    out = {}
    for line in lines[1:]:
        kv = dict(tok.split("=", 1) for tok in line.split())
        key = (kv["op"], int(kv["cin"]), int(kv["cout"]), int(kv["res"]),
               int(kv["stride"]))
        out[key] = float(kv["mean_ms"])
    return out


class SweepProblem:
    """The c06 search problem: one normal cell of 3 nodes, 2 branches."""

    channels, resolution, branches = 16, 32, 2

    def __init__(self, table_lines: list[str]):
        from paretotrack import nas

        self.space = nas.init_search_space(
            nas.SpaceConfig(normal_cells=1, reduction_cells=0, nodes=3))
        self.surrogate = nas.OpCostSurrogate(self.space, theta_dim=4, seed=0)
        self.mean_ms = read_table(table_lines)
        self.positions = list(self.space.positions)
        self.ops = list(self.space.ops)  # the surrogate's weight columns

    def latency(self, edges: list[tuple[tuple[int, int], str]]) -> float:
        c, r = self.channels, self.resolution
        return math.fsum(self.branches * self.mean_ms[(op, c, c, r, 1)]
                         for _edge, op in edges)

    def loss(self, edges: list[tuple[tuple[int, int], str]]) -> float:
        weights = np.zeros((len(self.positions), len(self.ops)))
        weights[:, self.ops.index("none")] = 1.0
        for edge, op in edges:
            row = self.positions.index(edge)
            weights[row, :] = 0.0
            weights[row, self.ops.index(op)] = 1.0
        return self.surrogate.loss({"normal": weights},
                                   self.surrogate.theta_target, "val")

    def enumerated_front(self) -> list[tuple[float, float]]:
        points = []
        for combo in itertools.product(self.ops, repeat=len(self.positions)):
            edges = [(e, op) for e, op in zip(self.positions, combo) if op != "none"]
            points.append((self.latency(edges), self.loss(edges)))
        return front_of(points)


def front_of(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    front, best = [], math.inf
    for lat, loss in sorted(points):
        if loss < best:
            front.append((lat, loss))
            best = loss
    return front


def hypervolume(front: list[tuple[float, float]], ref: tuple[float, float]) -> float:
    pts = [p for p in front_of(front) if p[0] <= ref[0] and p[1] <= ref[1]]
    area = 0.0
    for i, (lat, loss) in enumerate(pts):
        right = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
        area += (right - lat) * (ref[1] - loss)
    return area


def parse_front_line(line: str) -> tuple[float, float, float, list]:
    kv = dict(tok.split("=", 1) for tok in line.split())
    edges = []
    if kv["arch"] != "empty":
        for part in kv["arch"].split(","):
            name, op = part.split(":")
            kind, span = name.split(".")
            if kind != "normal":
                raise ValueError(f"unexpected cell kind in {part!r}")
            a, b = span.split("-")
            edges.append(((int(a), int(b)), op))
    return float(kv["lambda"]), float(kv["latency_ms"]), float(kv["loss"]), edges


def front_points(lines: list[str]) -> list[tuple[float, float]]:
    return [parse_front_line(line)[1:3] for line in lines]


def check_front(lines: list[str], problem: SweepProblem,
                lambdas: list[float]) -> list[str]:
    """Exact latency, surrogate loss and mutual non-dominance of one front."""
    problems = []
    if not lines:
        return ["search: empty front"]
    grid = set(lambdas)
    points = []
    for line in lines:
        try:
            lam, lat, loss, edges = parse_front_line(line)
        except (KeyError, ValueError) as exc:
            problems.append(f"search: unreadable front line {line!r} ({exc})")
            continue
        if lam not in grid:
            problems.append(f"search: lambda {lam!r} was not searched")
        want_lat = problem.latency(edges)
        if lat != want_lat:
            problems.append(f"search: latency_ms={lat!r} but the table gives "
                            f"{want_lat!r} for {edges}")
        want_loss = problem.loss(edges)
        if abs(loss - want_loss) > LOSS_TOL:
            problems.append(f"search: loss={loss!r} but the surrogate gives "
                            f"{want_loss!r} at theta*")
        points.append((lat, loss))
    for a, b in itertools.permutations(points, 2):
        if a[0] <= b[0] and a[1] <= b[1] and a != b:
            problems.append(f"search: front point {a} dominates {b}")
            break
    return problems


def check_hypervolume(points: list[tuple[float, float]],
                      true_front: list[tuple[float, float]]) -> list[str]:
    """The points' front must reach HV_FLOOR of the enumerated front's hypervolume."""
    ref = (max(p[0] for p in true_front), max(p[1] for p in true_front))
    ratio = hypervolume(points, ref) / hypervolume(true_front, ref)
    if ratio < HV_FLOOR:
        return [f"search: hypervolume is {ratio:.4f} of the enumerated "
                f"front's, below {HV_FLOOR}"]
    return []


def check_plot(lines: list[str], front_lines: list[str]) -> list[str]:
    """Reciprocal-latency rows sorted by the first column, one per front point.

    A zero-latency point has no finite reciprocal; its row may be left out
    or carry ``inf``.
    """
    rows = []
    for line in front_lines:
        _lam, lat, loss, _edges = parse_front_line(line)
        if lat > 0.0:
            rows.append((1.0 / lat, loss))
    want = ["# 1/latency_ms track_loss"] + [f"{x!r} {y!r}" for x, y in sorted(rows)]
    got = [l for l in lines if not l.startswith("inf ")]
    return [] if got == want else ["search: plot data does not match the front"]
