"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failing assertion marks the criterion FAIL via the pytest report.
"""

import io
import itertools
import math
import time

import numpy as np
import pytest

from conftest import (
    IdentityScorer,
    nominal_table,
    random_gt_sequence,
    random_scoreset,
)
from paretotrack import nas
from paretotrack.assoc import (
    check_feasible,
    objective_value,
    solve_bruteforce,
    solve_exact,
)
from paretotrack.cli import execute
from paretotrack.kitti_io import parse_sequence, write_tracking_results
from paretotrack.latency import CANDIDATE_OPS, LatencyEntry, LatencyTable
from paretotrack.metrics import check_report_identity, clear_mot
from paretotrack.nas.search import arch_weights
from paretotrack.nas.space import (
    DiscreteArch,
    discrete_latency,
    edge_latencies,
    one_hot_weights,
    weighted_latency,
)
from paretotrack.tracker import TrackerConfig, TrackerState, Tracklet, run_sequence, step


def _ok(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_c01_solver_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        problem = random_scoreset(rng, n, m)
        exact = solve_exact(problem)
        brute = solve_bruteforce(problem)
        assert check_feasible(exact)
        assert check_feasible(brute)
        assert objective_value(problem, exact) == objective_value(problem, brute)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(1, "solver-oracle equivalence, 200 instances")


def test_c02_solver_scalability():
    rng = np.random.default_rng(102)
    problem = random_scoreset(rng, 100, 100)
    t0 = time.perf_counter()
    solution = solve_exact(problem)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert check_feasible(solution)
    _ok(2, "100x100 instance under one second")


def test_c03_tracker_perfect_on_synthetic():
    rng = np.random.default_rng(103)
    cfg = TrackerConfig(t_birth=1, t_death=1)
    for _ in range(20):
        seq, gt = random_gt_sequence(rng, max_objects=10, max_frames=30)
        tracks = run_sequence(seq.frames, IdentityScorer(), cfg)
        hyp = {}
        for track in tracks:
            for frame, det in track.detections:
                hyp.setdefault(frame, []).append((track.id, det.box))
        report = clear_mot(gt, hyp, 0.5)
        assert report.mota == 1.0, report
        # structural check: each tracklet reproduces one ground-truth object
        gt_histories = {}
        for frame, objs in gt.items():
            for oid, box in objs:
                gt_histories.setdefault(oid, set()).add((frame, box))
        track_histories = [
            {(frame, det.box) for frame, det in t.detections} for t in tracks
        ]
        assert sorted(map(sorted, gt_histories.values())) == sorted(
            map(sorted, track_histories)
        )
    _ok(3, "MOTA 1.0 on 20 synthetic sequences")


@pytest.mark.parametrize("t_birth", [1, 2, 3, 4])
@pytest.mark.parametrize("t_death", [1, 2, 3, 4])
def test_c04_lifecycle_gating(t_birth, t_death):
    from conftest import make_detection, slot_box

    present = t_birth + 2
    absent = t_death + 1
    cfg = TrackerConfig(t_birth=t_birth, t_death=t_death)
    state = TrackerState(config=cfg)
    scorer = IdentityScorer()

    # hand-simulated automaton: hits while present, misses afterwards
    confirmed_at = None
    removed_at = None
    for frame in range(present + absent):
        dets = []
        if frame < present:
            dets = [make_detection(frame, 7, slot_box(0, frame))]
        step(state, frame, dets, scorer(state.active, dets))
        hits = frame + 1 if frame < present else 0
        misses = 0 if frame < present else frame - present + 1
        expect_confirmed = hits >= t_birth or (confirmed_at is not None and misses < t_death)
        expect_alive = (frame < present) or (misses < t_death)
        if confirmed_at is None and hits >= t_birth:
            confirmed_at = frame
        if removed_at is None and misses >= t_death:
            removed_at = frame
        if expect_alive and expect_confirmed:
            assert len(state.active) == 1
            assert state.active[0].id == 0
        elif expect_alive and frame < present:
            assert len(state.active) == 1
            assert state.active[0].id is None
        elif not expect_alive:
            assert state.active == []
    assert confirmed_at == t_birth - 1  # frames are 0-based; hit #t_birth
    assert removed_at == present + t_death - 1
    if t_death == 4 and t_birth == 4:
        _ok(4, "lifecycle gating over t_birth x t_death grids")


def test_c05_latency_model_matches_recomputation():
    rng = np.random.default_rng(105)
    for _ in range(100):
        normal = int(rng.integers(0, 4))
        space = nas.init_search_space(nas.SpaceConfig(
            normal_cells=normal, reduction_cells=int(rng.integers(0 if normal else 1, 4)),
            nodes=int(rng.integers(2, 6)), channels=int(rng.integers(1, 64)),
            resolution=int(rng.integers(1, 256)),
        ))
        table = LatencyTable()
        for kind in space.kinds():
            for cfg in space.op_configs(kind):
                table.add(cfg, LatencyEntry(float(rng.uniform(0.01, 20.0)), 0.0, 1))
        lats = edge_latencies(space, table)
        logits = {kind: rng.uniform(-4, 4, (space.n_positions, len(space.ops)))
                  for kind in space.kinds()}
        got = weighted_latency(arch_weights(space, logits), lats)
        # independent recomputation: plain softmax and nested loops
        expected = 0.0
        for kind in space.kinds():
            for pos in range(space.n_positions):
                exps = [math.exp(v) for v in logits[kind][pos]]
                denom = sum(exps)
                expected += space.instance_count(kind) * sum(
                    (e / denom) * table.get(cfg).mean_ms
                    for e, cfg in zip(exps, space.op_configs(kind))
                )
        assert abs(got - expected) <= 1e-12 * max(abs(expected), 1e-30)

        # one-hot limit: one logit per edge raised by 50 prices that op alone
        hot_ops = {kind: rng.integers(len(space.ops), size=space.n_positions)
                   for kind in space.kinds()}
        for kind, idx in hot_ops.items():
            logits[kind][np.arange(space.n_positions), idx] += 50.0
        one = weighted_latency(arch_weights(space, logits), lats)
        exact = math.fsum(float(lats[kind][i]) for kind, idx in hot_ops.items() for i in idx)
        spread = math.fsum(space.n_positions * float(np.ptp(lats[kind])) for kind in lats)
        assert abs(one - exact) <= 1e-6 * max(spread, 1e-30)
    _ok(5, "the search's latency model matches independent recomputation")


def test_c06_pareto_search_hypervolume():
    t0 = time.perf_counter()
    space = nas.init_search_space(
        nas.SpaceConfig(normal_cells=1, reduction_cells=0, nodes=3)
    )
    table = nominal_table(space)
    evaluator = nas.OpCostSurrogate(space, theta_dim=4, seed=0)

    # brute-force true front over all 9^3 = 729 discrete architectures,
    # evaluated at the analytic parameter optimum
    points = []
    for combo in itertools.product(CANDIDATE_OPS, repeat=space.n_positions):
        edges = tuple(
            ("normal", space.positions[p], op)
            for p, op in enumerate(combo)
            if op != "none"
        )
        arch = DiscreteArch(edges=edges)
        loss = evaluator.loss(one_hot_weights(arch, space),
                              evaluator.theta_target, "val")
        points.append(nas.ParetoPoint(discrete_latency(arch, space, table),
                                      loss, arch, -1.0))
    true_front = nas.pareto_front(points)
    ref = (max(p.latency_ms for p in true_front),
           max(p.track_loss for p in true_front))
    hv_true = nas.hypervolume_2d(true_front, ref)
    assert hv_true > 0

    lambdas = np.logspace(-3, 2.5, 129).tolist()
    front = nas.pareto_sweep(
        space, evaluator, table, lambdas,
        nas.Stage1Budget(epochs=200, theta_iters=2, alpha_lr=0.5, theta_lr=0.2),
        nas.Stage2Budget(iters=300, eval_interval=20, theta_lr=0.2),
        seed=0,
    )
    hv = nas.hypervolume_2d(front, ref)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    ratio = hv / hv_true
    assert ratio >= 0.95, f"hypervolume ratio {ratio:.4f}"
    _ok(6, f"sweep reaches {ratio:.1%} of the true front hypervolume")


def test_c07_lambda_trend():
    space = nas.init_search_space(
        nas.SpaceConfig(normal_cells=1, reduction_cells=1, nodes=3)
    )
    table = nominal_table(space)
    evaluator = nas.OpCostSurrogate(space, theta_dim=4, seed=0)
    budget = nas.Stage1Budget(epochs=200, theta_iters=2, alpha_lr=0.5, theta_lr=0.2)
    lambdas = (0.01, 0.1, 1.0, 10.0)
    # per seed one batch over the lambdas; row by lambda, column by seed
    latencies = np.transpose([
        [discrete_latency(nas.discretize(result.logits, space), space, table)
         for result in nas.stage1_search(space, evaluator, table, lambdas, budget, seed)]
        for seed in range(5)])
    medians = [float(np.median(row)) for row in latencies]
    assert all(a >= b for a, b in zip(medians, medians[1:])), medians
    _ok(7, f"median latency non-increasing in lambda: {medians}")


def test_c08_gradient_checks():
    space = nas.init_search_space(
        nas.SpaceConfig(normal_cells=1, reduction_cells=1, nodes=3)
    )
    rng = np.random.default_rng(108)
    h = 1e-6
    for evaluator in (nas.QuadraticSurrogate(space, seed=1),
                      nas.OpCostSurrogate(space, seed=1)):
        for _ in range(50):
            weights = {
                kind: rng.uniform(0.02, 0.98, (space.n_positions, len(space.ops)))
                for kind in space.kinds()
            }
            theta = rng.uniform(-2, 2, evaluator.theta_dim)
            g_w, g_t = evaluator.grad(weights, theta, "train")
            for kind in space.kinds():
                for p in range(space.n_positions):
                    for o in range(len(space.ops)):
                        up = {k: v.copy() for k, v in weights.items()}
                        dn = {k: v.copy() for k, v in weights.items()}
                        up[kind][p, o] += h
                        dn[kind][p, o] -= h
                        fd = (evaluator.loss(up, theta) - evaluator.loss(dn, theta)) / (2 * h)
                        g = g_w[kind][p, o]
                        denom = max(abs(fd), abs(g), 1e-8)
                        assert abs(fd - g) / denom <= 1e-5
            for k in range(evaluator.theta_dim):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                fd = (evaluator.loss(weights, up) - evaluator.loss(weights, dn)) / (2 * h)
                denom = max(abs(fd), abs(g_t[k]), 1e-8)
                assert abs(fd - g_t[k]) / denom <= 1e-5
    _ok(8, "gradients match central finite differences")


def test_c09_metrics_identities():
    rng = np.random.default_rng(109)
    for _ in range(20):
        _, gt = random_gt_sequence(rng, max_objects=8, max_frames=15)
        self_report = clear_mot(gt, gt, 0.5)
        assert self_report.mota == 1.0
        assert check_report_identity(self_report)
        # a degraded hypothesis still satisfies the identity
        hyp = {f: objs[:-1] for f, objs in gt.items()}
        degraded = clear_mot(gt, hyp, 0.5)
        assert check_report_identity(degraded)
    _ok(9, "MOTA identity holds on every report")


def test_c10_io_roundtrip_and_cli_determinism(tmp_path):
    from conftest import label_line, slot_box

    rng = np.random.default_rng(110)
    objs = []
    frame = 0
    while len(objs) < 500:
        for tid in range(int(rng.integers(1, 6))):
            objs.append((frame, tid, slot_box(tid, frame), float(rng.uniform(0, 1))))
            if len(objs) == 500:
                break
        frame += 1
    fixture = tmp_path / "fixture.txt"
    text = "".join(label_line(*o) + "\n" for o in objs)
    fixture.write_text(text)

    with open(fixture) as source:
        parsed = parse_sequence(source)
    dets = [(f, d) for f, ds in parsed.frames.items() for d in ds]
    assert [(f, d.track_id, d.box, d.confidence) for f, d in dets] == objs
    sink = io.StringIO()
    write_tracking_results([Tracklet(id=d.track_id, detections=[(f, d)])
                            for f, d in dets], sink)
    rewritten = sink.getvalue()
    assert rewritten == text

    # CLI determinism: identical runs produce byte-identical outputs
    outs = []
    for tag in ("a", "b"):
        res = tmp_path / f"res-{tag}.txt"
        assert execute(["track", "--dets", str(fixture), "--out", str(res),
                        "--t-birth", "2", "--t-death", "3"]) == 0
        outs.append(res.read_bytes())
    assert outs[0] == outs[1]

    fronts = []
    for jobs in ("1", "3"):
        front = tmp_path / f"front-{jobs}.txt"
        assert execute(["search", "--out", str(front),
                        "--lambdas", "0.01,0.1,1,10", "--seed", "0",
                        "--epochs", "60", "--theta-iters", "2",
                        "--alpha-lr", "0.5", "--theta-lr", "0.2",
                        "--stage2-iters", "80", "--jobs", jobs]) == 0
        fronts.append(front.read_bytes())
    assert fronts[0] == fronts[1]
    _ok(10, "500-line round-trip and byte-identical CLI runs")
