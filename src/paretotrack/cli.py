"""Command line entry point.

Subcommands: track, evaluate, profile-latency, search, assoc-debug, bev.
Every flag but --config can also come from a plain key=value config file
(--config or the PARETOTRACK_CONFIG environment variable); keys mirror the
long flag names, values pass the flag's own type and choice checks, and
explicit flags win.  Output files are written atomically (temp file + rename)
and identical inputs plus seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import tempfile
from typing import IO, Sequence

import numpy as np

from . import nas
from .assoc import AssociationProblem, solve_exact
from .geometry import Box3D, PointCloud, bev_to_pgm, crop_points, rasterize_bev
from .kitti_io import KittiFormatError, parse_sequence, write_tracking_results
from .latency import (
    CANDIDATE_OPS,
    LatencyEntry,
    LatencyLookupError,
    LatencyTable,
    ScriptedClock,
    TableFormatError,
    nominal_cost_ms,
    profile_op,
)
from .metrics import clear_mot, format_report_kv, format_report_table
from .nas.search import max_latency_ms
from .scoring import BaselineScorer, ScorerConfig, ScoreSet
from .tracker import TrackerConfig, run_sequence

CONFIG_ENV_VAR = "PARETOTRACK_CONFIG"


class CliError(Exception):
    """Fatal runtime problem reported with exit status 1."""


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str) -> list[tuple[int, str, str]]:
    """The (line number, key, value) entries of a key=value config file."""
    entries = []
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
                entries.append((lineno, key.strip(), value.strip()))
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    return entries


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict[str, object]:
    """Config values by destination, converted and checked by the subcommand's flags."""
    options = {
        opt[2:]: action
        for action in parser._actions
        if action.dest not in ("help", "config")
        for opt in action.option_strings if opt.startswith("--")
    }
    values = {}
    for lineno, key, text in _load_config(path):
        where = f"{path}:{lineno}: {key}"
        action = options.get(key)
        if action is None:
            raise CliError(f"{path}:{lineno}: unknown config keys: {key} "
                           f"(known: {', '.join(sorted(options))})")
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            raise CliError(f"{where}: cannot parse {text!r} as "
                           f"{action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise CliError(f"{where}: {text!r} is not one of "
                           f"{', '.join(map(str, action.choices))}")
        values[action.dest] = value
    return values


def _parse_lambdas(text: str) -> list[float]:
    values = []
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        try:
            lam = float(tok)
        except ValueError:
            raise CliError(f"cannot parse lambda {tok!r} in {text!r}") from None
        if not 0.0 <= lam < math.inf:
            raise CliError(f"lambda {tok!r} must be finite and >= 0")
        values.append(lam)
    if not values:
        raise CliError("lambda list is empty")
    return values


def _read_lines(path: str) -> list[str]:
    try:
        with open(path) as handle:
            return handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _read_sequence(path: str):
    """Parse a KITTI tracking file; a format error names the file and line."""
    try:
        return parse_sequence(_read_lines(path))
    except KittiFormatError as exc:
        raise CliError(f"{path}:{exc.lineno}: {exc.reason}") from None


# ---------------------------------------------------------------- track

def _cmd_track(args: argparse.Namespace) -> int:
    if not args.dets or not args.out:
        raise CliError("track requires --dets and --out")
    seq = _read_sequence(args.dets)
    # the baseline scorer's s_det, checked here so that an overflow names its line
    overflows = [d for dets in seq.frames.values() for d in dets
                 if not math.isfinite(args.w_det * (2.0 * d.confidence - 1.0))]
    if overflows:
        first = min(overflows, key=lambda d: d.source.lineno)
        raise CliError(f"{args.dets}:{first.source.lineno}: score {first.confidence!r} "
                       f"weighted by --w-det {args.w_det!r} is not finite")
    scorer = BaselineScorer(ScorerConfig(
        w_iou=args.w_iou, w_det=args.w_det, terminal_score=args.terminal_score,
    ))
    cfg = TrackerConfig(t_birth=args.t_birth, t_death=args.t_death)
    tracks = run_sequence(seq, scorer, cfg)
    buf = io.StringIO()
    write_tracking_results(tracks, buf)
    _atomic_write(args.out, buf.getvalue())
    print(f"tracked {len(tracks)} objects -> {args.out}")
    return 0


# ---------------------------------------------------------------- evaluate

def _frames_of(path: str):
    """(track_id, box) per frame; a track_id repeated within a frame is an error."""
    frames = {}
    repeats = []
    for frame, dets in _read_sequence(path).frames.items():
        objs = frames[frame] = [(d.source.track_id, d.box) for d in dets]
        if len(dict(objs)) != len(objs):
            seen = set()
            for d in dets:
                if d.source.track_id in seen:
                    repeats.append(d.source)
                seen.add(d.source.track_id)
    if repeats:
        first = min(repeats, key=lambda record: record.lineno)
        raise CliError(f"{path}:{first.lineno}: duplicate track_id {first.track_id} "
                       f"in frame {first.frame}")
    return frames


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.gt or not args.hyp:
        raise CliError("evaluate requires --gt and --hyp")
    report = clear_mot(_frames_of(args.gt), _frames_of(args.hyp), thresh=args.iou)
    sys.stdout.write(format_report_table(report))
    sys.stdout.write(format_report_kv(report))
    return 0


# ---------------------------------------------------------------- profile-latency

def _busy_workload(cost_ms: float):
    # calibration-free stand-in: loop length proportional to the nominal cost
    iters = max(1, int(cost_ms * 2000))

    def work():
        acc = 0
        for i in range(iters):
            acc += i * i
        return acc

    return work


def _cmd_profile_latency(args: argparse.Namespace) -> int:
    if not args.out:
        raise CliError("profile-latency requires --out")
    space = nas.init_search_space(nas.SpaceConfig(channels=args.channels,
                                                  resolution=args.resolution))
    table = LatencyTable()
    for kind in space.kinds():
        template = space.op_template(kind)
        for op in CANDIDATE_OPS:
            cfg = template.with_op(op)
            cost = nominal_cost_ms(cfg)
            if args.clock == "synthetic":
                entry = profile_op(lambda: None, clock=ScriptedClock([cost]),
                                   warmup=args.warmup, reps=args.reps)
            else:
                entry = profile_op(_busy_workload(cost),
                                   warmup=args.warmup, reps=args.reps)
            table.add(cfg, entry)
    buf = io.StringIO()
    table.write(buf)
    _atomic_write(args.out, buf.getvalue())
    print(f"profiled {len(table)} configurations -> {args.out}")
    return 0


# ---------------------------------------------------------------- search

def _synthetic_table(space) -> LatencyTable:
    table = LatencyTable()
    for kind in space.kinds():
        template = space.op_template(kind)
        for op in CANDIDATE_OPS:
            cfg = template.with_op(op)
            table.add(cfg, LatencyEntry(nominal_cost_ms(cfg), 0.0, 1))
    return table


def emit_plot_data(points: Sequence[nas.ParetoPoint], sink: IO[str]) -> None:
    """Two columns, reciprocal latency then loss, sorted by the first column.

    A zero-latency point (the empty architecture) gets the reciprocal inf,
    which sorts last.
    """
    sink.write("# 1/latency_ms track_loss\n")
    rows = [(math.inf if p.latency_ms == 0.0 else 1.0 / p.latency_ms, p.track_loss)
            for p in points]
    for x, y in sorted(rows):
        sink.write(f"{x!r} {y!r}\n")


def format_pareto_line(point: nas.ParetoPoint) -> str:
    return (
        f"lambda={point.lambda_used!r} latency_ms={point.latency_ms!r} "
        f"loss={point.track_loss!r} arch={nas.format_discrete_arch(point.arch)}"
    )


def _cmd_search(args: argparse.Namespace) -> int:
    if not args.out:
        raise CliError("search requires --out")
    lambdas = _parse_lambdas(args.lambdas)
    for flag, rate in (("--alpha-lr", args.alpha_lr), ("--theta-lr", args.theta_lr)):
        if not 0.0 <= rate < math.inf:
            raise CliError(f"{flag} {rate!r} must be finite and >= 0")
    space = nas.init_search_space(nas.SpaceConfig(
        normal_cells=args.normal_cells, reduction_cells=args.reduction_cells,
        nodes=args.nodes, branches=args.branches, channels=args.channels,
        resolution=args.resolution,
    ))
    if args.table:
        try:
            table = LatencyTable.read(_read_lines(args.table))
        except TableFormatError as exc:
            raise CliError(f"{args.table}:{exc.lineno}: {exc.reason}") from None
        try:
            norm = max_latency_ms(space, table)
        except LatencyLookupError as exc:
            raise CliError(f"{args.table}: {exc}") from None
        if norm == 0.0:
            raise CliError(f"{args.table}: every op of the search space costs 0 ms, "
                           "so the latency term has no scale")
    else:
        table = _synthetic_table(space)
    surrogate = (nas.OpCostSurrogate if args.surrogate == "op-cost"
                 else nas.QuadraticSurrogate)
    front = nas.pareto_sweep(
        space, surrogate(space, theta_dim=args.theta_dim, seed=args.seed),
        table, lambdas,
        stage1_budget=nas.Stage1Budget(epochs=args.epochs,
                                       theta_iters=args.theta_iters,
                                       alpha_lr=args.alpha_lr,
                                       theta_lr=args.theta_lr),
        stage2_budget=nas.Stage2Budget(iters=args.stage2_iters,
                                       eval_interval=args.eval_interval,
                                       theta_lr=args.theta_lr),
        seed=args.seed,
    )
    if not front:
        raise CliError(f"all {len(lambdas)} lambdas failed; no front written")
    _atomic_write(args.out, "".join(format_pareto_line(p) + "\n" for p in front))
    if args.plot_data:
        buf = io.StringIO()
        emit_plot_data(front, buf)
        _atomic_write(args.plot_data, buf.getvalue())
    print(f"front of {len(front)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------- assoc-debug

def _read_scoreset(path: str) -> ScoreSet:
    """Parse a 'scoreset v1' file; a format error names the file and line."""
    raw = _read_lines(path)
    lines = [(lineno, text.strip()) for lineno, text in enumerate(raw, start=1)]
    lines = [(lineno, text) for lineno, text in lines
             if text and not text.startswith("#")]
    if not lines or lines[0][1] != "scoreset v1":
        raise CliError(f"{path}: expected 'scoreset v1' header")

    def take(i: int, what: str) -> tuple[int, str]:
        if i >= len(lines):
            raise CliError(f"{path}:{len(raw) + 1}: expected {what}, got end of file")
        return lines[i]

    lineno, text = take(1, "'n_prev=N n_curr=M'")
    kv = dict(tok.partition("=")[::2] for tok in text.split())
    sizes = kv.get("n_prev", ""), kv.get("n_curr", "")
    if not all(size.isdecimal() for size in sizes):
        raise CliError(f"{path}:{lineno}: expected 'n_prev=N n_curr=M', got {text!r}")
    n, m = (int(size) for size in sizes)

    def row(i: int, name: str, size: int) -> list[float]:
        what = f"{size} finite {name} values"
        lineno, text = take(i, what)
        try:  # vector rows carry a 'name:' label, link rows do not
            parsed = [float(x) for x in text.rpartition(":")[2].split()]
            ok = len(parsed) == size and all(map(math.isfinite, parsed))
        except ValueError:
            ok = False
        if not ok:
            raise CliError(f"{path}:{lineno}: expected {what}, got {text!r}")
        return parsed

    s_in = row(2, "s_in", m)
    s_out = row(3, "s_out", n)
    s_det_prev = row(4, "s_det_prev", n)
    s_det_curr = row(5, "s_det_curr", m)
    # with n_curr=0 the link rows are empty lines, which are skipped above
    link_rows = [row(6 + i, "s_link", m) for i in range(n if m else 0)]
    link = np.array(link_rows, dtype=np.float64).reshape(n, m)
    return ScoreSet(s_in, s_out, s_det_prev, s_det_curr, link)


def _cmd_assoc_debug(args: argparse.Namespace) -> int:
    if bool(args.scores) == bool(args.random):
        raise CliError("assoc-debug requires exactly one of --scores or --random N,M")
    if args.random:
        try:
            n, m = (int(tok) for tok in args.random.split(","))
        except ValueError:
            raise CliError("--random expects 'N,M'") from None
        rng = np.random.default_rng(args.seed)
        scores = ScoreSet(
            rng.uniform(-2, 2, m), rng.uniform(-2, 2, n),
            rng.uniform(-2, 2, n), rng.uniform(-2, 2, m),
            rng.uniform(-2, 2, (n, m)),
        )
    else:
        scores = _read_scoreset(args.scores)
    sol = solve_exact(AssociationProblem(scores))
    out = sys.stdout
    out.write(f"n_prev={scores.n_prev} n_curr={scores.n_curr}\n")
    out.write("s_in: " + " ".join(repr(x) for x in scores.s_in) + "\n")
    out.write("s_out: " + " ".join(repr(x) for x in scores.s_out) + "\n")
    out.write("s_det_prev: " + " ".join(repr(x) for x in scores.s_det_prev) + "\n")
    out.write("s_det_curr: " + " ".join(repr(x) for x in scores.s_det_curr) + "\n")
    for i in range(scores.n_prev):
        out.write("s_link: " + " ".join(repr(x) for x in scores.s_link[i]) + "\n")
    out.write("f_in: " + " ".join(str(x) for x in sol.f_in) + "\n")
    out.write("f_out: " + " ".join(str(x) for x in sol.f_out) + "\n")
    out.write("f_det_prev: " + " ".join(str(x) for x in sol.f_det_prev) + "\n")
    out.write("f_det_curr: " + " ".join(str(x) for x in sol.f_det_curr) + "\n")
    for i in range(scores.n_prev):
        out.write("f_link: " + " ".join(str(x) for x in sol.f_link[i]) + "\n")
    out.write(f"objective={sol.objective!r}\n")
    return 0


# ---------------------------------------------------------------- bev

def _cmd_bev(args: argparse.Namespace) -> int:
    if not args.points or not args.box or not args.out:
        raise CliError("bev requires --points, --box and --out")
    try:
        vals = [float(tok) for tok in args.box.split(",")]
        cx, cy, cz, h, w, l, yaw = vals
    except ValueError:
        raise CliError("--box expects 'cx,cy,cz,height,width,length,yaw'") from None
    pts = []
    for lineno, raw in enumerate(_read_lines(args.points), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            x, y, z = (float(tok) for tok in line.split())
        except ValueError:
            raise CliError(f"{args.points}:{lineno}: expected 'x y z'") from None
        pts.append((x, y, z))
    box = Box3D(center=(cx, cy, cz), size=(h, w, l), yaw=yaw)
    cloud = crop_points(PointCloud(pts), box)
    image = rasterize_bev(cloud, box, resolution=(args.rows, args.cols))
    _atomic_write(args.out, bev_to_pgm(image))
    print(f"rasterized {len(cloud)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretotrack",
        description="Latency-aware multi-object tracking and architecture search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file (flags override)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    p = sub.add_parser("track", help="run the tracker over a detection file")
    common(p)
    p.add_argument("--dets")
    p.add_argument("--out")
    p.add_argument("--t-birth", type=int, default=3)
    p.add_argument("--t-death", type=int, default=5)
    p.add_argument("--w-iou", type=float, default=1.0)
    p.add_argument("--w-det", type=float, default=1.0)
    p.add_argument("--terminal-score", type=float, default=-0.2)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("evaluate", help="CLEAR-MOT evaluation of results vs ground truth")
    common(p)
    p.add_argument("--gt")
    p.add_argument("--hyp")
    p.add_argument("--iou", type=float, default=0.5)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("profile-latency", help="measure per-op latencies into a table")
    common(p)
    p.add_argument("--out")
    p.add_argument("--clock", choices=("synthetic", "real"), default="synthetic")
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--resolution", type=int, default=32)
    p.set_defaults(func=_cmd_profile_latency)

    p = sub.add_parser("search", help="two-stage Pareto sweep over lambda values")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambdas", default="0.01,0.1,1,10",
                   help="comma-separated, each finite and >= 0")
    p.add_argument("--out")
    p.add_argument("--table", help="latency table file; synthetic when omitted")
    p.add_argument("--plot-data", help="also write reciprocal-latency plot rows")
    p.add_argument("--normal-cells", type=int, default=1)
    p.add_argument("--reduction-cells", type=int, default=1)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--branches", type=int, default=2)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--epochs", type=int, default=nas.Stage1Budget.epochs)
    p.add_argument("--theta-iters", type=int, default=nas.Stage1Budget.theta_iters)
    p.add_argument("--alpha-lr", type=float, default=nas.Stage1Budget.alpha_lr)
    p.add_argument("--theta-lr", type=float, default=nas.Stage1Budget.theta_lr,
                   help="for both stages")
    p.add_argument("--stage2-iters", type=int, default=nas.Stage2Budget.iters)
    p.add_argument("--eval-interval", type=int, default=nas.Stage2Budget.eval_interval)
    p.add_argument("--surrogate", choices=("op-cost", "quadratic"), default="op-cost")
    p.add_argument("--theta-dim", type=int, default=4)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("assoc-debug", help="dump one association problem and its solution")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scores", help="score-set file ('scoreset v1' format)")
    p.add_argument("--random", help="generate a random N,M instance")
    p.set_defaults(func=_cmd_assoc_debug)

    p = sub.add_parser("bev", help="rasterize cropped points to a PGM image")
    common(p)
    p.add_argument("--points")
    p.add_argument("--box")
    p.add_argument("--rows", type=int, default=256)
    p.add_argument("--cols", type=int, default=256)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bev)

    return parser


def execute(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        path = args.config or os.environ.get(CONFIG_ENV_VAR)
        if path:
            # config values become the subcommand's defaults, so flags win
            (commands,) = (action.choices for action in parser._actions
                           if isinstance(action, argparse._SubParsersAction))
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, path))
            args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
