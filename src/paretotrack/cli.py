"""Command line entry point.

Subcommands: track, evaluate, profile-latency, search, assoc-debug.
Every flag but --config can also come from a plain key=value config file
(--config or the PARETOTRACK_CONFIG environment variable); keys mirror the
long flag names, values pass the flag's own type and choice checks, and
explicit flags win.  Every input file, config files included, is read through
`_read`: an unreadable file is reported as 'cannot read PATH: REASON', and a
line that breaks its file's format as 'PATH:LINE: REASON'.  Output files are
written atomically (temp file + rename) and identical inputs plus seed produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import tempfile
from typing import IO, Callable, Sequence

import numpy as np

from . import nas
from .assoc import objective_value, solve_exact
from .kitti_io import parse_sequence, write_tracking_results
# profile_op is unused here; perfbench/tracing.py times it under this name
from .latency import LatencyLookupError, LatencyTable, profile_op
from .metrics import clear_mot, format_report_kv, format_report_table
from .nas.search import max_latency_ms
from .scoring import BaselineScorer, ScorerConfig, ScoreSet
from .settings import AT_LEAST_0, AT_MOST_500, BOUNDED, RATE, FormatError, SettingError
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


def _read(path: str, parse: Callable[[list[str]], object]):
    """What `parse` makes of the lines of the file at `path`; a FormatError it
    raises is reported as 'PATH:LINE: REASON', or 'PATH: REASON' without a line."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    try:
        return parse(lines)
    except FormatError as exc:
        where = path if exc.lineno is None else f"{path}:{exc.lineno}"
        raise CliError(f"{where}: {exc.reason}") from None


def _config_defaults(parser: argparse.ArgumentParser, lines: list[str]) -> dict[str, object]:
    """The values of a key=value config file by destination, converted and
    checked by the subcommand's flags; every line is split before any is checked."""
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, sep, text = line.partition("=")
            if not sep:
                raise FormatError(f"expected key=value, got {line!r}", lineno)
            entries.append((lineno, key.strip(), text.strip()))
    options = {
        opt[2:]: action
        for action in parser._actions
        if action.dest not in ("help", "config")
        for opt in action.option_strings if opt.startswith("--")
    }
    values = {}
    for lineno, key, text in entries:
        action = options.get(key)
        if action is None:
            raise FormatError(f"unknown config keys: {key} "
                              f"(known: {', '.join(sorted(options))})", lineno)
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            raise FormatError(f"{key}: cannot parse {text!r} as "
                              f"{action.type.__name__}", lineno) from None
        if action.choices is not None and value not in action.choices:
            raise FormatError(f"{key}: {text!r} is not one of "
                              f"{', '.join(map(str, action.choices))}", lineno)
        values[action.dest] = value
    return values


def _parse_lambdas(text: str) -> list[float]:
    values = []
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        try:
            lam = float(tok)
        except ValueError:
            raise CliError(f"cannot parse lambda {tok!r} in {text!r}") from None
        if not RATE.holds(lam):
            raise CliError(f"lambda {tok!r} must be {RATE.text}")
        values.append(lam)
    if not values:
        raise CliError("lambda list is empty")
    return values


# ---------------------------------------------------------------- track

def _cmd_track(args: argparse.Namespace) -> int:
    if not args.dets or not args.out:
        raise CliError("track requires --dets and --out")
    cfg = TrackerConfig(t_birth=args.t_birth, t_death=args.t_death)
    weights = ScorerConfig(w_iou=args.w_iou, w_det=args.w_det,
                           terminal_score=args.terminal_score)
    seq = _read(args.dets, parse_sequence)
    # the baseline scorer's s_det, checked here so that an overflow names its
    # line; the first row that fails is the smallest line
    with np.errstate(over="ignore", invalid="ignore"):
        s_det = weights.det_score(seq.table.numbers[:, 4])
        overflows = np.flatnonzero(~BOUNDED.holds(s_det))
    if len(overflows):
        row = int(overflows[0])
        raise CliError(f"{args.dets}:{row + 1}: score {seq.table.confidences[row]!r} "
                       f"weighted by --w-det {args.w_det!r} must be {BOUNDED.text}")
    tracks = run_sequence(seq, BaselineScorer(weights), cfg)
    buf = io.StringIO()
    write_tracking_results(tracks, buf)
    _atomic_write(args.out, buf.getvalue())
    print(f"tracked {len(tracks)} objects -> {args.out}")
    return 0


# ---------------------------------------------------------------- evaluate

def _frames_of(lines: list[str]) -> dict[int, list]:
    """(track_id, box) per frame of a tracking file's lines; a track_id repeated
    within a frame is a FormatError."""
    frames = {}
    repeats = []
    for frame, dets in parse_sequence(lines).frames.items():
        objs = frames[frame] = [(d.track_id, d.box) for d in dets]
        if len(dict(objs)) != len(objs):
            seen = set()
            for d in dets:
                if d.track_id in seen:
                    repeats.append(d)
                seen.add(d.track_id)
    if repeats:
        first = min(repeats, key=lambda record: record.lineno)
        raise FormatError(f"duplicate track_id {first.track_id} in frame {first.frame}",
                          first.lineno)
    return frames


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.gt or not args.hyp:
        raise CliError("evaluate requires --gt and --hyp")
    report = clear_mot(_read(args.gt, _frames_of), _read(args.hyp, _frames_of),
                       thresh=args.iou)
    sys.stdout.write(format_report_table(report))
    sys.stdout.write(format_report_kv(report))
    return 0


# ---------------------------------------------------------------- profile-latency

def _cmd_profile_latency(args: argparse.Namespace) -> int:
    if not args.out:
        raise CliError("profile-latency requires --out")
    table = nas.nominal_table(nas.init_search_space(
        nas.SpaceConfig(channels=args.channels, resolution=args.resolution)))
    buf = io.StringIO()
    table.write(buf)
    _atomic_write(args.out, buf.getvalue())
    print(f"profiled {len(table)} configurations -> {args.out}")
    return 0


# ---------------------------------------------------------------- search

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
    stage1_budget = nas.Stage1Budget(epochs=args.epochs, theta_iters=args.theta_iters,
                                     alpha_lr=args.alpha_lr, theta_lr=args.theta_lr)
    stage2_budget = nas.Stage2Budget(iters=args.stage2_iters,
                                     eval_interval=args.eval_interval,
                                     theta_lr=args.theta_lr)
    space = nas.init_search_space(nas.SpaceConfig(
        normal_cells=args.normal_cells, reduction_cells=args.reduction_cells,
        nodes=args.nodes, channels=args.channels, resolution=args.resolution,
    ))
    surrogate = (nas.OpCostSurrogate if args.surrogate == "op-cost"
                 else nas.QuadraticSurrogate)(space, theta_dim=args.theta_dim, seed=args.seed)
    if args.table:
        table = _read(args.table, LatencyTable.read)
        try:
            max_latency_ms(space, table)
        except (LatencyLookupError, ValueError) as exc:
            raise CliError(f"{args.table}: {exc}") from None
    else:
        table = nas.nominal_table(space)
    front = nas.pareto_sweep(space, surrogate, table, lambdas,
                             stage1_budget, stage2_budget, seed=args.seed)
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

def _parse_scoreset(raw: list[str]) -> ScoreSet:
    """The score set of the lines of a 'scoreset v1' file."""
    lines = [(lineno, text.strip()) for lineno, text in enumerate(raw, start=1)]
    lines = [(lineno, text) for lineno, text in lines
             if text and not text.startswith("#")]
    if not lines or lines[0][1] != "scoreset v1":
        raise FormatError("expected 'scoreset v1' header")

    def take(i: int, what: str) -> tuple[int, str]:
        if i >= len(lines):
            raise FormatError(f"expected {what}, got end of file", len(raw) + 1)
        return lines[i]

    lineno, text = take(1, "'n_prev=N n_curr=M'")
    kv = dict(tok.partition("=")[::2] for tok in text.split())
    sizes = kv.get("n_prev", ""), kv.get("n_curr", "")
    if not all(size.isdecimal() for size in sizes):
        raise FormatError(f"expected 'n_prev=N n_curr=M', got {text!r}", lineno)
    n, m = (int(size) for size in sizes)

    def row(i: int, name: str, size: int) -> list[float]:
        # bounded scores keep every sum that solve_exact and objective_value form finite
        what = f"{size} {name} values, each {BOUNDED.text}"
        lineno, text = take(i, what)
        try:  # vector rows carry a 'name:' label, link rows do not
            parsed = [float(x) for x in text.rpartition(":")[2].split()]
            ok = len(parsed) == size and all(map(BOUNDED.holds, parsed))
        except ValueError:
            ok = False
        if not ok:
            raise FormatError(f"expected {what}, got {text!r}", lineno)
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
        # positive_matching pads an n x m gain to a max(n, m) square, so each
        # side is bounded on its own
        for rule in (AT_LEAST_0, AT_MOST_500):
            if not all(map(rule.holds, (n, m))):
                raise SettingError("random", args.random, rule.text)
        rng = np.random.default_rng(args.seed)
        scores = ScoreSet(
            rng.uniform(-2, 2, m), rng.uniform(-2, 2, n),
            rng.uniform(-2, 2, n), rng.uniform(-2, 2, m),
            rng.uniform(-2, 2, (n, m)),
        )
    else:
        scores = _read(args.scores, _parse_scoreset)
    sol = solve_exact(scores)
    out = sys.stdout
    out.write(f"n_prev={scores.n_prev} n_curr={scores.n_curr}\n")
    # plain Python numbers, so the score lines under a 'scoreset v1' header
    # read back through --scores
    rows = [("s_in", scores.s_in), ("s_out", scores.s_out),
            ("s_det_prev", scores.s_det_prev), ("s_det_curr", scores.s_det_curr),
            *(("s_link", row) for row in scores.s_link),
            ("f_in", sol.f_in), ("f_out", sol.f_out),
            ("f_det_prev", sol.f_det_prev), ("f_det_curr", sol.f_det_curr),
            *(("f_link", row) for row in sol.f_link)]
    for name, values in rows:
        out.write(f"{name}: " + " ".join(map(repr, values.tolist())) + "\n")
    out.write(f"objective={objective_value(scores, sol)!r}\n")
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
    p.add_argument("--t-birth", type=int, default=TrackerConfig.t_birth)
    p.add_argument("--t-death", type=int, default=TrackerConfig.t_death)
    p.add_argument("--w-iou", type=float, default=ScorerConfig.w_iou)
    p.add_argument("--w-det", type=float, default=ScorerConfig.w_det)
    p.add_argument("--terminal-score", type=float, default=ScorerConfig.terminal_score)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("evaluate", help="CLEAR-MOT evaluation of results vs ground truth")
    common(p)
    p.add_argument("--gt")
    p.add_argument("--hyp")
    p.add_argument("--iou", type=float, default=0.5)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("profile-latency", help="write the nominal per-op latency table")
    common(p)
    p.add_argument("--out")
    p.add_argument("--clock", choices=("synthetic",), default="synthetic",
                   help="only the nominal cost model, so the table prices each op as "
                        "a search without a table does; a table measured on the "
                        "target device is given to search instead")
    p.add_argument("--channels", type=int, default=nas.SpaceConfig.channels)
    p.add_argument("--resolution", type=int, default=nas.SpaceConfig.resolution)
    p.set_defaults(func=_cmd_profile_latency)

    p = sub.add_parser("search", help="two-stage Pareto sweep over lambda values")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambdas", default="0.01,0.1,1,10",
                   help="comma-separated, each finite and >= 0")
    p.add_argument("--out")
    p.add_argument("--table", help="latency table file; synthetic when omitted")
    p.add_argument("--plot-data", help="also write reciprocal-latency plot rows")
    p.add_argument("--normal-cells", type=int, default=nas.SpaceConfig.normal_cells)
    p.add_argument("--reduction-cells", type=int, default=nas.SpaceConfig.reduction_cells)
    p.add_argument("--nodes", type=int, default=nas.SpaceConfig.nodes)
    p.add_argument("--channels", type=int, default=nas.SpaceConfig.channels)
    p.add_argument("--resolution", type=int, default=nas.SpaceConfig.resolution)
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

    return parser


# the fields whose flag is not their name with dashes
_FLAG_OF_FIELD = {"iters": "stage2-iters", "thresh": "iou"}


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
            command.set_defaults(**_read(path, lambda lines: _config_defaults(command, lines)))
            args = parser.parse_args(argv)
        return args.func(args)
    except SettingError as exc:
        # a config field is reported as the flag that sets it
        flag = _FLAG_OF_FIELD.get(exc.name, exc.name.replace("_", "-"))
        print(f"error: --{flag} {exc.value} must be {exc.rule}", file=sys.stderr)
        return 1
    except (CliError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
