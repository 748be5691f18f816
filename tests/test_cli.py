import contextlib
import io
import os
import re
import stat
import subprocess
import sys

import pytest

from conftest import make_label, slot_box
from paretotrack import cli
from paretotrack.cli import build_parser, emit_plot_data, execute
from paretotrack.kitti_io import format_label_line
from paretotrack.nas.pareto import ParetoPoint
from paretotrack.nas.space import DiscreteArch


def _write_detections(path, n_frames=6, n_objects=2, score=0.9):
    lines = []
    for f in range(n_frames):
        for tid in range(n_objects):
            lines.append(format_label_line(make_label(f, tid, slot_box(tid, f),
                                                      score=score)))
    path.write_text("\n".join(lines) + "\n")


def test_track_writes_kitti_results(tmp_path, capsys):
    dets = tmp_path / "seq.txt"
    out = tmp_path / "res.txt"
    _write_detections(dets)
    code = execute(["track", "--dets", str(dets), "--out", str(out),
                    "--t-birth", "3", "--t-death", "5"])
    assert code == 0
    text = out.read_text()
    assert text
    for line in text.splitlines():
        assert len(line.split()) == 18


def test_evaluate_perfect_hypothesis(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    _write_detections(gt)
    code = execute(["evaluate", "--gt", str(gt), "--hyp", str(gt), "--iou", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "MOTA=1.0000" in out


@pytest.mark.parametrize("iou", ["5", "0", "nan"])
def test_evaluate_rejects_a_bad_threshold_on_empty_files(tmp_path, capsys, iou):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = execute(["evaluate", "--gt", str(empty), "--hyp", str(empty), "--iou", iou])
    assert code == 1
    assert capsys.readouterr().err == f"error: threshold must be in (0, 1], got {float(iou)}\n"


def test_track_then_evaluate_round(tmp_path, capsys):
    dets = tmp_path / "seq.txt"
    res = tmp_path / "res.txt"
    _write_detections(dets, n_frames=8)
    assert execute(["track", "--dets", str(dets), "--out", str(res),
                    "--t-birth", "1", "--t-death", "1"]) == 0
    capsys.readouterr()
    assert execute(["evaluate", "--gt", str(dets), "--hyp", str(res)]) == 0
    out = capsys.readouterr().out
    assert "MOTA=1.0000" in out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        execute(["frobnicate"])
    assert info.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        execute(["track", "--no-such-flag", "1"])
    assert info.value.code == 2


def test_missing_input_exits_1(tmp_path, capsys):
    code = execute(["track", "--dets", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "o.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_failed_run_leaves_no_partial_output(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a kitti line\n")
    out = tmp_path / "res.txt"
    code = execute(["track", "--dets", str(bad), "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_outputs_get_the_umask_mode(tmp_path, capsys, umask):
    out = tmp_path / "table.txt"
    old = os.umask(umask)
    try:
        assert execute(["profile-latency", "--out", str(out), "--reps", "1"]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_config_file_supplies_flags(tmp_path, capsys):
    dets = tmp_path / "seq.txt"
    out = tmp_path / "res.txt"
    _write_detections(dets)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dets={dets}\nout={out}\nt-birth=1\nt-death=1\n")
    assert execute(["track", "--config", str(cfg)]) == 0
    assert out.exists()


def test_flags_override_config(tmp_path, capsys):
    dets = tmp_path / "seq.txt"
    out_cfg = tmp_path / "from_config.txt"
    out_flag = tmp_path / "from_flag.txt"
    _write_detections(dets)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dets={dets}\nout={out_cfg}\n")
    assert execute(["track", "--config", str(cfg), "--out", str(out_flag)]) == 0
    assert out_flag.exists() and not out_cfg.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("does-not-exist=1\n")
    code = execute(["track", "--config", str(cfg)])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_env_var(tmp_path, capsys, monkeypatch):
    dets = tmp_path / "seq.txt"
    out = tmp_path / "res.txt"
    _write_detections(dets)
    cfg = tmp_path / "default.cfg"
    cfg.write_text(f"dets={dets}\nout={out}\nt-birth=1\nt-death=1\n")
    monkeypatch.setenv("PARETOTRACK_CONFIG", str(cfg))
    assert execute(["track"]) == 0
    assert out.exists()


def test_bad_typed_config_value_names_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# tracker\nt-death=2\nt-birth=x\n")
    assert execute(["track", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"error: {cfg}:3: t-birth: cannot parse 'x'" in err


@pytest.mark.parametrize("command, key", [("profile-latency", "clock"),
                                          ("search", "surrogate")])
def test_config_value_outside_the_choices_names_the_file_and_line(tmp_path, capsys,
                                                                  command, key):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out.txt"
    cfg.write_text(f"out={out}\n{key}=bogus\n")
    assert execute([command, "--config", str(cfg)]) == 1
    assert f"error: {cfg}:2: {key}: 'bogus' is not one of" in capsys.readouterr().err
    assert not out.exists()


def test_explicit_flag_at_its_default_beats_the_config(tmp_path, capsys):
    # two-frame objects are confirmed with t_birth=1 but not with the default 3
    dets = tmp_path / "seq.txt"
    _write_detections(dets, n_frames=2)
    cfg = tmp_path / "run.cfg"
    from_config = tmp_path / "from_config.txt"
    cfg.write_text(f"dets={dets}\nout={from_config}\nt-birth=1\n")
    assert execute(["track", "--config", str(cfg)]) == 0
    overridden = tmp_path / "overridden.txt"
    assert execute(["track", "--config", str(cfg), "--out", str(overridden),
                    "--t-birth", "3"]) == 0
    plain = tmp_path / "plain.txt"
    assert execute(["track", "--dets", str(dets), "--out", str(plain),
                    "--t-birth", "3"]) == 0
    assert from_config.read_text()
    assert overridden.read_bytes() == plain.read_bytes() == b""


def test_seed_from_config_equals_seed_flag(tmp_path, capsys):
    budget = ["--lambdas", "0.05,0.5", "--epochs", "20", "--theta-iters", "2",
              "--alpha-lr", "0.5", "--theta-lr", "0.2", "--stage2-iters", "30"]
    by_flag, by_config, by_default = (tmp_path / name for name in ("a", "b", "c"))
    assert execute(["search", "--out", str(by_flag), "--seed", "5"] + budget) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\n")
    assert execute(["search", "--config", str(cfg), "--out", str(by_config)]
                   + budget) == 0
    assert execute(["search", "--out", str(by_default)] + budget) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    assert by_config.read_bytes() != by_default.read_bytes()


def _long_flags():
    """(subcommand, flag, value) for every long flag each subcommand's help lists."""
    cases = []
    for command in ("track", "evaluate", "profile-latency", "search",
                    "assoc-debug", "bev"):
        help_text = io.StringIO()
        with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        flags = dict(re.findall(r"(?<![\w-])--([a-z][\w-]*)(?: \{([\w,-]+)\})?",
                                help_text.getvalue()))
        for flag, choices in sorted(flags.items()):
            if flag not in ("help", "config"):
                value = choices.split(",")[-1] if choices else "7"
                cases.append(pytest.param(command, flag, value, id=f"{command}-{flag}"))
    return cases


@pytest.mark.parametrize("command, flag, value", _long_flags())
def test_every_long_flag_is_a_config_key(tmp_path, monkeypatch, command, flag, value):
    seen = []
    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(vars(args)) or 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag}={value}\n")
    assert execute([command, f"--{flag}", value]) == 0
    assert execute([command, "--config", str(cfg)]) == 0
    by_flag, by_config = seen
    assert by_config.pop("config") == str(cfg)
    assert by_flag.pop("config") is None
    assert by_config == by_flag


@pytest.mark.parametrize("command", ["track", "evaluate", "profile-latency", "bev"])
def test_seed_only_where_it_is_read(command):
    with pytest.raises(SystemExit) as info:
        execute([command, "--seed", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_search_rejects_negative_or_non_finite_lambda(tmp_path, capsys, lam, via):
    out = tmp_path / "front.txt"
    lambdas = f"0.1,{lam}"
    argv = ["search", "--out", str(out), "--epochs", "5", "--stage2-iters", "5"]
    if via == "flag":
        argv += ["--lambdas", lambdas]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambdas={lambdas}\n")
        argv += ["--config", str(cfg)]
    assert execute(argv) == 1
    assert f"error: lambda '{lam}' must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["alpha-lr", "theta-lr"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_search_rejects_negative_or_non_finite_learning_rate(tmp_path, capsys,
                                                             rate, flag, via):
    out = tmp_path / "front.txt"
    argv = ["search", "--out", str(out), "--lambdas", "1", "--epochs", "2",
            "--stage2-iters", "2"]
    if via == "flag":
        argv += [f"--{flag}", rate]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={rate}\n")
        argv += ["--config", str(cfg)]
    assert execute(argv) == 1
    assert f"error: --{flag} {float(rate)!r} must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_profile_latency_synthetic_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert execute(["profile-latency", "--out", str(out),
                        "--clock", "synthetic", "--reps", "10"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("latency-table v1\n")


def test_profile_latency_real_clock_smoke(tmp_path, capsys):
    from paretotrack.latency import LatencyTable

    out = tmp_path / "real.txt"
    assert execute(["profile-latency", "--out", str(out), "--clock", "real",
                    "--warmup", "1", "--reps", "3"]) == 0
    table = LatencyTable.read(out.read_text().splitlines(keepends=True))
    assert len(table) == 18  # 9 ops x 2 kind templates
    assert all(entry.mean_ms >= 0.0 for _, entry in table.items())


def test_search_writes_front(tmp_path, capsys):
    out = tmp_path / "front.txt"
    assert execute(["search", "--out", str(out), "--lambdas", "0.01,0.1,1,10",
                    "--epochs", "40", "--theta-iters", "2",
                    "--alpha-lr", "0.5", "--theta-lr", "0.2",
                    "--stage2-iters", "60"]) == 0
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        assert line.startswith("lambda=")
        assert "latency_ms=" in line and "loss=" in line and "arch=" in line


def test_search_deterministic_across_jobs(tmp_path, capsys):
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"front-{jobs}.txt"
        assert execute(["search", "--out", str(out), "--lambdas", "0.05,0.5,5",
                        "--epochs", "40", "--theta-iters", "2",
                        "--alpha-lr", "0.5", "--theta-lr", "0.2",
                        "--stage2-iters", "60", "--jobs", jobs]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_search_plot_data(tmp_path, capsys):
    out = tmp_path / "front.txt"
    plot = tmp_path / "plot.txt"
    assert execute(["search", "--out", str(out), "--plot-data", str(plot),
                    "--lambdas", "0.01,0.5",
                    "--epochs", "40", "--theta-iters", "2",
                    "--alpha-lr", "0.5", "--theta-lr", "0.2",
                    "--stage2-iters", "60"]) == 0
    lines = plot.read_text().splitlines()
    assert lines[0].startswith("#")
    values = [float(l.split()[0]) for l in lines[1:]]
    assert values == sorted(values)


def test_emit_plot_data_contract():
    arch = DiscreteArch(edges=())
    sink = io.StringIO()
    emit_plot_data([ParetoPoint(10.0, 0.9, arch, 1.0)], sink)
    assert sink.getvalue().splitlines()[1] == "0.1 0.9"
    sink = io.StringIO()
    emit_plot_data([], sink)
    assert sink.getvalue() == "# 1/latency_ms track_loss\n"
    sink = io.StringIO()
    emit_plot_data([ParetoPoint(0.0, 0.9, arch, 1.0),
                    ParetoPoint(10.0, 0.5, arch, 1.0)], sink)
    assert sink.getvalue().splitlines()[1:] == ["0.1 0.5", "inf 0.9"]


def test_search_plot_data_with_an_empty_architecture(tmp_path, capsys):
    # At lambda = 10^2.5 the search drops every edge, so one front point
    # has zero latency; its plot row carries inf and sorts last.
    out = tmp_path / "front.txt"
    plot = tmp_path / "plot.txt"
    assert execute(["search", "--out", str(out), "--plot-data", str(plot),
                    "--lambdas", f"0.01,{10 ** 2.5!r}",
                    "--normal-cells", "1", "--reduction-cells", "0",
                    "--epochs", "40", "--theta-iters", "2",
                    "--alpha-lr", "0.5", "--theta-lr", "0.2",
                    "--stage2-iters", "60"]) == 0
    assert "latency_ms=0.0 " in out.read_text()
    rows = plot.read_text().splitlines()
    assert len(rows) == 3 and rows[-1].startswith("inf ")


def _table_with(tmp_path, field, value):
    """A profiled table whose fourth line has ``field`` set to ``value``."""
    table = tmp_path / "table.txt"
    assert execute(["profile-latency", "--out", str(table), "--reps", "1"]) == 0
    lines = table.read_text().splitlines(keepends=True)
    lines[3] = re.sub(rf"\b{field}=\S+", f"{field}={value}", lines[3])
    table.write_text("".join(lines))
    return table


@pytest.mark.parametrize("field, value, reason", [
    ("reps", "1.5", "invalid literal for int()"),
    ("mean_ms", "x", "could not convert string to float"),
    ("mean_ms", "nan", "latency statistics must be finite"),
])
def test_search_bad_table_entry_names_the_file_and_line(tmp_path, capsys, field, value,
                                                        reason):
    table = _table_with(tmp_path, field, value)
    out = tmp_path / "front.txt"
    assert execute(["search", "--table", str(table), "--out", str(out),
                    "--lambdas", "0.1", "--epochs", "5", "--stage2-iters", "5"]) == 1
    err = capsys.readouterr().err
    assert f"error: {table}:4: {reason}" in err
    assert not out.exists()


def test_assoc_debug_random(capsys):
    assert execute(["assoc-debug", "--random", "2,3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "n_prev=2 n_curr=3" in out
    assert "objective=" in out


def test_assoc_debug_scores_file(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text(
        "scoreset v1\n"
        "n_prev=1 n_curr=1\n"
        "s_in: -1.0\n"
        "s_out: -1.0\n"
        "s_det_prev: 1.0\n"
        "s_det_curr: 1.0\n"
        "2.0\n"
    )
    assert execute(["assoc-debug", "--scores", str(scores)]) == 0
    out = capsys.readouterr().out
    assert "objective=4.0" in out
    assert "f_link: 1" in out


@pytest.mark.parametrize("sizes", ["n_prev 1 n_curr 1", "n_curr=1", "n_prev=-1 n_curr=1"])
def test_assoc_debug_bad_scoreset_sizes_name_the_line(tmp_path, capsys, sizes):
    scores = tmp_path / "scores.txt"
    scores.write_text(f"scoreset v1\n{sizes}\ns_in: -1.0\n")
    assert execute(["assoc-debug", "--scores", str(scores)]) == 1
    err = capsys.readouterr().err
    assert f"{scores}:2: expected 'n_prev=N n_curr=M'" in err


@pytest.mark.parametrize("body, lineno", [
    ("", 3),                                      # file ends after the sizes
    ("s_in: -1.0 2.0\n", 3),                      # one value too many
    ("s_in: nan\n", 3),                           # not finite
    ("s_in: -1.0\n# note\ns_out: x\n", 5),        # not a number, after a comment
    ("s_in: -1\ns_out: -1\ns_det_prev: 1\ns_det_curr: 1\n", 7),  # no link row
])
def test_assoc_debug_bad_scoreset_rows_name_the_line(tmp_path, capsys, body, lineno):
    scores = tmp_path / "scores.txt"
    scores.write_text("scoreset v1\nn_prev=1 n_curr=1\n" + body)
    assert execute(["assoc-debug", "--scores", str(scores)]) == 1
    assert f"error: {scores}:{lineno}: expected " in capsys.readouterr().err


def _kitti_argv(tmp_path, flag, bad_text):
    """A track or evaluate run whose ``flag`` file holds ``bad_text``."""
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    _write_detections(good)
    bad.write_text(bad_text)
    files = {"--dets": bad} if flag == "--dets" else {"--gt": good, "--hyp": good, flag: bad}
    command = "track" if flag == "--dets" else "evaluate"
    argv = [command, "--out", str(tmp_path / "res.txt")] if command == "track" else [command]
    for name, path in files.items():
        argv += [name, str(path)]
    return argv, bad


@pytest.mark.parametrize("flag", ["--dets", "--gt", "--hyp"])
def test_kitti_format_errors_name_the_file_and_line(tmp_path, capsys, flag):
    good_line = format_label_line(make_label(0, 1, slot_box(0, 0)))
    argv, bad = _kitti_argv(tmp_path, flag, f"{good_line}\n{good_line}\n0 1\n")
    assert execute(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}:3: expected 17 or 18 fields, got 2\n"


@pytest.mark.parametrize("flag, field, token", [
    ("--dets", "score", "nan"),
    ("--dets", "bbox_right", "inf"),
    ("--gt", "bbox_left", "-inf"),
    ("--hyp", "score", "inf"),
])
def test_non_finite_box_or_score_names_the_file_and_line(tmp_path, capsys, flag, field,
                                                          token):
    fields = format_label_line(make_label(0, 1, slot_box(0, 0), score=0.5)).split()
    fields[{"bbox_left": 6, "bbox_right": 8, "score": 17}[field]] = token
    good_line = format_label_line(make_label(0, 2, slot_box(1, 0), score=0.5))
    argv, bad = _kitti_argv(tmp_path, flag, f"{good_line}\n{' '.join(fields)}\n")
    assert execute(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:2: field '{field}' is not finite: '{token}'\n")


@pytest.mark.parametrize("flag", ["--gt", "--hyp"])
def test_evaluate_names_a_repeated_record(tmp_path, capsys, flag):
    lines = [format_label_line(make_label(f, tid, slot_box(tid, f)))
             for f, tid in [(0, 1), (0, 2), (1, 1), (2, 2), (1, 2), (1, 1), (0, 2)]]
    argv, bad = _kitti_argv(tmp_path, flag, "\n".join(lines) + "\n")
    assert execute(argv) == 1
    # lines 6 and 7 both repeat a record of their frame; the first is named
    assert capsys.readouterr().err == f"error: {bad}:6: duplicate track_id 1 in frame 1\n"


def test_bev_subcommand(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("0.0 0.0 1.5\n0.4 0.2 0.5\n9 9 9\n")
    out = tmp_path / "img.pgm"
    assert execute(["bev", "--points", str(pts), "--box", "0,0,0,4,2,2,0",
                    "--rows", "8", "--cols", "8", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("P2\n8 8\n")


@pytest.mark.parametrize("token", ["nan", "inf"])
@pytest.mark.parametrize("position", range(7))
def test_bev_rejects_a_non_finite_box(tmp_path, capsys, position, token):
    pts = tmp_path / "points.txt"
    pts.write_text("0.0 0.0 0.5\n")
    out = tmp_path / "img.pgm"
    box = ["0", "0", "0", "4", "2", "2", "0"]
    box[position] = token
    assert execute(["bev", "--points", str(pts), "--box", ",".join(box),
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: box center, size and yaw must be finite, got Box3D(center=(")
    assert token in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "paretotrack.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "track" in proc.stdout and "search" in proc.stdout


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("track", "evaluate", "profile-latency", "search",
                 "assoc-debug", "bev"):
        assert name in text
