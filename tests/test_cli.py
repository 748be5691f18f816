import argparse
import contextlib
import hashlib
import io
import logging
import math
import os
import re
import stat
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import label_line, slot_box
from paretotrack import cli, kitti_io, nas
from paretotrack.cli import build_parser, emit_plot_data, execute
from paretotrack.latency import CANDIDATE_OPS, LatencyEntry, LatencyTable, OpConfig
from paretotrack.nas.pareto import ParetoPoint
from paretotrack.nas.space import DiscreteArch
from paretotrack.settings import AT_LEAST_1, AT_MOST_4096, BOUNDED, UNIT_INTERVAL
from test_golden import C06_FLAGS, C06_LAMBDAS


def _write_detections(path, n_frames=6, n_objects=2, score=0.9):
    lines = []
    for f in range(n_frames):
        for tid in range(n_objects):
            lines.append(label_line(f, tid, slot_box(tid, f), score=score))
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


def test_evaluate_counts_a_zero_width_box_as_a_miss_and_a_false_positive(tmp_path, capsys):
    # a box with zero width has IoU 0 with every box, itself included
    gt = tmp_path / "gt.txt"
    gt.write_text("0 1 Car 0 0 0 10 10 10 50 1.5 1.6 3.9 2.0 1.5 30.0 -1.5\n")
    assert execute(["evaluate", "--gt", str(gt), "--hyp", str(gt)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-5:] == ["MOTA=-1.0000", "FP=1", "FN=1", "IDSW=0", "GT=1"]


@pytest.mark.parametrize("iou", ["5", "0", "nan"])
def test_evaluate_rejects_a_bad_threshold_on_empty_files(tmp_path, capsys, iou):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = execute(["evaluate", "--gt", str(empty), "--hyp", str(empty), "--iou", iou])
    assert code == 1
    assert capsys.readouterr().err == f"error: --iou {float(iou)} must be in (0, 1]\n"


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


@pytest.mark.parametrize("command, flag", [
    ("track", "--dets"), ("evaluate", "--gt"), ("evaluate", "--hyp"),
    ("search", "--table"), ("assoc-debug", "--scores"), ("search", "--config"),
], ids=lambda x: x.lstrip("-"))
def test_missing_input_exits_1(tmp_path, capsys, command, flag):
    present = tmp_path / "empty.txt"
    present.write_text("")
    missing = str(tmp_path / "nope.txt")
    out = tmp_path / "o.txt"
    args = {"track": ["--dets", str(present), "--out", str(out)],
            "evaluate": ["--gt", str(present), "--hyp", str(present)],
            "search": ["--out", str(out)],
            "assoc-debug": []}[command]
    code = execute([command, *args, flag, missing])
    assert code == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n")
    assert not out.exists()


def test_a_file_that_is_not_text_is_named(tmp_path, capsys):
    dets = tmp_path / "dets.bin"
    dets.write_bytes(b"0 -1 Car \xff\xfe\n")
    out = tmp_path / "o.txt"
    assert execute(["track", "--dets", str(dets), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {dets}: ") and "decode" in err, err
    assert not out.exists()


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
        assert execute(["profile-latency", "--out", str(out)]) == 0
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


def _long_options():
    """(subcommand, option, action) for every long option of every subcommand but
    --help and --config, read from the parser that execute() builds."""
    (commands,) = (action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return [(command, option[2:], action)
            for command, parser in commands.items()
            for action in parser._actions if action.dest not in ("help", "config")
            for option in action.option_strings if option.startswith("--")]


def _long_flags():
    """(subcommand, flag, value) for every long flag, with a value the flag accepts."""
    return [pytest.param(command, flag, action.choices[-1] if action.choices else "7",
                         id=f"{command}-{flag}")
            for command, flag, action in _long_options()]


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


# The files a command reads or writes: its inputs, not its settings.
_PATHS = {"dets", "gt", "hyp", "scores", "table", "out", "plot-data"}
# Options kept although no input makes them change their command's output, and why.
_KEPT = {
    "jobs": "perfbench/workloads.py passes --jobs 1, and c10 and "
            "test_search_deterministic_across_jobs pass several values",
    "clock": "perfbench/workloads.py passes profile-latency --clock synthetic",
}
_SEARCH = ["--lambdas", "0.001,0.01,0.1,1,10,100"]
# (command, option) -> (other flags, a value, another value whose output differs)
_TWO_VALUES = {
    ("track", "t-birth"): ([], "3", "7"),
    ("track", "t-death"): ([], "5", "1"),
    ("track", "w-iou"): ([], "1", "0.1"),
    ("track", "w-det"): ([], "1", "0.1"),
    ("track", "terminal-score"): ([], "-0.2", "-0.5"),
    ("evaluate", "iou"): ([], "0.5", "0.3"),
    ("profile-latency", "channels"): ([], "16", "48"),
    ("profile-latency", "resolution"): ([], "32", "64"),
    ("search", "seed"): (_SEARCH, "0", "1"),
    ("search", "lambdas"): ([], "0.01,0.1,1,10", "0.001,0.01,0.1,1,10,100"),
    ("search", "normal-cells"): (_SEARCH, "1", "2"),
    ("search", "reduction-cells"): (_SEARCH, "1", "0"),
    ("search", "nodes"): (_SEARCH, "3", "4"),
    # the nominal table prices every op in proportion at either setting, so
    # only a table with one hand-edited row shows that they are read
    ("search", "channels"): (_SEARCH + ["--table", "table.txt"], "16", "48"),
    ("search", "resolution"): (_SEARCH + ["--table", "table.txt"], "32", "64"),
    ("search", "epochs"): (_SEARCH, "50", "20"),
    ("search", "theta-iters"): (_SEARCH + ["--surrogate", "quadratic", "--alpha-lr", "50"],
                                "0", "1"),
    ("search", "alpha-lr"): (_SEARCH, "0.05", "0.1"),
    ("search", "theta-lr"): (_SEARCH, "0.01", "0.05"),
    ("search", "stage2-iters"): (_SEARCH, "200", "50"),
    # at this rate the quadratic's theta loss falls and then grows, so its
    # best checkpoint depends on which iterations are evaluated
    ("search", "eval-interval"): (_SEARCH + ["--surrogate", "quadratic", "--theta-lr", "0.65",
                                             "--stage2-iters", "20"], "10", "1"),
    ("search", "surrogate"): (_SEARCH, "op-cost", "quadratic"),
    ("search", "theta-dim"): (_SEARCH, "4", "2"),
    ("assoc-debug", "seed"): (["--random", "3,4"], "0", "1"),
    ("assoc-debug", "random"): ([], "3,4", "4,3"),
}


# the input flags of each command, on the files that _write_guard_inputs writes
_INPUTS = {"track": ["--dets", "dets.txt", "--out", "out.txt"],
           "evaluate": ["--gt", "gt.txt", "--hyp", "hyp.txt"],
           "profile-latency": ["--out", "out.txt"], "search": ["--out", "out.txt"],
           "assoc-debug": []}


def _write_guard_inputs(directory):
    # a steady object, one that misses frames 4 and 5, and one that jumps 40
    # pixels a frame, so that consecutive boxes overlap at IoU 0.2
    dets = [label_line(f, 0, slot_box(0, f)) for f in range(8)]
    dets += [label_line(f, 1, slot_box(1, f)) for f in (0, 1, 2, 3, 6, 7, 8, 9)]
    dets += [label_line(f, 2, (300.0 + 40 * f, 200.0, 360.0 + 40 * f, 230.0))
             for f in range(8)]
    (directory / "dets.txt").write_text("\n".join(dets) + "\n")
    # the hypothesis overlaps the ground truth at IoU 36/84
    (directory / "gt.txt").write_text("".join(
        label_line(f, 0, (10.0, 10.0, 70.0, 40.0)) + "\n" for f in range(4)))
    (directory / "hyp.txt").write_text("".join(
        label_line(f, 0, (34.0, 10.0, 94.0, 40.0)) + "\n" for f in range(4)))
    entries = {}
    for channels, resolution in ((16, 32), (48, 32), (16, 64)):
        entries.update(nas.nominal_table(nas.init_search_space(nas.SpaceConfig(
            channels=channels, resolution=resolution))).items())
    cheap = OpConfig("sep_conv_7", 16, 16, 32, 1)
    entries[cheap] = LatencyEntry(entries[cheap].mean_ms / 10, 0.0, 1)
    with open(directory / "table.txt", "w") as sink:
        LatencyTable(entries).write(sink)


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=f"{command}-{option}")
    for command, option, _ in _long_options() if option not in _PATHS | set(_KEPT)])
def test_every_setting_changes_its_commands_output(tmp_path, monkeypatch, capsys,
                                                  command, option):
    assert (command, option) in _TWO_VALUES, (
        f"{command} --{option}: give two values whose outputs differ, or keep it in "
        "_KEPT with the reason it stays")
    _write_guard_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    flags, *values = _TWO_VALUES[command, option]
    out = tmp_path / "out.txt"
    outputs = []
    for value in values:
        capsys.readouterr()
        assert execute([command, *_INPUTS[command], *flags, f"--{option}", value]) == 0
        printed = capsys.readouterr().out
        if command == "search":
            # every front line but its latency_ms, which a setting can only rescale
            fields = [dict(tok.split("=", 1) for tok in line.split())
                      for line in out.read_text().splitlines()]
            outputs.append([(f["lambda"], f["loss"], f["arch"]) for f in fields])
        elif command in ("track", "profile-latency"):
            outputs.append(out.read_bytes())
        else:
            outputs.append(printed)
    assert outputs[0] != outputs[1], f"{command} --{option} {values[0]} and {values[1]}"


def test_the_setting_guard_names_only_existing_options():
    options = {(command, option) for command, option, _ in _long_options()}
    assert set(_TWO_VALUES) <= options
    assert set(_KEPT) <= {option for _, option in options}


@pytest.mark.parametrize("command", ["track", "evaluate", "profile-latency"])
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


@pytest.mark.parametrize("command, flag, value, rule", [
    ("track", "--w-iou", "inf", "at most 2**510 in magnitude"),
    ("track", "--w-det", "nan", "at most 2**510 in magnitude"),
    ("track", "--w-det", "1e+308", "at most 2**510 in magnitude"),
    ("track", "--terminal-score", "nan", "at most 2**510 in magnitude"),
    ("track", "--t-birth", "0", ">= 1"),
    ("track", "--t-death", "0", ">= 1"),
    ("search", "--epochs", "0", ">= 1"),
    ("search", "--theta-iters", "-1", ">= 0"),
    ("search", "--stage2-iters", "-1", ">= 0"),
    ("search", "--eval-interval", "0", ">= 1"),
    ("search", "--nodes", "1", ">= 2"),
    ("search", "--normal-cells", "-1", ">= 0"),
    ("search", "--reduction-cells", "-1", ">= 0"),
    ("search", "--channels", "0", ">= 1"),
    ("search", "--resolution", "0", ">= 1"),
    ("search", "--channels", "4097", "<= 4096"),
    ("search", "--resolution", "4097", "<= 4096"),
    ("profile-latency", "--channels", "0", ">= 1"),
    ("profile-latency", "--resolution", "0", ">= 1"),
    ("profile-latency", "--channels", "4097", "<= 4096"),
    ("profile-latency", "--resolution", "4097", "<= 4096"),
    ("assoc-debug", "--random", "2,-1", ">= 0"),
    ("assoc-debug", "--random", "501,1", "<= 500"),
    ("assoc-debug", "--random", "100000,100000", "<= 500"),
])
def test_a_bad_flag_value_names_the_flag(tmp_path, capsys, command, flag, value, rule):
    out = tmp_path / "out.txt"
    if command == "track":
        dets = tmp_path / "d.txt"
        _write_detections(dets)
        argv = ["track", "--dets", str(dets), "--out", str(out)]
    elif command == "search":
        argv = ["search", "--out", str(out), "--lambdas", "1", "--epochs", "2",
                "--stage2-iters", "2"]
    elif command == "assoc-debug":
        argv = ["assoc-debug"]
    else:
        argv = ["profile-latency", "--out", str(out)]
    assert execute(argv + [flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag} {value} must be {rule}\n"
    assert not out.exists()


def test_profile_latency_synthetic_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert execute(["profile-latency", "--out", str(out),
                        "--clock", "synthetic"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("latency-table v1\n")


@pytest.mark.parametrize("channels, resolution", [(16, 32), (1, 1), (4096, 4096)])
def test_profile_latency_writes_the_nominal_table(tmp_path, capsys, channels, resolution):
    out = tmp_path / "table.txt"
    assert execute(["profile-latency", "--out", str(out), "--channels", str(channels),
                    "--resolution", str(resolution)]) == 0
    nominal = io.StringIO()
    nas.nominal_table(nas.init_search_space(
        nas.SpaceConfig(channels=channels, resolution=resolution))).write(nominal)
    assert out.read_bytes() == nominal.getvalue().encode()


@pytest.mark.parametrize("flags", [
    [],
    ["--lambdas", ",".join(repr(x) for x in C06_LAMBDAS[::32])] + C06_FLAGS,
], ids=["default", "c06"])
def test_search_on_a_profiled_table_equals_a_table_less_search(tmp_path, capsys, flags):
    table = tmp_path / "table.txt"
    assert execute(["profile-latency", "--out", str(table)]) == 0
    runs = []
    for name, extra in (("profiled", ["--table", str(table)]), ("nominal", [])):
        front, plot = tmp_path / f"front-{name}.txt", tmp_path / f"plot-{name}.txt"
        assert execute(["search", "--out", str(front), "--plot-data", str(plot)]
                       + extra + flags) == 0
        runs.append((front.read_bytes(), plot.read_bytes()))
    assert runs[0] == runs[1]


# a score weight at the edges of its rule, just past them and far past; 10**20
# and 2**511 are spelled as integers
_WEIGHT = ((BOUNDED,), [0.0, -1.0, 10 ** 20, 2.0 ** 510, -(2.0 ** 510),
                        math.nextafter(2.0 ** 510, math.inf), 2 ** 511, -(2 ** 511), 1e308,
                        math.nan, math.inf, -math.inf])
_COUNT = ((AT_LEAST_1,), [-1, 0, 1, 2, 10 ** 20, 2 ** 511])

# each setting of a subcommand: its rules, and values at their edges, just past
# them and far past
_HOSTILE_SETTINGS = {
    "track": {"t-birth": _COUNT, "t-death": _COUNT, "w-iou": _WEIGHT, "w-det": _WEIGHT,
              "terminal-score": _WEIGHT},
    "evaluate": {"iou": ((UNIT_INTERVAL,), [-1.0, 0.0, 5e-324, 0.5, 1.0,
                                            math.nextafter(1.0, 2.0), 10 ** 20, 2 ** 511,
                                            math.nan, math.inf, -math.inf])},
    "profile-latency": {
        "channels": ((AT_LEAST_1, AT_MOST_4096), [-1, 0, 1, 2, 16, 4096, 4097, 10 ** 155,
                                                  10 ** 200]),
        "resolution": ((AT_LEAST_1, AT_MOST_4096), [-1, 0, 1, 32, 4096, 4097, 10 ** 300]),
    },
}


@pytest.mark.parametrize("command", sorted(_HOSTILE_SETTINGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_settings_exit_cleanly(tmp_path_factory, command, data):
    hostile = _HOSTILE_SETTINGS[command]
    values = {flag: data.draw(st.sampled_from(options), label=flag)
              for flag, (_, options) in hostile.items() if data.draw(st.booleans())}
    broken = {(flag, rule.text) for flag, value in values.items()
              for rule in hostile[flag][0] if not rule.holds(value)}
    tmp = tmp_path_factory.mktemp(command)
    out, dets = tmp / "out.txt", tmp / "dets.txt"
    _write_detections(dets)
    argv = {"track": ["track", "--dets", str(dets), "--out", str(out)],
            "evaluate": ["evaluate", "--gt", str(dets), "--hyp", str(dets)],
            "profile-latency": ["profile-latency", "--clock", "synthetic",
                                "--out", str(out)]}[command]
    if data.draw(st.booleans(), label="via config"):
        (tmp / "run.cfg").write_text("".join(f"{k}={v!r}\n" for k, v in values.items()))
        argv += ["--config", str(tmp / "run.cfg")]
    else:  # '--flag=value', so that a value such as '-inf' is not taken for a flag
        argv += [f"--{k}={v!r}" for k, v in values.items()]
    code, err = _run_cleanly(argv)
    assert code == (1 if broken else 0), err
    if code == 1:
        # one of the broken settings, named by its flag, its value and its rule
        named = re.fullmatch(r"error: --(\S+) (\S+) must be ([^\n]+)\n", err)
        assert named and (named[1], named[3]) in broken, err
        got, drawn = float(named[2]), float(values[named[1]])
        assert got == drawn or math.isnan(got) and math.isnan(drawn), err
        assert not out.exists()
    elif command == "track":
        assert out.exists()
    elif command == "profile-latency":
        space = nas.init_search_space(nas.SpaceConfig(
            channels=values.get("channels", 16), resolution=values.get("resolution", 32)))
        table = LatencyTable.read(out.read_text().splitlines(keepends=True))
        assert len(table) == len(CANDIDATE_OPS) * len(space.kinds())


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
    assert execute(["profile-latency", "--out", str(table)]) == 0
    lines = table.read_text().splitlines(keepends=True)
    lines[3] = re.sub(rf"\b{field}=\S+", f"{field}={value}", lines[3])
    table.write_text("".join(lines))
    return table


@pytest.mark.parametrize("field, value, reason", [
    ("reps", "1.5", "invalid literal for int()"),
    ("mean_ms", "x", "could not convert string to float"),
    ("mean_ms", "nan", "latency statistics must be at most 2**510 in magnitude"),
    ("mean_ms", "1e308", "latency statistics must be at most 2**510 in magnitude"),
    ("cin", "0", "in_channels must be >= 1, got 0"),
    ("std_ms", "-1.0", "std_ms must be >= 0, got -1.0"),
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


@pytest.mark.parametrize("edit, reason", [
    (lambda text: re.sub(r"mean_ms=\S+", "mean_ms=0.0", text),
     "every op of the search space costs 0 ms, so the latency term has no scale"),
    (lambda text: re.sub(r"op=sep_conv_7 .*\n", "", text),
     "no latency entry for OpConfig(op_name='sep_conv_7'"),
], ids=["zero-latencies", "missing-entry"])
def test_search_rejects_a_table_it_cannot_price_with(tmp_path, capsys, edit, reason):
    table = tmp_path / "table.txt"
    assert execute(["profile-latency", "--out", str(table)]) == 0
    table.write_text(edit(table.read_text()))
    out, plot = tmp_path / "front.txt", tmp_path / "plot.txt"
    assert execute(["search", "--table", str(table), "--out", str(out),
                    "--plot-data", str(plot), "--lambdas", "0,1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {table}: {reason}")
    assert not out.exists() and not plot.exists()


def test_search_writes_nothing_when_every_lambda_fails(tmp_path, capsys):
    out, plot = tmp_path / "front.txt", tmp_path / "plot.txt"
    assert execute(["search", "--out", str(out), "--plot-data", str(plot),
                    "--lambdas", "0,1", "--epochs", "5", "--stage2-iters", "5",
                    "--theta-lr", "1e300"]) == 1
    assert "error: all 2 lambdas failed; no front written\n" in capsys.readouterr().err
    assert not out.exists() and not plot.exists()


def test_search_names_a_negative_theta_dim(tmp_path, capsys):
    out = tmp_path / "front.txt"
    argv = ["search", "--out", str(out), "--lambdas", "0.1,1", "--epochs", "5",
            "--stage2-iters", "5"]
    assert execute(argv + ["--theta-dim", "-1"]) == 1
    assert capsys.readouterr().err == "error: --theta-dim -1 must be >= 0\n"
    assert not out.exists()
    assert execute(argv + ["--theta-dim", "0"]) == 0
    assert out.read_text()


@pytest.mark.parametrize("action", ["default", "error"])
def test_search_skips_a_diverging_lambda_alone(tmp_path, capsys, caplog, action):
    # lambda = 1e308 overflows the latency gradient on the first epoch
    runs = {}
    for lambdas in ("0.1,1e308,1", "0.1,1"):
        out = tmp_path / f"front-{lambdas}.txt"
        caplog.clear()
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert execute(["search", "--out", str(out), "--lambdas", lambdas,
                            "--epochs", "20", "--stage2-iters", "20"]) == 0
        skips = [r.getMessage() for r in caplog.records
                 if r.name == "paretotrack.nas.pareto"]
        runs[lambdas] = skips, out.read_bytes()
    assert runs["0.1,1e308,1"][0] == [
        "lambda=1e+308 failed, skipping: non-finite logits at epoch 0"]
    assert runs["0.1,1"][0] == []
    assert runs["0.1,1e308,1"][1] == runs["0.1,1"][1]


def test_search_names_a_duplicate_table_entry(tmp_path, capsys):
    table = tmp_path / "table.txt"
    assert execute(["profile-latency", "--out", str(table)]) == 0
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(lines + [lines[2].replace("mean_ms=", "mean_ms=9")]))
    out = tmp_path / "front.txt"
    assert execute(["search", "--table", str(table), "--out", str(out),
                    "--lambdas", "0.1", "--epochs", "5", "--stage2-iters", "5"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(table))}:{len(lines) + 1}: duplicate "
                        r"entry for OpConfig\(.*\), first on line 3\n", err), err
    assert not out.exists()


@pytest.fixture(scope="module")
def profiled_table(tmp_path_factory):
    """The lines of a profiled table, header first."""
    table = tmp_path_factory.mktemp("profiled") / "table.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert execute(["profile-latency", "--out", str(table)]) == 0
    return table.read_text().splitlines(keepends=True)


def _set_mean(value):
    return lambda line: re.sub(r"\bmean_ms=\S+", f"mean_ms={value}", line)


@st.composite
def _mutated_tables(draw, lines):
    """``lines`` after one to three hostile edits, each to a drawn line."""
    lines = list(lines)
    entry = lambda: draw(st.integers(1, max(len(lines) - 1, 1)))  # noqa: E731
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["mean", "non-finite", "missing", "duplicate",
                                     "zero-cost", "truncated"]))
        if len(lines) < 2 and kind != "zero-cost":
            continue
        if kind == "mean":  # huge finite or tiny, on one line or on all
            value = draw(st.sampled_from([2.0 ** 510, 2.0 ** 511, 1e300, 1e308,
                                          1.7976931348623157e308, 5e-324, 2.0 ** -1022,
                                          1e-300, -0.0]))
            for i in range(1, len(lines)) if draw(st.booleans()) else [entry()]:
                lines[i] = _set_mean(repr(value))(lines[i])
        elif kind == "non-finite":
            field = draw(st.sampled_from(["mean_ms", "std_ms"]))
            token = draw(st.sampled_from(["nan", "inf", "-inf", "-nan"]))
            i = entry()
            lines[i] = re.sub(rf"\b{field}=\S+", f"{field}={token}", lines[i])
        elif kind == "missing":
            del lines[entry()]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[entry()])
        elif kind == "zero-cost":
            lines = [lines[0]] + [_set_mean("0.0")(line) for line in lines[1:]]
        else:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))] + "\n"
    return lines


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_search_on_a_mutated_table_exits_cleanly(tmp_path_factory, profiled_table, data):
    lines = data.draw(_mutated_tables(profiled_table))
    tmp = tmp_path_factory.mktemp("mutated")
    table, out, plot = tmp / "table.txt", tmp / "front.txt", tmp / "plot.txt"
    table.write_text("".join(lines))
    err = io.StringIO()
    # the sweep's skip warnings reach stderr, as they do from the console script
    handler = logging.StreamHandler(err)
    sweep_log = logging.getLogger("paretotrack.nas.pareto")
    sweep_log.addHandler(handler)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = execute(["search", "--table", str(table), "--out", str(out),
                            "--plot-data", str(plot), "--lambdas", "0,0.1,1,1000",
                            "--epochs", "2", "--stage2-iters", "2"])
    finally:
        sweep_log.removeHandler(handler)
    assert code in (0, 1)
    assert not caught
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 1:
        path = re.escape(str(table))
        assert re.fullmatch(rf"error: {path}:\d+: .*\n", err.getvalue()) or re.fullmatch(
            rf"error: {path}: (no latency entry for .*|every op of the search space costs 0 ms"
            r", so the latency term has no scale)\n", err.getvalue()), err.getvalue()
        assert not out.exists() and not plot.exists()
    else:
        assert out.read_text() and plot.read_text()


@st.composite
def _mutated_tracking_files(draw):
    """A well-formed tracking file of a few objects over a few frames, after zero
    to three hostile edits, each to a drawn line."""
    lines = [label_line(frame, slot, slot_box(slot, frame), score=0.9) + "\n"
             for frame in range(draw(st.integers(1, 6)))
             for slot in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split()
        kind = draw(st.sampled_from(["truncated", "token", "blank", "fields", "huge",
                                     "repeated-id", "gap"]))
        if kind == "truncated":
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at]) - 1))] + "\n"
            continue
        if kind == "blank":
            lines.insert(at, draw(st.sampled_from(["\n", " \n", "\t\n"])))
            continue
        if len(fields) != 18:  # broken by an earlier edit
            continue
        if kind == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(
                ["1.0x", "nan", "-inf", "1e400", "-1", "#", '"', "1_0", "٣", "3.0", "0x10"]))
        elif kind == "fields":
            fields = fields[:16] if draw(st.booleans()) else fields + ["1.0"]
        elif kind == "huge":  # finite values at and beyond what the reader bounds
            value = draw(st.sampled_from([2.0 ** 510, 2.0 ** 511, 1e308, 5e-324, -0.0,
                                          1.7976931348623157e308]))
            if draw(st.booleans()):
                fields[6:10] = [repr(-value), repr(-value), repr(value), repr(value)]
            else:
                fields[draw(st.sampled_from([6, 7, 8, 9, 10, 13, 17]))] = repr(value)
        elif kind == "repeated-id":  # slot 0's ID, which every frame has
            fields[1] = "0"
        else:  # this line and every later one move far ahead
            gap = draw(st.sampled_from([10 ** 6, 2 ** 62, 2 ** 63 + 5, 10 ** 30]))
            for later in range(at, len(lines)):
                frame, _, rest = lines[later].partition(" ")
                if frame.isdigit():
                    lines[later] = f"{int(frame) + gap} {rest}"
            continue
        lines[at] = " ".join(fields) + "\n"
    return lines


def _run_cleanly(argv):
    """``execute(argv)``'s exit status and stderr; no warning may be raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = execute(argv)
    assert code in (0, 1)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(_mutated_tracking_files(), _mutated_tracking_files())
def test_track_and_evaluate_on_mutated_files_exit_cleanly(tmp_path_factory, gt_lines, hyp_lines):
    tmp = tmp_path_factory.mktemp("mutated")
    gt, hyp, out = tmp / "gt.txt", tmp / "hyp.txt", tmp / "tracks.txt"
    gt.write_text("".join(gt_lines))
    hyp.write_text("".join(hyp_lines))
    code, err = _run_cleanly(["track", "--dets", str(hyp), "--out", str(out), "--t-birth", "1"])
    if code == 1:
        assert re.fullmatch(rf"error: {re.escape(str(hyp))}:\d+: .*\n", err), err
        assert not out.exists()
    else:
        assert out.exists()
    code, err = _run_cleanly(["evaluate", "--gt", str(gt), "--hyp", str(hyp)])
    if code == 1:
        assert re.fullmatch(rf"error: ({re.escape(str(gt))}|{re.escape(str(hyp))}):\d+: .*\n",
                            err), err


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


@pytest.mark.parametrize("sizes", ["0,3", "3,0", "2,3", "5,5"])
def test_assoc_debug_score_lines_read_back_through_scores(tmp_path, capsys, sizes):
    assert execute(["assoc-debug", "--random", sizes, "--seed", "7"]) == 0
    dump = capsys.readouterr().out
    scores = tmp_path / "scores.txt"
    scores.write_text("scoreset v1\n" + dump.partition("f_in:")[0])
    assert execute(["assoc-debug", "--scores", str(scores)]) == 0
    assert capsys.readouterr().out == dump


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


# finite scores around the bound, and far beyond it
_huge_scores = st.one_of(
    st.sampled_from([1e308, -1e308, 2.0 ** 510, -(2.0 ** 510), 2.0 ** 511, 1.0, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_assoc_debug_on_huge_finite_scores_exits_cleanly(tmp_path_factory, n, m, data):
    def row(size):
        return " ".join(map(repr, data.draw(st.lists(_huge_scores, min_size=size,
                                                     max_size=size))))

    lines = ["scoreset v1", f"n_prev={n} n_curr={m}", f"s_in: {row(m)}", f"s_out: {row(n)}",
             f"s_det_prev: {row(n)}", f"s_det_curr: {row(m)}", *(row(m) for _ in range(n))]
    scores = tmp_path_factory.mktemp("scores") / "scores.txt"
    scores.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = execute(["assoc-debug", "--scores", str(scores)])
    assert code in (0, 1)
    assert not caught
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 1:
        assert re.fullmatch(rf"error: {re.escape(str(scores))}:\d+: expected .*\n",
                            err.getvalue())


@pytest.mark.parametrize("flag", ["--dets", "--gt", "--hyp"])
@pytest.mark.parametrize("box, field, token", [
    (("-1e308", "-1e308", "1e308", "1e308"), "bbox_left", "-1e308"),
    (("0.0", "0.0", "3.4e153", "30.0"), "bbox_right", "3.4e153"),
])
def test_a_box_whose_area_could_overflow_names_the_file_and_line(tmp_path, capsys, flag,
                                                                 box, field, token):
    fields = label_line(0, 1, slot_box(0, 0)).split()
    fields[6:10] = box
    good_line = label_line(0, 2, slot_box(1, 0))
    argv, bad = _kitti_argv(tmp_path, flag, f"{good_line}\n{' '.join(fields)}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert execute(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:2: field '{field}' must be at most 2**510 in magnitude: '{token}'\n")
    assert not (tmp_path / "res.txt").exists()


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
    good_line = label_line(0, 1, slot_box(0, 0))
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
    fields = label_line(0, 1, slot_box(0, 0), score=0.5).split()
    fields[{"bbox_left": 6, "bbox_right": 8, "score": 17}[field]] = token
    good_line = label_line(0, 2, slot_box(1, 0), score=0.5)
    argv, bad = _kitti_argv(tmp_path, flag, f"{good_line}\n{' '.join(fields)}\n")
    assert execute(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:2: field '{field}' is not finite: '{token}'\n")


@pytest.mark.parametrize("score, w_det", [("1e308", "1.0"), ("1e300", "1e10"),
                                           ("-1e308", "1.0"), ("5.0", "1e153"),
                                           ("8e307", "1.0")])
def test_track_names_a_detection_whose_weighted_score_overflows(tmp_path, capsys,
                                                                score, w_det):
    lines = [label_line(f, -1, slot_box(0, f), score=0.9) for f in range(4)]
    lines[2] = " ".join(lines[2].split()[:-1] + [score])
    lines[3] = " ".join(lines[3].split()[:-1] + [score])
    argv, bad = _kitti_argv(tmp_path, "--dets", "\n".join(lines) + "\n")
    assert execute(argv + ["--w-det", w_det]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:3: score {float(score)!r} weighted by --w-det "
        f"{float(w_det)!r} must be at most 2**510 in magnitude\n")
    assert not (tmp_path / "res.txt").exists()


@pytest.mark.parametrize("flag", ["--gt", "--hyp"])
def test_evaluate_names_a_repeated_record(tmp_path, capsys, flag):
    lines = [label_line(f, tid, slot_box(tid, f))
             for f, tid in [(0, 1), (0, 2), (1, 1), (2, 2), (1, 2), (1, 1), (0, 2)]]
    argv, bad = _kitti_argv(tmp_path, flag, "\n".join(lines) + "\n")
    assert execute(argv) == 1
    # lines 6 and 7 both repeat a record of their frame; the first is named
    assert capsys.readouterr().err == f"error: {bad}:6: duplicate track_id 1 in frame 1\n"


def _swapped_pair(tmp_path):
    """A ground truth of 4 objects over 50 frames and a hypothesis, in reverse
    frame order, in which objects 0 and 1 swap IDs from frame 25 on and object 2
    is missing at frame 37; line 71 of each holds a 0_0 token that numpy refuses."""
    gt = [label_line(f, k, slot_box(k, f)) for f in range(50) for k in range(4)]
    hyp = [label_line(f, 1 - k if f >= 25 and k < 2 else k, slot_box(k, f))
           for f in reversed(range(50)) for k in range(4) if (f, k) != (37, 2)]
    paths = []
    for name, lines in (("gt.txt", gt), ("hyp.txt", hyp)):
        lines[70] = lines[70].replace(" 0.0 0 -1.2 ", " 0.0 0_0 -1.2 ")
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join(lines) + "\n")
    return paths


# sha256 of the evaluate report and of the track output on `_swapped_pair`'s
# files, from the reader that built one record per line
SWAPPED_EVALUATE_SHA256 = "a66cb8b89656db368bd52eb7af9ed6718e386ec68b34f5e1d2c14429da246396"
SWAPPED_TRACK_SHA256 = "235febe5a99d122a47d9fcceddec3c301624bdde74087cd2a5d4f880234a683e"


def test_evaluate_builds_no_record(tmp_path, capsys, monkeypatch):
    gt, hyp = _swapped_pair(tmp_path)
    walk, walked = kitti_io._walk, []

    def walking(chunk, start):
        walked.append(start)
        return walk(chunk, start)

    def no_record(*args):
        raise AssertionError("evaluate built a KittiRecord")

    # 32-line chunks: each file is read in 7 chunks, and its third is walked
    monkeypatch.setattr(kitti_io, "_CHUNK", 32)
    monkeypatch.setattr(kitti_io, "_walk", walking)
    monkeypatch.setattr(kitti_io.KittiRecord, "__init__", no_record)
    assert execute(["evaluate", "--gt", str(gt), "--hyp", str(hyp)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("MOTA=0.9850\nFP=0\nFN=1\nIDSW=2\nGT=200\n")
    assert hashlib.sha256(out.encode()).hexdigest() == SWAPPED_EVALUATE_SHA256
    assert walked == [64, 64]
    monkeypatch.undo()
    monkeypatch.setattr(kitti_io, "_CHUNK", 32)
    assert execute(["track", "--dets", str(gt), "--out", str(tmp_path / "tracks.txt")]) == 0
    digest = hashlib.sha256((tmp_path / "tracks.txt").read_bytes()).hexdigest()
    assert digest == SWAPPED_TRACK_SHA256


def test_search_logs_one_line_per_skipped_lambda_and_no_traceback(tmp_path):
    # a stage-two rate of 1.5 diverges at iteration 520 for both lambdas; the
    # console script has no logging handler of its own, as here
    out = tmp_path / "front.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "paretotrack.cli", "search", "--lambdas", "0.1,1",
         "--epochs", "2", "--theta-iters", "1", "--theta-lr", "1.5", "--stage2-iters", "2000",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "lambda=0.1 failed, skipping: non-finite loss at iteration 520\n"
        "lambda=1.0 failed, skipping: non-finite loss at iteration 520\n"
        "error: all 2 lambdas failed; no front written\n")
    assert not out.exists()


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "paretotrack.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "track" in proc.stdout and "search" in proc.stdout


def test_parser_lists_all_subcommands():
    (commands,) = (action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == {"track", "evaluate", "profile-latency", "search",
                             "assoc-debug"}
