"""Byte identity of `track`, `evaluate`, `search` and `assoc-debug` outputs.

The track/evaluate digest was computed with the object-per-line KITTI reader
and writer; any later change to parsing, tracking, evaluation or formatting
that moves a byte of either output fails here.  The search digest was
computed with the per-row softmax and one stage-1 run per lambda, once
`profile-latency` wrote the nominal table (it had summed a scripted clock's
steps, off by a few ulps); it pins the front and plot files on four flag sets,
the last the full 129-lambda c06 sweep.
The assoc-debug digest was computed once the score lines printed plain floats
(they had printed numpy scalar reprs); it pins the printed scores, flags and the
`objective=` line on four random instances and one scores file.
"""

import contextlib
import hashlib
import io
import random

import numpy as np

from paretotrack.cli import execute

GOLDEN_SHA256 = "43ba1c4661fcbb464349459c9152c287cd1a2c0ec88b90aa08e99fc13db6a819"
SEARCH_SHA256 = "644cbfb525de1f871155a6e181bf2041c5e061f26dfeb64c0b7197441fdb05ae"
ASSOC_DEBUG_SHA256 = "2eb0e57311d76bbb2b0c74b4d58c6571db95e7e6728841654c9f02e8e539ce74"

# The c06 problem's 129 lambdas, on a profiled table.
C06_LAMBDAS = np.logspace(-3, 2.5, 129).tolist()
C06_FLAGS = ["--normal-cells", "1", "--reduction-cells", "0", "--nodes", "3",
             "--epochs", "200", "--theta-iters", "2", "--alpha-lr", "0.5",
             "--theta-lr", "0.2", "--stage2-iters", "300", "--eval-interval", "20"]


def _line(frame, track_id, box, rng, score=None):
    fields = [str(frame), str(track_id), rng.choice(["Car", "Van", "Pedestrian"]),
              repr(rng.choice([0.0, 0.25, 1.0])), str(rng.randrange(3)),
              repr(rng.uniform(-3.2, 3.2)), *map(repr, box),
              *(repr(rng.uniform(0.5, 5.0)) for _ in range(3)),
              *(repr(rng.uniform(-40.0, 40.0)) for _ in range(3)),
              repr(rng.uniform(-3.2, 3.2))]
    if score is not None:
        fields.append(repr(score))
    return " ".join(fields) + "\n"


def _sequence(seed, n_frames=60, n_objects=7):
    """Detections (18 fields, one frame's lines shuffled) and ground truth (17)."""
    rng = random.Random(seed)
    dets, gt = [], []
    for frame in range(n_frames):
        if frame % 17 == 16:
            continue  # an empty frame the tracker walks through
        frame_dets = []
        for obj in range(n_objects):
            left = 95.0 * obj + 1.5 * frame + rng.uniform(-2.0, 2.0)
            top = 60.0 + 35.0 * (obj % 3) + rng.uniform(-2.0, 2.0)
            box = (left, top, left + rng.uniform(45.0, 60.0), top + rng.uniform(25.0, 32.0))
            gt.append(_line(frame, obj, box, rng))
            if rng.random() < 0.12:
                continue  # a missed detection
            jit = [v + rng.uniform(-4.0, 4.0) for v in box]
            det_box = (min(jit[0], jit[2]), min(jit[1], jit[3]),
                       max(jit[0], jit[2]), max(jit[1], jit[3]))
            frame_dets.append(_line(frame, -1, det_box, rng, rng.uniform(0.4, 1.0)))
        if rng.random() < 0.3:  # clutter
            left, top = rng.uniform(0.0, 700.0), rng.uniform(0.0, 300.0)
            frame_dets.append(_line(frame, -1, (left, top, left + 30.0, top + 20.0),
                                    rng, rng.uniform(0.0, 0.6)))
        rng.shuffle(frame_dets)
        dets += frame_dets
    return dets, gt


def test_track_and_evaluate_outputs_match_the_golden_digest(tmp_path):
    dets, gt = _sequence(2026)
    (tmp_path / "dets.txt").write_text("".join(dets))
    (tmp_path / "gt.txt").write_text("".join(gt))
    digest = hashlib.sha256()
    for t_birth, t_death in ((3, 5), (1, 1), (2, 8)):
        out = tmp_path / f"track-{t_birth}-{t_death}.txt"
        assert execute(["track", "--dets", str(tmp_path / "dets.txt"), "--out", str(out),
                        "--t-birth", str(t_birth), "--t-death", str(t_death)]) == 0
        digest.update(out.read_bytes())
        for iou in ("0.5", "0.3"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert execute(["evaluate", "--gt", str(tmp_path / "gt.txt"),
                                "--hyp", str(out), "--iou", iou]) == 0
            digest.update(stdout.getvalue().encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def test_search_front_and_plot_match_the_golden_digest(tmp_path, capsys):
    table = tmp_path / "table.txt"
    assert execute(["profile-latency", "--out", str(table), "--clock", "synthetic"]) == 0
    flag_sets = (
        [],
        ["--table", str(table),
         "--lambdas", ",".join(repr(x) for x in C06_LAMBDAS[::32])]
        + C06_FLAGS,
        ["--normal-cells", "2", "--reduction-cells", "1", "--nodes", "4",
         "--surrogate", "quadratic"],
        ["--table", str(table),
         "--lambdas", ",".join(repr(x) for x in C06_LAMBDAS)]
        + C06_FLAGS,
    )
    digest = hashlib.sha256()
    for i, flags in enumerate(flag_sets):
        front, plot = tmp_path / f"front-{i}.txt", tmp_path / f"plot-{i}.txt"
        assert execute(["search", "--out", str(front), "--plot-data", str(plot)]
                       + flags) == 0
        digest.update(front.read_bytes())
        digest.update(plot.read_bytes())
    assert digest.hexdigest() == SEARCH_SHA256


def test_assoc_debug_output_matches_the_golden_digest(tmp_path):
    scores = tmp_path / "scores.txt"
    scores.write_text("scoreset v1\nn_prev=1 n_curr=1\ns_in: -1.0\ns_out: -1.0\n"
                      "s_det_prev: 1.0\ns_det_curr: 1.0\n2.0\n")
    # 5,5 has 35 free flags: past the brute-force limit, so no lex refinement
    runs = [["--random", sizes, "--seed", "7"] for sizes in ("0,3", "3,0", "2,3", "5,5")]
    digest = hashlib.sha256()
    for flags in runs + [["--scores", str(scores)]]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert execute(["assoc-debug"] + flags) == 0
        digest.update(stdout.getvalue().encode())
    assert digest.hexdigest() == ASSOC_DEBUG_SHA256

