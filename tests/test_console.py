"""Behaviour checks of the command line, each run as a user runs it: in a fresh
interpreter through ``python -m paretotrack.cli``, with RuntimeWarning an error.

Each test's docstring names the check; the inputs are the ones the checks
have always used, generated here line for line.
"""

import os
import subprocess
import sys

import paretotrack

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(paretotrack.__file__)))


def _evaluate(gt, hyp) -> subprocess.CompletedProcess:
    """``paretotrack evaluate --gt GT --hyp HYP`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
    return subprocess.run(
        [sys.executable, "-m", "paretotrack.cli", "evaluate", "--gt", str(gt), "--hyp", str(hyp)],
        capture_output=True, text=True, env=env)


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def test_the_console_script_scores_a_long_file_against_itself(tmp_path):
    """The installed console script scores a long file against itself."""
    # 5000 lines with a distinct box each: the reader keeps every line's box across
    # its 2048-line chunks, and evaluate carries each match over from frame to frame
    lines = ["%d %d Car 0 0 0 %d %d.5 %d.25 %d 1.5 1.6 3.9 2.0 1.5 30.0 -1.5 0.9"
             % (i // 50, i % 50, i, i, i + 10, i + 20) for i in range(5000)]
    assert len({tuple(line.split()[6:10]) for line in lines}) == 5000
    long = tmp_path / "long.txt"
    _write(long, lines)
    proc = _evaluate(long, long)
    assert proc.returncode == 0, proc.stderr
    for want in ("MOTA=1.0000", "FP=0", "FN=0", "IDSW=0"):
        assert want in proc.stdout.splitlines()


def test_the_console_script_counts_an_identity_swap(tmp_path):
    """The installed console script counts an identity swap."""
    # objects 0 and 1 swap track IDs in the hypothesis from frame 20 on, so the matches
    # carried from frame 19 break and the re-match counts one switch per object with
    # every box still matched
    gt = ["%d %d Car 0 0 0 %d %d %d %d 1.5 1.6 3.9 2.0 1.5 30.0 -1.5 0.9"
          % (f, k, 100 * k + f, 40 * k, 100 * k + f + 50, 40 * k + 30)
          for f in range(40) for k in range(4)]
    swapped = []
    for line in gt:
        fields = line.split(" ")
        if int(fields[0]) >= 20 and int(fields[1]) < 2:
            fields[1] = str(1 - int(fields[1]))
        swapped.append(" ".join(fields))
    assert sum(a != b for a, b in zip(gt, swapped)) == 40
    _write(tmp_path / "swap-gt.txt", gt)
    _write(tmp_path / "swap-hyp.txt", swapped)
    proc = _evaluate(tmp_path / "swap-gt.txt", tmp_path / "swap-hyp.txt")
    assert proc.returncode == 0, proc.stderr
    for want in ("FP=0", "FN=0", "IDSW=2"):
        assert want in proc.stdout.splitlines(), proc.stdout
