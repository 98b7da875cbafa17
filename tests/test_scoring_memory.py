"""Scoring memory: peak RSS growth per trial in a fresh interpreter.

Scoring holds no Python object per trial and reads each file as its
bytes, with no whole-file str, so `evaluate` on a 200k-trial set grows
the peak RSS over import by about 210 bytes per trial, 212 for CRLF
files (numpy 2.4, Python 3.11, Linux); through a whole-file str it grew
by about 257.  Reading every field as a str and joining through an
id->row dict grew it by about 610.  The bound lies between the two.  It
is a gate, not a knob.

The peak is VmHWM, the high-water mark of the interpreter's own address
space: ru_maxrss would count the pytest process too, since Linux carries
a parent's peak into a forked and exec'd child.  The set's ~6 MB score
file is larger than cli.FORK_SCORES_BYTES, so it is parsed in a forked
child; the child's growth, its RUSAGE_CHILDREN ru_maxrss over the same
base, is added to the interpreter's.  Split so, the growth is about 211
bytes per trial in the interpreter and 98 in the child, 309 in all.

`report` runs the same parse and join, then the full attack x codec
breakdown, which stays under the parse's peak: it grows 308-309 bytes
per trial in all, as `evaluate` does.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from launderbench import cli

TRIALS = 200_000
BYTES_PER_TRIAL = 400


def write_trial_set(root, n):
    rng = np.random.Generator(np.random.PCG64(41))
    names = rng.permutation(n).tolist()
    bonafide = (rng.random(n) < 0.1).tolist()
    attack = rng.integers(17, 30, n).tolist()
    codec = rng.integers(0, 9, n).tolist()
    lines = []
    for k, bon, a, c in zip(names, bonafide, attack, codec):
        uid = f"LA_{k:07d}"
        label, attack_id = ("bonafide", "-") if bon else ("spoof", f"A{a}")
        lines.append(f"{uid} {label} {attack_id} C{c:02d} flac/{uid}.flac\n")
    manifest = root / "trials.manifest"
    manifest.write_text("".join(lines))
    scores = rng.normal(0.0, 2.0, n).tolist()
    scores_file = root / "trials.scores"
    scores_file.write_text("".join(
        f"LA_{names[i]:07d} {scores[i]!r}\n"
        for i in rng.permutation(n).tolist()))
    return manifest, scores_file


def peak_growth(argv):
    """Peak RSS growth over import of cli.main(argv) in a fresh
    interpreter, the forked score reader's included."""
    code = ("import resource\n"
            "from launderbench import cli\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) * 1024 for line in f\n"
            "                    if line.startswith('VmHWM:'))\n"
            "base = peak()\n"
            f"rc = cli.main({argv!r})\n"
            "assert rc == 0, rc\n"
            "child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(peak() - base, max(0, child * 1024 - base))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return sum(map(int, done.stdout.splitlines()[-1].split()))


needs_proc = pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                                reason="VmHWM is read from /proc")


@needs_proc
def test_evaluate_peak_rss_per_trial(tmp_path):
    manifest, scores = write_trial_set(tmp_path, TRIALS)
    growth = peak_growth(["evaluate", "--manifest", str(manifest),
                          "--scores", str(scores)])
    assert growth / TRIALS < BYTES_PER_TRIAL, \
        f"{growth / TRIALS:.0f} bytes per trial"


@needs_proc
def test_report_peak_rss_per_trial(tmp_path):
    manifest, scores = write_trial_set(tmp_path, TRIALS)
    growth = peak_growth(["report", "--manifest", str(manifest),
                          "--scores", str(scores), "--out",
                          str(tmp_path / "out")])
    assert growth / TRIALS < BYTES_PER_TRIAL, \
        f"{growth / TRIALS:.0f} bytes per trial"
